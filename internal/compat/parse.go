package compat

import (
	"fmt"
	"strings"

	"repro/internal/value"
)

// Parse reads a constraint in the textual notation mirroring the paper:
//
//	forall t1, t2 (t1.item = "a", t2.item = "b" -> exists s (s.item = "c"))
//	forall t (t.id = "CS450" -> exists p1, p2 (p1.id = "CS220", p2.id = "CS350"))
//	exists s (s.kind = "card")
//	forall t1, t2 (t1.pos = "center", t2.pos = "center", t1.id != t2.id -> t1.id = t2.id)
//
// Both quantifier blocks are optional; "true" may stand for an empty
// predicate list. Predicates are comma- or "and"-separated. Constants are
// written as in the query syntax: a string is double-quoted, with \" and \\
// for a quote and a backslash, and a number is digits with an optional
// sign and decimal point.
func Parse(src string) (*Constraint, error) {
	p := &cparser{src: src}
	c, err := p.constraint()
	if err != nil {
		return nil, err
	}
	p.skipSpace()
	if p.pos != len(p.src) {
		return nil, fmt.Errorf("compat: trailing input at offset %d", p.pos)
	}
	return c, nil
}

// MustParse is Parse that panics on error.
func MustParse(src string) *Constraint {
	c, err := Parse(src)
	if err != nil {
		panic(err)
	}
	return c
}

type cparser struct {
	src string
	pos int
}

func (p *cparser) skipSpace() {
	for p.pos < len(p.src) {
		switch p.src[p.pos] {
		case ' ', '\t', '\n', '\r':
			p.pos++
		default:
			return
		}
	}
}

func (p *cparser) keyword(kw string) bool {
	p.skipSpace()
	if strings.HasPrefix(p.src[p.pos:], kw) {
		end := p.pos + len(kw)
		if end == len(p.src) || !isWordChar(p.src[end]) {
			p.pos = end
			return true
		}
	}
	return false
}

func (p *cparser) punct(c byte) bool {
	p.skipSpace()
	if p.pos < len(p.src) && p.src[p.pos] == c {
		p.pos++
		return true
	}
	return false
}

func (p *cparser) arrow() bool {
	p.skipSpace()
	if strings.HasPrefix(p.src[p.pos:], "->") {
		p.pos += 2
		return true
	}
	return false
}

func isWordChar(c byte) bool {
	return c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9' || c == '_'
}

func (p *cparser) ident() (string, error) {
	p.skipSpace()
	start := p.pos
	for p.pos < len(p.src) && isWordChar(p.src[p.pos]) {
		p.pos++
	}
	if p.pos == start {
		return "", fmt.Errorf("compat: expected identifier at offset %d", start)
	}
	return p.src[start:p.pos], nil
}

func (p *cparser) varList() ([]string, error) {
	var vars []string
	for {
		v, err := p.ident()
		if err != nil {
			return nil, err
		}
		vars = append(vars, v)
		if !p.punct(',') {
			return vars, nil
		}
	}
}

func (p *cparser) constraint() (*Constraint, error) {
	c := &Constraint{}
	if p.keyword("forall") {
		vars, err := p.varList()
		if err != nil {
			return nil, err
		}
		c.Forall = vars
		if !p.punct('(') {
			return nil, fmt.Errorf("compat: expected ( after forall variables at offset %d", p.pos)
		}
		cond, err := p.predList()
		if err != nil {
			return nil, err
		}
		if p.arrow() {
			c.Cond = cond
			if err := p.conclusion(c); err != nil {
				return nil, err
			}
		} else {
			// No arrow: the whole body is an unconditional conclusion.
			c.Conc = cond
		}
		if !p.punct(')') {
			return nil, fmt.Errorf("compat: expected closing ) at offset %d", p.pos)
		}
		return c, nil
	}
	// No universal block: unconditional conclusion.
	if err := p.conclusion(c); err != nil {
		return nil, err
	}
	return c, nil
}

func (p *cparser) conclusion(c *Constraint) error {
	if p.keyword("exists") {
		vars, err := p.varList()
		if err != nil {
			return err
		}
		c.Exists = vars
		if !p.punct('(') {
			return fmt.Errorf("compat: expected ( after exists variables at offset %d", p.pos)
		}
		conc, err := p.predList()
		if err != nil {
			return err
		}
		c.Conc = conc
		if !p.punct(')') {
			return fmt.Errorf("compat: expected ) closing exists block at offset %d", p.pos)
		}
		return nil
	}
	conc, err := p.predList()
	if err != nil {
		return err
	}
	c.Conc = conc
	return nil
}

func (p *cparser) predList() ([]Pred, error) {
	if p.keyword("true") {
		return nil, nil
	}
	var preds []Pred
	for {
		pr, err := p.pred()
		if err != nil {
			return nil, err
		}
		preds = append(preds, pr)
		if p.punct(',') || p.keyword("and") {
			continue
		}
		return preds, nil
	}
}

func (p *cparser) pred() (Pred, error) {
	l, err := p.operand()
	if err != nil {
		return Pred{}, err
	}
	op, err := p.op()
	if err != nil {
		return Pred{}, err
	}
	r, err := p.operand()
	if err != nil {
		return Pred{}, err
	}
	return Pred{Op: op, L: l, R: r}, nil
}

func (p *cparser) op() (Op, error) {
	p.skipSpace()
	if strings.HasPrefix(p.src[p.pos:], "!=") {
		p.pos += 2
		return Ne, nil
	}
	if p.pos < len(p.src) && p.src[p.pos] == '=' {
		p.pos++
		return Eq, nil
	}
	return Eq, fmt.Errorf("compat: expected = or != at offset %d", p.pos)
}

// str scans the string literal at p.pos. As in the query syntax, a
// backslash stands for the byte after it, so \" and \\ spell a quote and a
// backslash.
func (p *cparser) str() (string, error) {
	start := p.pos
	var b strings.Builder
	for p.pos++; p.pos < len(p.src); p.pos++ {
		c := p.src[p.pos]
		if c == '"' {
			p.pos++
			return b.String(), nil
		}
		if c == '\\' && p.pos+1 < len(p.src) {
			p.pos++
			c = p.src[p.pos]
		}
		b.WriteByte(c)
	}
	return "", fmt.Errorf("compat: unterminated string at offset %d", start)
}

func (p *cparser) operand() (Operand, error) {
	p.skipSpace()
	if p.pos < len(p.src) && p.src[p.pos] == '"' {
		s, err := p.str()
		if err != nil {
			return Operand{}, err
		}
		return Lit(value.Str(s)), nil
	}
	if p.pos < len(p.src) && (p.src[p.pos] == '-' || p.src[p.pos] >= '0' && p.src[p.pos] <= '9') {
		start := p.pos
		if p.src[p.pos] == '-' {
			p.pos++
		}
		for p.pos < len(p.src) && (p.src[p.pos] >= '0' && p.src[p.pos] <= '9' || p.src[p.pos] == '.') {
			p.pos++
		}
		return Lit(value.Parse(p.src[start:p.pos])), nil
	}
	name, err := p.ident()
	if err != nil {
		return Operand{}, err
	}
	switch name {
	case "true":
		return Lit(value.Bool(true)), nil
	case "false":
		return Lit(value.Bool(false)), nil
	}
	if !p.punct('.') {
		return Operand{}, fmt.Errorf("compat: expected .attr after variable %q at offset %d", name, p.pos)
	}
	attr, err := p.ident()
	if err != nil {
		return Operand{}, err
	}
	return Ref(name, attr), nil
}
