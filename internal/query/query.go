// Package query defines the abstract syntax of the four relational query
// languages studied in the paper — conjunctive queries (CQ), unions of
// conjunctive queries (UCQ), positive existential FO (∃FO+), and first-order
// logic (FO) — all with the built-in predicates =, !=, <, <=, >, >=, plus the
// identity queries of Section 8. It also classifies a query into the least
// expressive of those languages, which is what parameterizes every
// complexity result in the paper.
package query

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"

	"repro/internal/value"
)

// Language enumerates the query language classes of Section 4.1, ordered by
// expressiveness. Identity ⊂ CQ ⊂ UCQ ⊂ ∃FO+ ⊂ FO.
type Language int

// The language classes.
const (
	Identity Language = iota
	CQ
	UCQ
	EFOPlus
	FO
)

// String returns the paper's name for the language.
func (l Language) String() string {
	switch l {
	case Identity:
		return "identity"
	case CQ:
		return "CQ"
	case UCQ:
		return "UCQ"
	case EFOPlus:
		return "∃FO+"
	case FO:
		return "FO"
	default:
		return fmt.Sprintf("Language(%d)", int(l))
	}
}

// Includes reports whether language l contains language m (every m-query is
// an l-query).
func (l Language) Includes(m Language) bool { return m <= l }

// Term is a variable or constant argument of an atom or comparison.
type Term struct {
	// Name is non-empty for variables.
	Name string
	// Value holds the constant when Name is empty.
	Value value.Value
}

// V makes a variable term.
func V(name string) Term { return Term{Name: name} }

// C makes a constant term.
func C(v value.Value) Term { return Term{Value: v} }

// CInt makes an integer constant term.
func CInt(i int64) Term { return C(value.Int(i)) }

// CStr makes a string constant term.
func CStr(s string) Term { return C(value.Str(s)) }

// IsVar reports whether the term is a variable.
func (t Term) IsVar() bool { return t.Name != "" }

// stringEscaper escapes a string constant for the lexer, which decodes a
// backslash followed by any byte as that byte.
var stringEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`)

// String renders the term in the query syntax, so the parser reads it back
// as the same term: a float always carries a decimal point and never an
// exponent, and a string escapes only the quote and the backslash; every
// other byte, a tab included, stands for itself.
func (t Term) String() string {
	if t.IsVar() {
		return t.Name
	}
	switch t.Value.Kind() {
	case value.KindString:
		return `"` + stringEscaper.Replace(t.Value.AsString()) + `"`
	case value.KindFloat:
		f := t.Value.AsFloat()
		out := strconv.FormatFloat(f, 'f', -1, 64)
		if !math.IsNaN(f) && !math.IsInf(f, 0) && !strings.Contains(out, ".") {
			out += ".0"
		}
		return out
	default:
		return t.Value.String()
	}
}

// CmpOp is a built-in comparison predicate.
type CmpOp int

// The six built-in predicates available in all languages.
const (
	EQ CmpOp = iota
	NE
	LT
	LE
	GT
	GE
)

// String renders the operator.
func (op CmpOp) String() string {
	switch op {
	case EQ:
		return "="
	case NE:
		return "!="
	case LT:
		return "<"
	case LE:
		return "<="
	case GT:
		return ">"
	case GE:
		return ">="
	default:
		return "?"
	}
}

// Eval applies the comparison to two constants.
func (op CmpOp) Eval(a, b value.Value) bool {
	c := value.Compare(a, b)
	switch op {
	case EQ:
		return c == 0
	case NE:
		return c != 0
	case LT:
		return c < 0
	case LE:
		return c <= 0
	case GT:
		return c > 0
	case GE:
		return c >= 0
	default:
		return false
	}
}

// Formula is a node of a query body. The concrete types are Atom, Cmp, And,
// Or, Not, Exists and ForAll.
type Formula interface {
	fmt.Stringer
	// freeVars adds the node's free variables to the set.
	freeVars(bound map[string]bool, out map[string]bool)
}

// Atom is a relation atom R(t1, ..., tn).
type Atom struct {
	Rel  string
	Args []Term
}

// Cmp is a built-in comparison t1 op t2.
type Cmp struct {
	Op   CmpOp
	L, R Term
}

// And is a conjunction of one or more formulas.
type And struct{ Fs []Formula }

// Or is a disjunction of one or more formulas.
type Or struct{ Fs []Formula }

// Not is negation.
type Not struct{ F Formula }

// Exists is existential quantification over one or more variables.
type Exists struct {
	Vars []string
	F    Formula
}

// ForAll is universal quantification over one or more variables.
type ForAll struct {
	Vars []string
	F    Formula
}

func (a *Atom) String() string {
	parts := make([]string, len(a.Args))
	for i, t := range a.Args {
		parts[i] = t.String()
	}
	return a.Rel + "(" + strings.Join(parts, ", ") + ")"
}

func (c *Cmp) String() string { return c.L.String() + " " + c.Op.String() + " " + c.R.String() }

func joinFormulas(fs []Formula, sep string) string {
	parts := make([]string, len(fs))
	for i, f := range fs {
		parts[i] = f.String()
	}
	return "(" + strings.Join(parts, sep) + ")"
}

func (a *And) String() string { return joinFormulas(a.Fs, " and ") }
func (o *Or) String() string  { return joinFormulas(o.Fs, " or ") }
func (n *Not) String() string { return "not " + n.F.String() }

func (e *Exists) String() string {
	return "exists " + strings.Join(e.Vars, ", ") + " (" + e.F.String() + ")"
}

func (f *ForAll) String() string {
	return "forall " + strings.Join(f.Vars, ", ") + " (" + f.F.String() + ")"
}

func (a *Atom) freeVars(bound, out map[string]bool) {
	for _, t := range a.Args {
		if t.IsVar() && !bound[t.Name] {
			out[t.Name] = true
		}
	}
}

func (c *Cmp) freeVars(bound, out map[string]bool) {
	for _, t := range []Term{c.L, c.R} {
		if t.IsVar() && !bound[t.Name] {
			out[t.Name] = true
		}
	}
}

func (a *And) freeVars(bound, out map[string]bool) {
	for _, f := range a.Fs {
		f.freeVars(bound, out)
	}
}

func (o *Or) freeVars(bound, out map[string]bool) {
	for _, f := range o.Fs {
		f.freeVars(bound, out)
	}
}

func (n *Not) freeVars(bound, out map[string]bool) { n.F.freeVars(bound, out) }

func quantFreeVars(vars []string, f Formula, bound, out map[string]bool) {
	saved := make([]string, 0, len(vars))
	for _, v := range vars {
		if !bound[v] {
			bound[v] = true
			saved = append(saved, v)
		}
	}
	f.freeVars(bound, out)
	for _, v := range saved {
		delete(bound, v)
	}
}

func (e *Exists) freeVars(bound, out map[string]bool) { quantFreeVars(e.Vars, e.F, bound, out) }
func (f *ForAll) freeVars(bound, out map[string]bool) { quantFreeVars(f.Vars, f.F, bound, out) }

// FreeVars returns the free variables of a formula in sorted order.
func FreeVars(f Formula) []string {
	out := make(map[string]bool)
	f.freeVars(make(map[string]bool), out)
	vars := make([]string, 0, len(out))
	for v := range out {
		vars = append(vars, v)
	}
	sort.Strings(vars)
	return vars
}

// Query is a named query with an ordered head of output variables and a
// body formula. The schema of the query result RQ has one attribute per
// head variable.
type Query struct {
	Name string
	Head []string
	Body Formula
}

// New constructs a query and validates that head variables are distinct and
// free in the body.
func New(name string, head []string, body Formula) (*Query, error) {
	q := &Query{Name: name, Head: append([]string(nil), head...), Body: body}
	seen := make(map[string]bool, len(head))
	for _, h := range head {
		if seen[h] {
			return nil, fmt.Errorf("query %s: repeated head variable %q", name, h)
		}
		seen[h] = true
	}
	free := make(map[string]bool)
	for _, v := range FreeVars(body) {
		free[v] = true
	}
	for _, h := range head {
		if !free[h] {
			return nil, fmt.Errorf("query %s: head variable %q is not free in the body", name, h)
		}
	}
	return q, nil
}

// MustNew is New that panics on error; for statically known-correct queries.
func MustNew(name string, head []string, body Formula) *Query {
	q, err := New(name, head, body)
	if err != nil {
		panic(err)
	}
	return q
}

// IdentityQuery builds the identity query Q(x̄) = R(x̄) of Section 8 for a
// relation of the given arity, with head variables x1..xn.
func IdentityQuery(rel string, arity int) *Query {
	head := make([]string, arity)
	for i := range head {
		head[i] = fmt.Sprintf("x%d", i+1)
	}
	return IdentityQueryNamed(rel, head)
}

// IdentityQueryNamed builds the identity query over rel with the given head
// variable names — typically the relation's attribute names, so that the
// result schema RQ mirrors R and compatibility constraints can reference
// attributes by their natural names.
func IdentityQueryNamed(rel string, attrs []string) *Query {
	args := make([]Term, len(attrs))
	for i, a := range attrs {
		args[i] = V(a)
	}
	return MustNew("Q_"+rel, attrs, &Atom{Rel: rel, Args: args})
}

// Arity returns the number of head variables.
func (q *Query) Arity() int { return len(q.Head) }

// String renders the query as Name(head) :- body.
func (q *Query) String() string {
	return q.Name + "(" + strings.Join(q.Head, ", ") + ") :- " + q.Body.String()
}

// Constants returns the distinct constants mentioned in the query, used to
// extend the active domain during evaluation.
func (q *Query) Constants() []value.Value {
	seen := make(map[string]value.Value)
	var walk func(Formula)
	addTerm := func(t Term) {
		if !t.IsVar() {
			seen[t.Value.Key()] = t.Value
		}
	}
	walk = func(f Formula) {
		switch n := f.(type) {
		case *Atom:
			for _, t := range n.Args {
				addTerm(t)
			}
		case *Cmp:
			addTerm(n.L)
			addTerm(n.R)
		case *And:
			for _, g := range n.Fs {
				walk(g)
			}
		case *Or:
			for _, g := range n.Fs {
				walk(g)
			}
		case *Not:
			walk(n.F)
		case *Exists:
			walk(n.F)
		case *ForAll:
			walk(n.F)
		}
	}
	walk(q.Body)
	out := make([]value.Value, 0, len(seen))
	for _, v := range seen {
		out = append(out, v)
	}
	sort.Slice(out, func(i, j int) bool { return value.Less(out[i], out[j]) })
	return out
}

// Classify returns the least expressive language class containing the query.
func (q *Query) Classify() Language {
	if isIdentity(q) {
		return Identity
	}
	switch {
	case isCQ(q.Body):
		return CQ
	case isUCQ(q.Body):
		return UCQ
	case isEFOPlus(q.Body):
		return EFOPlus
	default:
		return FO
	}
}

// isIdentity recognizes Q(x1..xn) :- R(x1..xn) with distinct variables in
// head order.
func isIdentity(q *Query) bool {
	a, ok := q.Body.(*Atom)
	if !ok || len(a.Args) != len(q.Head) {
		return false
	}
	for i, t := range a.Args {
		if !t.IsVar() || t.Name != q.Head[i] {
			return false
		}
	}
	return true
}

// isCQ: atoms, comparisons, conjunction, existential quantification.
func isCQ(f Formula) bool {
	switch n := f.(type) {
	case *Atom, *Cmp:
		return true
	case *And:
		for _, g := range n.Fs {
			if !isCQ(g) {
				return false
			}
		}
		return true
	case *Exists:
		return isCQ(n.F)
	default:
		return false
	}
}

// isUCQ: a disjunction of CQ formulas, a single CQ, or existential
// quantifiers over such a disjunction (prenex union form).
func isUCQ(f Formula) bool {
	if isCQ(f) {
		return true
	}
	switch n := f.(type) {
	case *Or:
		for _, g := range n.Fs {
			if !isCQ(g) {
				return false
			}
		}
		return true
	case *Exists:
		return isUCQ(n.F)
	default:
		return false
	}
}

// isEFOPlus: positive existential FO — no negation, no universal
// quantification.
func isEFOPlus(f Formula) bool {
	switch n := f.(type) {
	case *Atom, *Cmp:
		return true
	case *And:
		for _, g := range n.Fs {
			if !isEFOPlus(g) {
				return false
			}
		}
		return true
	case *Or:
		for _, g := range n.Fs {
			if !isEFOPlus(g) {
				return false
			}
		}
		return true
	case *Exists:
		return isEFOPlus(n.F)
	default:
		return false
	}
}
