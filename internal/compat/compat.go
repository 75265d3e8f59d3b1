// Package compat implements the class Cm of compatibility constraints from
// Section 9. A constraint has the form
//
//	∀ t1, ..., tl : RQ ( χ(t1..tl) → ∃ s1, ..., sh : RQ ξ(t1..tl, s1..sh) )
//
// where l, h ≤ m for a predefined constant m ≥ 2, and χ, ξ are conjunctions
// of predicates ρ[A] = ̺[B], ρ[A] != ̺[B], ρ[A] = c or ρ[A] != c. Such
// constraints express "take these together" and "these conflict"
// requirements (Example 9.1), and — as the paper stresses — are validated in
// PTIME: Satisfies runs in O(|U|^(l+h) · |preds|) for the fixed bound m.
package compat

import (
	"fmt"
	"strings"

	"repro/internal/query"
	"repro/internal/relation"
	"repro/internal/value"
)

// Op is a predicate comparison: Cm allows only equality and inequality.
type Op int

// The two predicate operators of Cm.
const (
	Eq Op = iota
	Ne
)

// String renders the operator.
func (o Op) String() string {
	if o == Eq {
		return "="
	}
	return "!="
}

// Operand is one side of a predicate: either a tuple-variable attribute
// reference v.attr or a constant.
type Operand struct {
	Var   string // tuple variable name; empty for constants
	Attr  string // attribute name when Var != ""
	Const value.Value
}

// Ref makes an attribute-reference operand.
func Ref(variable, attr string) Operand { return Operand{Var: variable, Attr: attr} }

// Lit makes a constant operand.
func Lit(v value.Value) Operand { return Operand{Const: v} }

// IsRef reports whether the operand references a tuple variable.
func (o Operand) IsRef() bool { return o.Var != "" }

// String renders the operand so that Parse reads it back as the same
// operand. Constants render as in the query syntax (query.Term.String),
// whose number and string scanning the constraint parser shares: a float
// always carries a decimal point and never an exponent, and a string
// escapes only the quote and the backslash.
func (o Operand) String() string {
	if o.IsRef() {
		return o.Var + "." + o.Attr
	}
	return query.C(o.Const).String()
}

// Pred is a single predicate L op R.
type Pred struct {
	Op   Op
	L, R Operand
}

// String renders the predicate.
func (p Pred) String() string { return p.L.String() + " " + p.Op.String() + " " + p.R.String() }

// Constraint is one constraint of Cm.
type Constraint struct {
	Forall []string // universal tuple variables t1..tl (l may be 0)
	Exists []string // existential tuple variables s1..sh (h may be 0)
	Cond   []Pred   // χ: over universal variables only
	Conc   []Pred   // ξ: over universal and existential variables
}

// Width returns l + h, the number of tuple variables; constraints belong to
// Cm when Width() ≤ m.
func (c *Constraint) Width() int { return len(c.Forall) + len(c.Exists) }

// ForallOnly reports whether the constraint has no existential block. Such
// constraints are violation-monotone: once a set violates one, every
// superset violates it too, which licenses pruning partial selections
// during search.
func (c *Constraint) ForallOnly() bool { return len(c.Exists) == 0 }

// String renders the constraint in the paper's notation.
func (c *Constraint) String() string {
	var b strings.Builder
	if len(c.Forall) > 0 {
		b.WriteString("forall ")
		b.WriteString(strings.Join(c.Forall, ", "))
		b.WriteString(" (")
	}
	// A bare existential requirement has no condition part at all; writing
	// "true" without a forall block would not reparse.
	if len(c.Forall) > 0 || len(c.Cond) > 0 {
		b.WriteString(predList(c.Cond))
		b.WriteString(" -> ")
	}
	if len(c.Exists) > 0 {
		b.WriteString("exists ")
		b.WriteString(strings.Join(c.Exists, ", "))
		b.WriteString(" (")
	}
	b.WriteString(predList(c.Conc))
	if len(c.Exists) > 0 {
		b.WriteString(")")
	}
	if len(c.Forall) > 0 {
		b.WriteString(")")
	}
	return b.String()
}

func predList(ps []Pred) string {
	if len(ps) == 0 {
		return "true"
	}
	parts := make([]string, len(ps))
	for i, p := range ps {
		parts[i] = p.String()
	}
	return strings.Join(parts, ", ")
}

// Validate checks the constraint's well-formedness against a result schema:
// every referenced attribute must exist, condition predicates may reference
// only universal variables, and conclusion predicates only declared
// variables.
func (c *Constraint) Validate(schema relation.Schema) error {
	declared := make(map[string]bool)
	for _, v := range c.Forall {
		if declared[v] {
			return fmt.Errorf("compat: duplicate variable %q", v)
		}
		declared[v] = true
	}
	univ := make(map[string]bool, len(c.Forall))
	for _, v := range c.Forall {
		univ[v] = true
	}
	for _, v := range c.Exists {
		if declared[v] {
			return fmt.Errorf("compat: duplicate variable %q", v)
		}
		declared[v] = true
	}
	check := func(ps []Pred, allowExistential bool) error {
		for _, p := range ps {
			for _, o := range []Operand{p.L, p.R} {
				if !o.IsRef() {
					continue
				}
				if !declared[o.Var] {
					return fmt.Errorf("compat: undeclared variable %q in %s", o.Var, p)
				}
				if !allowExistential && !univ[o.Var] {
					return fmt.Errorf("compat: condition references existential variable %q", o.Var)
				}
				if schema.AttrIndex(o.Attr) < 0 {
					return fmt.Errorf("compat: unknown attribute %q in %s (schema %s)", o.Attr, p, schema)
				}
			}
		}
		return nil
	}
	if err := check(c.Cond, false); err != nil {
		return err
	}
	return check(c.Conc, true)
}

// Satisfies reports whether the set U of tuples (under the given schema)
// satisfies the constraint: for every binding of the universal variables to
// tuples of U making χ true, some binding of the existential variables to
// tuples of U makes ξ true. Tuple variables may bind the same tuple, which
// is why ρ3 of Example 9.1 states distinctness predicates explicitly.
func (c *Constraint) Satisfies(u []relation.Tuple, schema relation.Schema) bool {
	binding := make(map[string]relation.Tuple, c.Width())
	return c.forallHolds(0, u, schema, binding)
}

func (c *Constraint) forallHolds(i int, u []relation.Tuple, schema relation.Schema, b map[string]relation.Tuple) bool {
	if i == len(c.Forall) {
		if !evalPreds(c.Cond, b, schema) {
			return true // condition not met; implication holds vacuously
		}
		return c.existsHolds(0, u, schema, b)
	}
	for _, t := range u {
		b[c.Forall[i]] = t
		if !c.forallHolds(i+1, u, schema, b) {
			delete(b, c.Forall[i])
			return false
		}
	}
	delete(b, c.Forall[i])
	return true
}

func (c *Constraint) existsHolds(j int, u []relation.Tuple, schema relation.Schema, b map[string]relation.Tuple) bool {
	if j == len(c.Exists) {
		return evalPreds(c.Conc, b, schema)
	}
	for _, t := range u {
		b[c.Exists[j]] = t
		if c.existsHolds(j+1, u, schema, b) {
			delete(b, c.Exists[j])
			return true
		}
	}
	delete(b, c.Exists[j])
	return false
}

func evalPreds(ps []Pred, b map[string]relation.Tuple, schema relation.Schema) bool {
	for _, p := range ps {
		l, ok := operandValue(p.L, b, schema)
		if !ok {
			return false
		}
		r, ok := operandValue(p.R, b, schema)
		if !ok {
			return false
		}
		eq := value.Equal(l, r)
		if (p.Op == Eq) != eq {
			return false
		}
	}
	return true
}

func operandValue(o Operand, b map[string]relation.Tuple, schema relation.Schema) (value.Value, bool) {
	if !o.IsRef() {
		return o.Const, true
	}
	t, ok := b[o.Var]
	if !ok {
		return value.Value{}, false
	}
	idx := schema.AttrIndex(o.Attr)
	if idx < 0 || idx >= len(t) {
		return value.Value{}, false
	}
	return t[idx], true
}

// Set is a collection Σ of constraints with the Cm width bound m.
type Set struct {
	M           int
	Constraints []*Constraint
}

// NewSet creates a constraint set with bound m (m < 2 is raised to 2, the
// smallest bound the paper considers).
func NewSet(m int) *Set {
	if m < 2 {
		m = 2
	}
	return &Set{M: m}
}

// Add appends a constraint, rejecting those wider than m.
func (s *Set) Add(c *Constraint) error {
	if c.Width() > s.M {
		return fmt.Errorf("compat: constraint width %d exceeds class bound m=%d", c.Width(), s.M)
	}
	s.Constraints = append(s.Constraints, c)
	return nil
}

// MustAdd is Add that panics on error.
func (s *Set) MustAdd(c *Constraint) *Set {
	if err := s.Add(c); err != nil {
		panic(err)
	}
	return s
}

// Validate checks every constraint against the schema.
func (s *Set) Validate(schema relation.Schema) error {
	for _, c := range s.Constraints {
		if err := c.Validate(schema); err != nil {
			return err
		}
	}
	return nil
}

// Satisfies reports U ⊨ Σ: whether U satisfies every constraint. This is
// the PTIME validation step the paper relies on (Section 9).
func (s *Set) Satisfies(u []relation.Tuple, schema relation.Schema) bool {
	if s == nil {
		return true
	}
	for _, c := range s.Constraints {
		if !c.Satisfies(u, schema) {
			return false
		}
	}
	return true
}

// Len reports the number of constraints.
func (s *Set) Len() int {
	if s == nil {
		return 0
	}
	return len(s.Constraints)
}

// ForallOnly reports whether every constraint in the set is universal-only,
// i.e. the whole set is violation-monotone under set extension.
func (s *Set) ForallOnly() bool {
	if s == nil {
		return true
	}
	for _, c := range s.Constraints {
		if !c.ForallOnly() {
			return false
		}
	}
	return true
}
