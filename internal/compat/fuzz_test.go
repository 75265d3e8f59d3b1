package compat

import (
	"math"
	"reflect"
	"testing"
)

// sameConstraint reports whether two constraints are deep-equal with every
// constant of the same kind and bits (a float's sign included).
func sameConstraint(a, b *Constraint) bool {
	if !reflect.DeepEqual(a, b) {
		return false
	}
	for _, ps := range [][2][]Pred{{a.Cond, b.Cond}, {a.Conc, b.Conc}} {
		for i := range ps[0] {
			for _, o := range [][2]Operand{{ps[0][i].L, ps[1][i].L}, {ps[0][i].R, ps[1][i].R}} {
				if math.Float64bits(o[0].Const.AsFloat()) != math.Float64bits(o[1].Const.AsFloat()) {
					return false
				}
			}
		}
	}
	return true
}

// FuzzConstraintRoundTrip: a constraint that parses must render, through
// String, to text that parses back to the same constraint. The checked-in
// corpus holds the renderings that once broke the trip: an integral float
// printed as an int (1.0 as 1), a float printed with an exponent (1e+20,
// which the operand scanner stops reading at the e), and a backslash that
// rendering escaped and parsing kept, doubling it on every trip.
func FuzzConstraintRoundTrip(f *testing.F) {
	f.Add(`forall t1, t2 (t1.item = "a", t2.item = "b" -> exists s (s.item = "c"))`)
	f.Add(`forall t (t.id = "CS450" -> exists p1, p2 (p1.id = "CS220", p2.id = "CS350"))`)
	f.Add(`forall t1, t2 (t1.pos = "center", t2.pos = "center", t1.id != t2.id -> t1.id = t2.id)`)
	f.Add(`exists s (s.stock != -3 and s.open = true)`)
	f.Fuzz(func(t *testing.T, src string) {
		c, err := Parse(src)
		if err != nil {
			return
		}
		text := c.String()
		back, err := Parse(text)
		if err != nil {
			t.Fatalf("%q renders as %q, which does not parse: %v", src, text, err)
		}
		if !sameConstraint(back, c) {
			t.Fatalf("%q renders as %q, which reparses as %q", src, text, back)
		}
	})
}
