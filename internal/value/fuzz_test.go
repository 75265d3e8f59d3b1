package value

import (
	"math"
	"math/big"
	"strconv"
	"testing"
)

// fuzzValue builds a value from a fuzz input: kind picks an int, a float,
// the float nearest an int (so ints and floats meet at and around equal
// numbers), a string or a bool.
func fuzzValue(kind byte, i int64, f float64) Value {
	switch kind % 5 {
	case 0:
		return Int(i)
	case 1:
		return Float(f)
	case 2:
		return Float(float64(i))
	case 3:
		return Str(strconv.FormatInt(i%3, 10))
	default:
		return Bool(i%2 != 0)
	}
}

// exact returns a number's exact value, ok false for NaN and non-numbers.
func exact(v Value) (*big.Float, bool) {
	switch {
	case v.Kind() == KindInt:
		return new(big.Float).SetInt64(v.AsInt()), true
	case v.Kind() == KindFloat && !math.IsNaN(v.AsFloat()):
		return new(big.Float).SetFloat64(v.AsFloat()), true
	}
	return nil, false
}

// FuzzCompare holds Compare to a total order whose ties are the Key ties:
// antisymmetric, transitive, Compare == 0 exactly when the keys are equal
// (and when Equal holds), equal keys hash alike, and numbers other than
// NaN order as the exact reals they denote.
func FuzzCompare(f *testing.F) {
	f.Fuzz(func(t *testing.T, ka byte, ia int64, fa float64, kb byte, ib int64, fb float64, kc byte, ic int64, fc float64) {
		vs := [3]Value{fuzzValue(ka, ia, fa), fuzzValue(kb, ib, fb), fuzzValue(kc, ic, fc)}
		for _, v := range vs {
			for _, w := range vs {
				c := Compare(v, w)
				if c != -Compare(w, v) {
					t.Fatalf("Compare(%v %v, %v %v) = %d, reversed %d", v.Kind(), v, w.Kind(), w, c, Compare(w, v))
				}
				same := v.Key() == w.Key()
				if (c == 0) != same || Equal(v, w) != same {
					t.Fatalf("Compare(%v %v, %v %v) = %d, Equal %v, keys %q %q", v.Kind(), v, w.Kind(), w, c, Equal(v, w), v.Key(), w.Key())
				}
				if same && v.KeyHash() != w.KeyHash() {
					t.Fatalf("%v %v and %v %v share key %q but hash %x and %x", v.Kind(), v, w.Kind(), w, v.Key(), v.KeyHash(), w.KeyHash())
				}
				if x, ok := exact(v); ok {
					if y, ok := exact(w); ok && x.Cmp(y) != c {
						t.Fatalf("Compare(%v %v, %v %v) = %d, exact order %d", v.Kind(), v, w.Kind(), w, c, x.Cmp(y))
					}
				}
				// v ≤ w ≤ u implies v ≤ u, strictly when either step is.
				for _, u := range vs {
					if c2 := Compare(w, u); c <= 0 && c2 <= 0 && Compare(v, u) != min(c, c2) {
						t.Fatalf("not transitive: %v %v, %v %v, %v %v compare %d, %d and %d", v.Kind(), v, w.Kind(), w, u.Kind(), u, c, c2, Compare(v, u))
					}
				}
			}
		}
	})
}
