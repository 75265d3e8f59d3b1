package objective

import (
	"testing"
)

func TestRegimeString(t *testing.T) {
	for r, want := range map[Regime]string{
		RegimeMaterialized: "materialized",
		RegimeDirect:       "direct",
		RegimeCategory:     "category",
		Regime(99):         "Regime(99)",
	} {
		if got := r.String(); got != want {
			t.Fatalf("Regime(%d).String() = %q, want %q", int(r), got, want)
		}
	}
}

// TestResolveRegime pins the planner's selection table: the category rule,
// the streaming rule and the matrix rule at the MaxMatrixBytes boundary.
func TestResolveRegime(t *testing.T) {
	cat := CategoryDistance{Col: 1}
	cases := []struct {
		name      string
		n         int
		streaming bool
		dis       Distance
		expect    Regime
	}{
		{"category at any n", 100_000, false, cat, RegimeCategory},
		{"small category", 10, false, cat, RegimeCategory},
		{"streaming category evaluates directly", 100, true, cat, RegimeDirect},
		{"streaming always evaluates directly", 100, true, nil, RegimeDirect},
		{"small n fits matrix", 1000, false, nil, RegimeMaterialized},
		{"largest matrix under guard", 4096, false, nil, RegimeMaterialized},
		{"direct just over guard", 4097, false, nil, RegimeDirect},
		{"direct n=20000", 20000, false, nil, RegimeDirect},
		{"a category distance behind a function is opaque", 100, false, DistanceFunc(cat.Dis), RegimeMaterialized},
	}
	for _, c := range cases {
		if got := resolveRegime(c.n, c.streaming, c.dis); got != c.expect {
			t.Fatalf("%s: resolveRegime(n=%d, streaming=%v) = %v, want %v",
				c.name, c.n, c.streaming, got, c.expect)
		}
	}
}
