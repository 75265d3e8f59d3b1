package objective

import (
	"context"
	"testing"
)

func TestRegimeString(t *testing.T) {
	for r, want := range map[Regime]string{
		RegimeAuto:         "auto",
		RegimeMaterialized: "materialized",
		RegimeIndexed:      "indexed",
		RegimeMemoized:     "memoized",
		RegimeCategory:     "category",
		Regime(99):         "Regime(99)",
	} {
		if got := r.String(); got != want {
			t.Fatalf("Regime(%d).String() = %q, want %q", int(r), got, want)
		}
	}
}

// TestResolveRegime pins the planner's selection table: the auto rule at
// the MaxMatrixBytes boundary, the category rule, and the degradation rules
// for explicit requests.
func TestResolveRegime(t *testing.T) {
	cat := CategoryDistance{Col: 1}
	cases := []struct {
		name      string
		want      Regime
		n         int
		streaming bool
		dis       Distance
		expect    Regime
	}{
		{"auto category at any n", RegimeAuto, 100_000, false, cat, RegimeCategory},
		{"category request is auto", RegimeCategory, 10, false, cat, RegimeCategory},
		{"category request without a category distance", RegimeCategory, 5000, false, nil, RegimeIndexed},
		{"streaming category memoizes", RegimeAuto, 100, true, cat, RegimeMemoized},
		{"explicit matrix over a category distance", RegimeMaterialized, 100, false, cat, RegimeMaterialized},
		{"explicit memo over a category distance", RegimeMemoized, 100, false, cat, RegimeMemoized},
		{"streaming always memoizes", RegimeMaterialized, 100, true, nil, RegimeMemoized},
		{"auto small n fits matrix", RegimeAuto, 1000, false, nil, RegimeMaterialized},
		{"auto largest matrix under guard", RegimeAuto, 4096, false, nil, RegimeMaterialized},
		{"auto indexed just over guard", RegimeAuto, 4097, false, nil, RegimeIndexed},
		{"auto indexed n=5000", RegimeAuto, 5000, false, nil, RegimeIndexed},
		{"auto indexed n=20000", RegimeAuto, 20000, false, nil, RegimeIndexed},
		{"explicit matrix fits", RegimeMaterialized, 1000, false, nil, RegimeMaterialized},
		{"explicit matrix over guard degrades", RegimeMaterialized, 5000, false, nil, RegimeMemoized},
		{"explicit index honored at small n", RegimeIndexed, 100, false, nil, RegimeIndexed},
		{"explicit memo honored", RegimeMemoized, 1000, false, nil, RegimeMemoized},
	}
	for _, c := range cases {
		if got := resolveRegime(c.want, c.n, c.streaming, c.dis); got != c.expect {
			t.Fatalf("%s: resolveRegime(%v, n=%d, streaming=%v) = %v, want %v",
				c.name, c.want, c.n, c.streaming, got, c.expect)
		}
	}
}

// TestIndexedMaxDisBound pins the indexed regime's O(n) max-distance bound:
// admissible (never under the true maximum) and within the triangle
// inequality's factor 2.
func TestIndexedMaxDisBound(t *testing.T) {
	const n = 500
	answers := planeAnswers(n)
	o := New(MaxSum, nil, EuclideanDistance(), 0.5)
	p := NewPlane(o, answers, PlaneOptions{Regime: RegimeIndexed})
	if p.Regime() != RegimeIndexed {
		t.Fatalf("regime = %v", p.Regime())
	}
	bound, err := p.MaxDisBoundContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	trueMax := 0.0
	for j := 1; j < n; j++ {
		for i := 0; i < j; i++ {
			if d := o.Dis.Dis(answers[i], answers[j]); d > trueMax {
				trueMax = d
			}
		}
	}
	if bound < trueMax {
		t.Fatalf("indexed max-dis bound %v < true max %v (not admissible)", bound, trueMax)
	}
	if trueMax > 0 && bound > 2*trueMax {
		t.Fatalf("indexed max-dis bound %v looser than 2x the true max %v", bound, trueMax)
	}
	// A filled store knows the exact maximum; the bound must return it.
	q := NewPlane(o, answers, PlaneOptions{Regime: RegimeMaterialized})
	if _, err := q.MaterializeContext(context.Background()); err != nil {
		t.Fatal(err)
	}
	exact, err := q.MaxDisBoundContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if exact != trueMax {
		t.Fatalf("materialized max-dis bound %v != true max %v", exact, trueMax)
	}
}
