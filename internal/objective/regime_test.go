package objective

import (
	"context"
	"testing"
)

func TestRegimeStringParseRoundTrip(t *testing.T) {
	for _, r := range []Regime{RegimeAuto, RegimeMaterialized, RegimeIndexed, RegimeMemoized} {
		got, err := ParseRegime(r.String())
		if err != nil || got != r {
			t.Fatalf("round-trip %v: got %v, %v", r, got, err)
		}
	}
	if r, err := ParseRegime(""); err != nil || r != RegimeAuto {
		t.Fatalf("empty string: got %v, %v, want auto", r, err)
	}
	for _, name := range []string{"bogus", "tiled"} {
		if _, err := ParseRegime(name); err == nil {
			t.Fatalf("ParseRegime accepted %q", name)
		}
	}
	if s := Regime(99).String(); s != "Regime(99)" {
		t.Fatalf("out-of-range String() = %q", s)
	}
}

// TestResolveRegime pins the planner's selection table: the guard bands of
// the auto walk and the degradation rules for explicit requests.
func TestResolveRegime(t *testing.T) {
	const guard = DefaultMaxMatrixBytes // 64 MiB
	cases := []struct {
		name      string
		want      Regime
		n         int
		maxBytes  int64
		streaming bool
		expect    Regime
	}{
		{"streaming always memoizes", RegimeMaterialized, 100, guard, true, RegimeMemoized},
		{"auto small n fits matrix", RegimeAuto, 1000, guard, false, RegimeMaterialized},
		{"auto largest matrix under guard", RegimeAuto, 4096, guard, false, RegimeMaterialized},
		{"auto indexed just over guard", RegimeAuto, 4097, guard, false, RegimeIndexed},
		{"auto indexed n=5000", RegimeAuto, 5000, guard, false, RegimeIndexed},
		{"auto indexed n=20000", RegimeAuto, 20000, guard, false, RegimeIndexed},
		{"auto small n tight guard memoizes", RegimeAuto, 100, 8, false, RegimeMemoized},
		{"explicit matrix fits", RegimeMaterialized, 1000, guard, false, RegimeMaterialized},
		{"explicit matrix over guard degrades", RegimeMaterialized, 5000, guard, false, RegimeMemoized},
		{"explicit index honored below IndexedMinN", RegimeIndexed, 100, guard, false, RegimeIndexed},
		{"explicit memo honored", RegimeMemoized, 1000, guard, false, RegimeMemoized},
	}
	for _, c := range cases {
		if got := resolveRegime(c.want, c.n, c.maxBytes, c.streaming); got != c.expect {
			t.Fatalf("%s: resolveRegime(%v, n=%d, guard=%d, streaming=%v) = %v, want %v",
				c.name, c.want, c.n, c.maxBytes, c.streaming, got, c.expect)
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
