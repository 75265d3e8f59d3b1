package objective

import (
	"context"
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"repro/internal/relation"
	"repro/internal/value"
)

// categoryTuples draws n sorted, distinct (id, cell) answers with cells
// from a pool of mixed kinds, NaN, both zeros and both infinities.
func categoryTuples(rng *rand.Rand, n int, idBase int64) []relation.Tuple {
	pool := []value.Value{
		value.Int(1), value.Int(2), value.Float(1), value.Float(0), value.Float(math.Copysign(0, -1)),
		value.Float(math.NaN()), value.Float(math.Inf(1)), value.Float(math.Inf(-1)),
		value.Str("x"), value.Str("y"), value.Bool(true), value.Bool(false),
	}
	out := make([]relation.Tuple, n)
	for i := range out {
		out[i] = relation.Tuple{value.Int(idBase + int64(i)), pool[rng.Intn(len(pool))]}
	}
	return sortedTuples(out)
}

// categoryObjective scores relevance from the id with ties and negative
// values, and δdis with the category distance on column 1.
func categoryObjective() *Objective {
	rel := RelevanceFunc(func(t relation.Tuple) float64 { return float64(t[0].AsInt()%5) - 1 })
	return New(Mono, rel, CategoryDistance{Col: 1}, 0.5)
}

// checkCategoryStore asserts p's lists partition its IDs by δdis, each
// ordered by δrel descending, then ID ascending.
func checkCategoryStore(t *testing.T, p *Plane) {
	t.Helper()
	cs := p.Categories()
	if cs == nil || p.Regime() != RegimeCategory {
		t.Fatalf("regime %v, store %v: want a category plane", p.Regime(), cs)
	}
	seen := 0
	for c := range cs.Count() {
		list := cs.List(c)
		seen += len(list)
		for i, id := range list {
			if cs.Of(int(id)) != c || p.Dis(int(id), int(list[0])) != 0 {
				t.Fatalf("id %d listed in category %d, belongs to %d", id, c, cs.Of(int(id)))
			}
			if i > 0 {
				a, b := list[i-1], id
				if ra, rb := p.Rel(int(a)), p.Rel(int(b)); ra < rb || (ra == rb && a > b) {
					t.Fatalf("category %d: %d (rel %v) listed before %d (rel %v)", c, a, ra, b, rb)
				}
			}
		}
	}
	if seen != p.Len() {
		t.Fatalf("lists hold %d ids, plane has %d", seen, p.Len())
	}
}

// TestCategoryPlaneMatchesFlatPlane: the category store must serve the
// same distances, row sums and maximum as the same CategoryDistance on
// the matrix and the memo cache, with no pair stored.
func TestCategoryPlaneMatchesFlatPlane(t *testing.T) {
	rng := rand.New(rand.NewSource(183))
	o := categoryObjective()
	for trial := 0; trial < 20; trial++ {
		answers := categoryTuples(rng, 1+rng.Intn(60), 0)
		p := NewPlane(o, answers, PlaneOptions{})
		checkCategoryStore(t, p)
		for _, regime := range []Regime{RegimeMaterialized, RegimeMemoized} {
			flat := NewPlane(o, answers, PlaneOptions{Regime: regime})
			flat.Materialize()
			checkPlaneEqual(t, regime.String(), p, flat)
		}
		if p.Materialized() {
			t.Fatal("a category plane filled a matrix")
		}
		if entries, _ := p.MemoStats(); entries != 0 {
			t.Fatalf("a category plane memoized %d pairs", entries)
		}
		if foot, bound := p.MemoryFootprint(), int64(64*p.Len()+64); foot > bound {
			t.Fatalf("footprint %d B over the O(n) bound %d B", foot, bound)
		}
	}
}

// TestCategoryPlaneRebaseMatchesColdBuild: a rebased category plane must
// equal a cold build over the new answer set, lists included.
func TestCategoryPlaneRebaseMatchesColdBuild(t *testing.T) {
	rng := rand.New(rand.NewSource(184))
	o := categoryObjective()
	for trial := 0; trial < 20; trial++ {
		base := categoryTuples(rng, 2+rng.Intn(40), 0)
		p := NewPlane(o, base, PlaneOptions{})
		var retired []int
		var want []relation.Tuple
		for i, tu := range base {
			if rng.Intn(3) == 0 {
				retired = append(retired, i)
			} else {
				want = append(want, tu)
			}
		}
		added := categoryTuples(rng, rng.Intn(10), 1000)
		want = sortedTuples(append(want, added...))
		got, err := p.Rebase(context.Background(), added, retired)
		if err != nil {
			t.Fatal(err)
		}
		cold := NewPlane(o, want, PlaneOptions{})
		checkCategoryStore(t, got)
		checkPlaneEqual(t, "rebase", got, cold)
		gc, cc := got.Categories(), cold.Categories()
		if gc.Count() != cc.Count() {
			t.Fatalf("rebased plane has %d categories, cold build %d", gc.Count(), cc.Count())
		}
		for c := range cc.Count() {
			if !slices.Equal(gc.List(c), cc.List(c)) {
				t.Fatalf("category %d: rebased list %v, cold %v", c, gc.List(c), cc.List(c))
			}
		}
	}
}

// TestCategoryPlaneConcurrentReaders shares one category plane across
// goroutines that fill and read its row sums and distances at once, as the
// solvers of concurrent requests do.
func TestCategoryPlaneConcurrentReaders(t *testing.T) {
	answers := categoryTuples(rand.New(rand.NewSource(185)), 80, 0)
	o := categoryObjective()
	p := NewPlane(o, answers, PlaneOptions{})
	flat := NewPlane(o, answers, PlaneOptions{Regime: RegimeMemoized})
	want, err := flat.RowSums(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sums, err := p.RowSums(context.Background())
			if err != nil || !slices.Equal(sums, want) {
				t.Errorf("RowSums = %v, %v; want %v", sums, err, want)
				return
			}
			for i := range answers {
				for j := range answers {
					if i != j && p.Dis(i, j) != o.Dis.Dis(answers[i], answers[j]) {
						t.Errorf("Dis(%d,%d) = %v", i, j, p.Dis(i, j))
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}
