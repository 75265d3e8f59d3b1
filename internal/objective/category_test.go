package objective

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"reflect"
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

// TestCategoryPlaneRebaseMatchesColdBuild: a chain of rebases of a
// category plane must equal, after every link, a cold build over the new
// answer set, with the category store equal field for field. Links retire
// random answers and sometimes a whole category, and add answers in old
// categories, in categories of their own (new strings, NaN cells) and
// under relevance that is NaN or infinite in half the trials.
func TestCategoryPlaneRebaseMatchesColdBuild(t *testing.T) {
	rng := rand.New(rand.NewSource(184))
	nonFinite := RelevanceFunc(func(t relation.Tuple) float64 {
		switch id := t[0].AsInt(); id % 7 {
		case 0:
			return math.NaN()
		case 1:
			return math.Inf(1)
		case 2:
			return math.Inf(-1)
		default:
			return float64(id%5) - 1
		}
	})
	for trial := 0; trial < 40; trial++ {
		o := categoryObjective()
		if trial%2 == 1 {
			o = New(Mono, nonFinite, CategoryDistance{Col: 1}, 0.5)
		}
		answers := categoryTuples(rng, 2+rng.Intn(40), 0)
		p := NewPlane(o, answers, PlaneOptions{})
		for link := 1; link <= 8; link++ {
			var retired []int
			var want []relation.Tuple
			emptied := p.Categories().Of(rng.Intn(p.Len()))
			for i, tu := range answers {
				if rng.Intn(4) == 0 || (link%3 == 0 && p.Categories().Of(i) == emptied) {
					retired = append(retired, i)
				} else {
					want = append(want, tu)
				}
			}
			added := categoryTuples(rng, rng.Intn(10), int64(1000*link))
			for i := range added {
				if rng.Intn(4) == 0 {
					added[i][1] = value.Str(fmt.Sprintf("new%d", link))
				}
			}
			merged, from := relation.Merge(answers, retired, added)
			answers = sortedTuples(append(want, added...))
			got, err := p.Rebase(context.Background(), merged, from)
			if err != nil {
				t.Fatal(err)
			}
			if got.Len() == 0 {
				break
			}
			cold := NewPlane(o, answers, PlaneOptions{})
			checkCategoryStore(t, got)
			checkPlaneEqual(t, "rebase", got, cold)
			if !reflect.DeepEqual(got.Categories(), cold.Categories()) {
				t.Fatalf("trial %d link %d: rebased store %+v, cold build %+v", trial, link, got.Categories(), cold.Categories())
			}
			p = got
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
