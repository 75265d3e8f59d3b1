// Differential tests for the category plane: greedy FMS, FMM and mono over
// per-category lists must pick the same answers in the same order, with the
// same value bits, as the flat loops over the same CategoryDistance hidden
// behind a function, which the plane serves from the matrix or directly.
package approx_test

import (
	"context"
	"math"
	"math/rand"
	"sync"
	"testing"

	. "repro/internal/approx"

	"repro/internal/core"
	"repro/internal/objective"
	"repro/internal/relation"
	"repro/internal/value"
)

// categoryCells is the pool category cells are drawn from: mixed kinds,
// NaNs (each its own category), both zeros (one category), and int 1 beside
// float 1.0 (two categories).
var categoryCells = []value.Value{
	value.Int(0), value.Int(1), value.Int(2), value.Int(-7),
	value.Float(1), value.Float(0), value.Float(math.Copysign(0, -1)), value.Float(math.NaN()),
	value.Float(2.5), value.Float(math.Inf(1)), value.Float(math.Inf(-1)),
	value.Str("a"), value.Str("b"), value.Str(""), value.Bool(true), value.Bool(false),
}

// tiedRelevance is a relevance pool with exact ties, negative values, both
// zeros, neighbours that collapse once scaled and offset (1e-17 and 2e-17
// give the same FMS gain after λ·2 = 1 is added), and finite extremes whose
// scaled gains overflow to ±Inf.
var tiedRelevance = []float64{
	0, math.Copysign(0, -1), 1, 1, -1, 0.5, 1e-17, 2e-17, 3e-17, 1 + 1e-16, 1e-300, -2e-17, 3, 3,
	math.MaxFloat64, -math.MaxFloat64,
}

// categoryAnswers draws n answers (id, cat, rel): cat from a random subset
// of categoryCells, so partitions range from one category to many, and rel
// from tiedRelevance or uniformly.
func categoryAnswers(rng *rand.Rand, n int, nonFinite bool) []relation.Tuple {
	cells := categoryCells[:1+rng.Intn(len(categoryCells))]
	answers := make([]relation.Tuple, n)
	for i := range answers {
		rel := rng.Float64()*4 - 1
		if rng.Intn(3) > 0 {
			rel = tiedRelevance[rng.Intn(len(tiedRelevance))]
		}
		if nonFinite && rng.Intn(10) == 0 {
			rel = []float64{math.NaN(), math.Inf(1), math.Inf(-1)}[rng.Intn(3)]
		}
		answers[i] = relation.Tuple{value.Int(int64(i)), cells[rng.Intn(len(cells))], value.Float(rel)}
	}
	return answers
}

// categoryInstance builds an instance over answers scored by δrel = column
// 2 (unclamped, so negative and non-finite values reach the solvers) and the
// category distance on column 1: on category lists, or with flat set on
// the flat loops, the distance's type hidden behind a function.
func categoryInstance(t *testing.T, answers []relation.Tuple, kind objective.Kind, lambda float64, k int, flat bool) *core.Instance {
	t.Helper()
	rel := objective.RelevanceFunc(func(t relation.Tuple) float64 { return t[2].AsFloat() })
	var dis objective.Distance = objective.CategoryDistance{Col: 1}
	if flat {
		dis = objective.DistanceFunc(dis.Dis)
	}
	in := &core.Instance{Obj: objective.New(kind, rel, dis, lambda), K: k}
	in.SetAnswers(answers)
	p, err := in.PlaneContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if got := p.Regime() == objective.RegimeCategory; got == flat {
		t.Fatalf("flat=%v plane resolved to %v", flat, p.Regime())
	}
	return in
}

// assertSamePicks requires the same tuples in the same pick order and the
// same value bits. Step counts differ by design.
func assertSamePicks(t *testing.T, label string, want, got Result) {
	t.Helper()
	if len(want.Set) != len(got.Set) {
		t.Fatalf("%s: %d picks, want %d", label, len(got.Set), len(want.Set))
	}
	for i := range want.Set {
		if want.Set[i].Compare(got.Set[i]) != 0 {
			t.Fatalf("%s: pick %d is %v, want %v", label, i, got.Set[i], want.Set[i])
		}
	}
	if math.Float64bits(want.Value) != math.Float64bits(got.Value) {
		t.Fatalf("%s: value %v, want %v (bit-identical)", label, got.Value, want.Value)
	}
}

// TestCategoryGreedyMatchesFlatLoops runs every greedy family on random
// partitions at every k from 1 to n and λ ∈ {0, ½, 1, random}.
func TestCategoryGreedyMatchesFlatLoops(t *testing.T) {
	rng := rand.New(rand.NewSource(181))
	kinds := []objective.Kind{objective.MaxSum, objective.MaxMin, objective.Mono}
	for trial := 0; trial < 60; trial++ {
		n := 1 + rng.Intn(24)
		answers := categoryAnswers(rng, n, trial%5 == 4)
		lambda := []float64{0, 0.5, 1, rng.Float64()}[trial%4]
		for k := 1; k <= n; k++ {
			for _, kind := range kinds {
				flat := Greedy(categoryInstance(t, answers, kind, lambda, k, true))
				cat := Greedy(categoryInstance(t, answers, kind, lambda, k, false))
				assertSamePicks(t, kind.String(), flat, cat)
			}
		}
	}
}

// TestCategoryGreedyCollapsedGains forces the case where only a walk past
// a category's head finds the flat loop's pick: relevances that differ
// but score the same once scaled and offset, with the lower relevance on
// the lower ID.
func TestCategoryGreedyCollapsedGains(t *testing.T) {
	rng := rand.New(rand.NewSource(182))
	for trial := 0; trial < 200; trial++ {
		n := 2 + rng.Intn(12)
		answers := make([]relation.Tuple, n)
		for i := range answers {
			rel := float64(1+rng.Intn(4)) * 1e-17
			answers[i] = relation.Tuple{value.Int(int64(i)), value.Int(int64(rng.Intn(3))), value.Float(rel)}
		}
		lambda := []float64{0.5, 1 - 1e-17, rng.Float64()}[trial%3]
		k := 1 + rng.Intn(n)
		for _, kind := range []objective.Kind{objective.MaxSum, objective.MaxMin} {
			flat := Greedy(categoryInstance(t, answers, kind, lambda, k, true))
			cat := Greedy(categoryInstance(t, answers, kind, lambda, k, false))
			assertSamePicks(t, kind.String(), flat, cat)
		}
	}
}

// TestCategoryGreedyConcurrentSolves runs greedy solves of different kinds
// and λ at once over one shared category plane, as concurrent requests on
// a prepared statement do; each must match its sequential twin.
func TestCategoryGreedyConcurrentSolves(t *testing.T) {
	answers := categoryAnswers(rand.New(rand.NewSource(186)), 200, false)
	shared := categoryInstance(t, answers, objective.MaxSum, 0.5, 7, false).Plane()
	ins := make([]*core.Instance, 8)
	want := make([]Result, len(ins))
	for g := range ins {
		kind := []objective.Kind{objective.MaxSum, objective.MaxMin}[g%2]
		ins[g] = categoryInstance(t, answers, kind, float64(g)/8, 7, false)
		ins[g].SetPlane(shared)
		want[g] = Greedy(ins[g])
	}
	var wg sync.WaitGroup
	got := make([]Result, len(ins))
	for g := range ins {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			got[g] = Greedy(ins[g])
		}(g)
	}
	wg.Wait()
	for g := range got {
		assertSamePicks(t, "concurrent", want[g], got[g])
	}
}
