// Differential tests for the category plane: greedy FMS, FMM and mono over
// per-category lists must pick the same answers in the same order, with the
// same value bits, as the flat loops over the same CategoryDistance hidden
// behind a function, which the plane serves from the matrix or directly.
// FuzzCategoryGreedy also holds the walk's step count to the rescanning
// walk it replaced, kept here as a reference.
package approx_test

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
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

// TestCategoryGreedyStopsWhenCancelled runs the walk on a built plane under
// a cancelled context: the walk's own poll must stop FMS and FMM alike.
func TestCategoryGreedyStopsWhenCancelled(t *testing.T) {
	answers := categoryAnswers(rand.New(rand.NewSource(187)), 300, false)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, kind := range []objective.Kind{objective.MaxSum, objective.MaxMin} {
		in := categoryInstance(t, answers, kind, 0.5, 10, false)
		if _, err := GreedyContext(ctx, in); !errors.Is(err, context.Canceled) {
			t.Errorf("%v under a cancelled context: err %v, want context.Canceled", kind, err)
		}
	}
}

// rescanCategoryGreedy is the category walk before frontiers, kept as the
// reference for Steps: every round it rescans each category's unpicked
// answers from the head of its list through the first that scores lower,
// under a used flag per answer. It returns the picks and the steps counted.
// The instance must hold a category plane with finite relevance and a k in
// [1, |Q(D)|].
func rescanCategoryGreedy(in *core.Instance) (ids []int, steps int) {
	p := in.Plane()
	cs := p.Categories()
	o := in.Obj
	used := make([]bool, p.Len())
	picks := make([]int, cs.Count())
	take := func(id int) {
		used[id] = true
		picks[cs.Of(id)]++
		ids = append(ids, id)
	}
	score := func(cat, id int) float64 {
		minDis := 1.0
		if picks[cat] > 0 {
			minDis = 0
		}
		return (1-o.Lambda)*p.Rel(id) + o.Lambda*minDis
	}
	if o.Kind == objective.MaxSum {
		scale := float64(in.K-1) * (1 - o.Lambda)
		score = func(cat, id int) float64 {
			g := scale * p.Rel(id)
			for range len(ids) - picks[cat] {
				g += o.Lambda * 2
			}
			return g
		}
	} else {
		seed, seedRel := -1, math.Inf(-1)
		for cat := range cs.Count() {
			steps++
			id := int(cs.List(cat)[0])
			if r := p.Rel(id); r > seedRel || (r == seedRel && id < seed) {
				seed, seedRel = id, r
			}
		}
		take(seed)
	}
	for len(ids) < in.K {
		bestIdx, bestScore := -1, math.Inf(-1)
		for cat := range cs.Count() {
			cand, first := -1, 0.0
			for _, id32 := range cs.List(cat) {
				id := int(id32)
				if used[id] {
					continue
				}
				steps++
				s := score(cat, id)
				if cand < 0 {
					cand, first = id, s
					continue
				}
				if s != first {
					break
				}
				cand = min(cand, id)
			}
			if cand >= 0 && (first > bestScore || (first == bestScore && cand < bestIdx)) {
				bestIdx, bestScore = cand, first
			}
		}
		if bestIdx < 0 {
			break
		}
		take(bestIdx)
	}
	return ids, steps
}

// fuzzAnswers decodes up to 64 answers (id, cat, rel), two bytes each: the
// first picks the cell from categoryCells, the second the relevance, from
// tiedRelevance when even and otherwise as the raw bits of the next eight
// bytes (NaN and ±Inf included), falling back to tiedRelevance when fewer
// are left.
func fuzzAnswers(data []byte) []relation.Tuple {
	var answers []relation.Tuple
	for len(data) >= 2 && len(answers) < 64 {
		cell, sel := categoryCells[int(data[0])%len(categoryCells)], int(data[1])
		data = data[2:]
		rel := tiedRelevance[(sel>>1)%len(tiedRelevance)]
		if sel&1 == 1 && len(data) >= 8 {
			rel = math.Float64frombits(binary.LittleEndian.Uint64(data))
			data = data[8:]
		}
		answers = append(answers, relation.Tuple{value.Int(int64(len(answers))), cell, value.Float(rel)})
	}
	return answers
}

// FuzzCategoryGreedy holds greedy FMS and FMM on category lists to the flat
// loops (picks and value bits) and, when every relevance is finite, to
// rescanCategoryGreedy (picks and steps), at k from 1 to |Q(D)| + 1 and λ
// in [0, 1]; a λ outside it is folded in, NaN and ±Inf to 1.
func FuzzCategoryGreedy(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte, kSel uint8, lambda float64, maxMin bool) {
		answers := fuzzAnswers(data)
		if len(answers) == 0 {
			return
		}
		k := 1 + int(kSel)%(len(answers)+1)
		if !(lambda >= 0 && lambda <= 1) {
			if lambda = math.Abs(math.Mod(lambda, 1)); math.IsNaN(lambda) {
				lambda = 1
			}
		}
		kind := objective.MaxSum
		if maxMin {
			// The flat FMM loop seeds with the first answer whose
			// relevance beats −∞ and indexes −1 when none does.
			if !slices.ContainsFunc(answers, func(t relation.Tuple) bool { return t[2].AsFloat() > math.Inf(-1) }) {
				return
			}
			kind = objective.MaxMin
		}
		label := fmt.Sprintf("%v k=%d λ=%v", kind, k, lambda)
		in := categoryInstance(t, answers, kind, lambda, k, false)
		got := Greedy(in)
		assertSamePicks(t, label, Greedy(categoryInstance(t, answers, kind, lambda, k, true)), got)
		if !in.Plane().Categories().Finite() || k > len(answers) {
			return
		}
		ids, steps := rescanCategoryGreedy(in)
		if len(ids) != len(got.Set) {
			t.Fatalf("%s: %d picks, the rescanning walk %d", label, len(got.Set), len(ids))
		}
		for i, id := range ids {
			if want := in.Plane().Tuple(id); want.Compare(got.Set[i]) != 0 {
				t.Fatalf("%s: pick %d is %v, the rescanning walk's %v", label, i, got.Set[i], want)
			}
		}
		if got.Steps != steps {
			t.Fatalf("%s: %d steps, the rescanning walk %d", label, got.Steps, steps)
		}
	})
}
