// Differential tests for the plane regimes: the indexed regime must
// reproduce the materialized plane's greedy selections — byte-identical
// sets, values and step counts for greedy max-min and for greedy max-sum
// under the LAESA bounds, on real-valued and tie-heavy integer distances.
// Rebase must land on the same plane a cold build at the new generation
// would produce, in every regime and across the matrix↔index boundary.
package approx_test

import (
	"context"
	"math/rand"
	"testing"

	. "repro/internal/approx"

	"repro/internal/core"
	"repro/internal/objective"
	"repro/internal/query"
	"repro/internal/relation"
)

// regimePoints draws n random dim-column integer points on a side×side grid.
func regimePoints(rng *rand.Rand, n, dim, side int) []relation.Tuple {
	cols := make([]string, dim)
	for i := range cols {
		cols[i] = string(rune('a' + i))
	}
	pts := make([]relation.Tuple, n)
	for i := range pts {
		vals := make([]int64, dim)
		for d := range vals {
			vals[d] = rng.Int63n(int64(side))
		}
		pts[i] = relation.Ints(vals...)
	}
	return pts
}

// regimeInstance builds an identity-query instance over pts with the given
// distance, forcing the requested plane regime and building its store (an
// instance-level plane is lazy by default; without EnsureReadyContext the
// matrix regime would silently serve from the memo cache and the
// differential tests would compare nothing).
func regimeInstance(t *testing.T, pts []relation.Tuple, dim int, dis objective.Distance, kind objective.Kind, lambda float64, k int, regime objective.Regime) *core.Instance {
	t.Helper()
	cols := make([]string, dim)
	for i := range cols {
		cols[i] = string(rune('a' + i))
	}
	r := relation.NewRelation(relation.NewSchema("P", cols...))
	for _, t := range pts {
		r.Insert(t)
	}
	db := relation.NewDatabase().Add(r)
	obj := objective.New(kind, objective.AttrRelevance(0, 0.01), dis, lambda)
	in := &core.Instance{
		Query:       query.IdentityQuery("P", dim),
		DB:          db,
		Obj:         obj,
		K:           k,
		PlaneRegime: regime,
	}
	p, err := in.PlaneContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if err := p.EnsureReadyContext(context.Background()); err != nil {
		t.Fatal(err)
	}
	if regime != objective.RegimeAuto && p.Regime() != regime {
		t.Fatalf("requested regime %v resolved to %v", regime, p.Regime())
	}
	return in
}

// assertSameResult requires two heuristic results to agree bit for bit:
// same tuples in the same pick order, the exact same float value, the same
// number of candidate evaluations.
func assertSameResult(t *testing.T, label string, want, got Result) {
	t.Helper()
	assertSamePicks(t, label, want, got)
	if want.Steps != got.Steps {
		t.Fatalf("%s: steps %d != %d (scan accounting must match)", label, got.Steps, want.Steps)
	}
}

func TestIndexedGreedyMaxMinByteIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(91))
	for trial := 0; trial < 8; trial++ {
		n := []int{60, 300, 1200}[trial%3]
		dim := 2 + trial%3
		lambda := []float64{0, 0.3, 0.7, 1}[trial%4]
		k := 2 + trial%9
		pts := regimePoints(rng, n, dim, 50)
		flat := GreedyMaxMin(regimeInstance(t, pts, dim, objective.EuclideanDistance(), objective.MaxMin, lambda, k, objective.RegimeMaterialized))
		idx := GreedyMaxMin(regimeInstance(t, pts, dim, objective.EuclideanDistance(), objective.MaxMin, lambda, k, objective.RegimeIndexed))
		assertSameResult(t, "max-min indexed", flat, idx)
	}
}

func TestIndexedGreedyMaxSumByteIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(92))
	for trial := 0; trial < 8; trial++ {
		n := []int{60, 300, 1200}[trial%3]
		dim := 2 + trial%3
		lambda := []float64{0, 0.3, 0.7, 1}[trial%4]
		k := 2 + trial%9
		pts := regimePoints(rng, n, dim, 50)
		flat := GreedyMaxSum(regimeInstance(t, pts, dim, objective.EuclideanDistance(), objective.MaxSum, lambda, k, objective.RegimeMaterialized))
		idx := GreedyMaxSum(regimeInstance(t, pts, dim, objective.EuclideanDistance(), objective.MaxSum, lambda, k, objective.RegimeIndexed))
		assertSameResult(t, "max-sum indexed", flat, idx)
	}
}

func TestIndexedGreedyByteIdenticalOnIntegerDistances(t *testing.T) {
	// Hamming distances over a small alphabet are small integers, so most
	// candidate scores tie: the index's pruned scans must still break every
	// tie exactly as the materialized plane's full scans do.
	rng := rand.New(rand.NewSource(93))
	for trial := 0; trial < 6; trial++ {
		n := 80 + 40*trial
		const dim = 4
		lambda := []float64{0, 0.5, 1}[trial%3]
		k := 3 + trial
		pts := regimePoints(rng, n, dim, 5)
		ham := objective.HammingDistance()
		flatSum := GreedyMaxSum(regimeInstance(t, pts, dim, ham, objective.MaxSum, lambda, k, objective.RegimeMaterialized))
		idxSum := GreedyMaxSum(regimeInstance(t, pts, dim, ham, objective.MaxSum, lambda, k, objective.RegimeIndexed))
		assertSameResult(t, "max-sum indexed", flatSum, idxSum)
		flatMin := GreedyMaxMin(regimeInstance(t, pts, dim, ham, objective.MaxMin, lambda, k, objective.RegimeMaterialized))
		idxMin := GreedyMaxMin(regimeInstance(t, pts, dim, ham, objective.MaxMin, lambda, k, objective.RegimeIndexed))
		assertSameResult(t, "max-min indexed", flatMin, idxMin)
	}
}

// assertRebaseMatchesCold requires a rebased plane to resolve the regime a
// cold build over its answers resolves, and to drive greedy max-min and
// max-sum to bit-identical results.
func assertRebaseMatchesCold(t *testing.T, label string, rebased *objective.Plane, dim, k int, regime objective.Regime) {
	t.Helper()
	ctx := context.Background()
	answers := rebased.Answers()
	for _, kind := range []objective.Kind{objective.MaxMin, objective.MaxSum} {
		cold := regimeInstance(t, answers, dim, objective.EuclideanDistance(), kind, 0.5, k, regime)
		coldPlane, err := cold.PlaneContext(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := rebased.Regime(), coldPlane.Regime(); got != want {
			t.Fatalf("%s: rebased regime %v != cold %v", label, got, want)
		}
		warm := regimeInstance(t, answers, dim, objective.EuclideanDistance(), kind, 0.5, k, regime)
		warm.SetAnswers(answers)
		warm.SetPlane(rebased)
		solve := GreedyMaxMinContext
		if kind == objective.MaxSum {
			solve = GreedyMaxSumContext
		}
		want, err := solve(ctx, cold)
		if err != nil {
			t.Fatal(err)
		}
		got, err := solve(ctx, warm)
		if err != nil {
			t.Fatal(err)
		}
		assertSameResult(t, label+" "+kind.String(), want, got)
	}
}

// TestRebaseEquivalentToColdBuildPerRegime: after insert and delete
// batches, a rebased plane must drive the greedy solvers to the exact
// results of a plane built cold over the merged answer set — in each of the
// three non-streaming regimes.
func TestRebaseEquivalentToColdBuildPerRegime(t *testing.T) {
	for _, regime := range []objective.Regime{
		objective.RegimeMaterialized, objective.RegimeIndexed, objective.RegimeMemoized,
	} {
		rng := rand.New(rand.NewSource(95))
		const n, dim, k = 240, 3, 7
		pts := regimePoints(rng, n, dim, 40)
		in := regimeInstance(t, pts, dim, objective.EuclideanDistance(), objective.MaxMin, 0.5, k, regime)
		base, err := in.PlaneContext(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		answers := base.Answers()

		// Retire every 5th answer and add a batch of fresh sorted tuples.
		var retired []int
		for id := 0; id < len(answers); id += 5 {
			retired = append(retired, id)
		}
		addSet := relation.NewRelation(relation.NewSchema("A", "a", "b", "c"))
		for _, tp := range regimePoints(rng, 60, dim, 40) {
			addSet.Insert(tp)
		}
		added := addSet.Sorted() // sorted + deduped, as Rebase requires
		rebased, err := base.Rebase(context.Background(), added, retired)
		if err != nil {
			t.Fatal(err)
		}
		assertRebaseMatchesCold(t, "rebase "+regime.String(), rebased, dim, k, regime)
	}
}

// TestRebaseAcrossMatrixIndexBoundary walks a plane across the default
// guard: the matrix holds n = 4096 answers, so extending by a few tips auto
// over to the metric index and retiring back re-materializes — each step
// resolving and solving exactly like a cold build at the new size.
func TestRebaseAcrossMatrixIndexBoundary(t *testing.T) {
	ctx := context.Background()
	const limit, dim, k = 4096, 2, 8 // the largest n whose matrix fits objective.MaxMatrixBytes
	rng := rand.New(rand.NewSource(96))
	point := func(x int) relation.Tuple { return relation.Ints(int64(x), rng.Int63n(1000)) }
	pts := make([]relation.Tuple, limit)
	for i := range pts {
		pts[i] = point(i)
	}
	in := regimeInstance(t, pts, dim, objective.EuclideanDistance(), objective.MaxMin, 0.5, k, objective.RegimeAuto)
	base, err := in.PlaneContext(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if base.Regime() != objective.RegimeMaterialized || !base.Materialized() {
		t.Fatalf("n=%d: regime %v (materialized=%v), want a filled matrix", base.Len(), base.Regime(), base.Materialized())
	}

	added := []relation.Tuple{point(limit), point(limit + 1), point(limit + 2)}
	grown, err := base.Extend(ctx, added)
	if err != nil {
		t.Fatal(err)
	}
	if err := grown.EnsureReadyContext(ctx); err != nil {
		t.Fatal(err)
	}
	if grown.Regime() != objective.RegimeIndexed {
		t.Fatalf("n=%d: rebased regime %v, want indexed", grown.Len(), grown.Regime())
	}
	assertRebaseMatchesCold(t, "extend over guard", grown, dim, k, objective.RegimeAuto)

	// Retire the added answers plus one original: n = 4095.
	retired := []int{0, limit, limit + 1, limit + 2}
	shrunk, err := grown.Retire(ctx, retired)
	if err != nil {
		t.Fatal(err)
	}
	if err := shrunk.EnsureReadyContext(ctx); err != nil {
		t.Fatal(err)
	}
	if shrunk.Regime() != objective.RegimeMaterialized || !shrunk.Materialized() {
		t.Fatalf("n=%d: rebased regime %v (materialized=%v), want a filled matrix", shrunk.Len(), shrunk.Regime(), shrunk.Materialized())
	}
	assertRebaseMatchesCold(t, "retire under guard", shrunk, dim, k, objective.RegimeAuto)
}
