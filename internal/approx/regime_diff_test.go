// Differential tests for the plane stores under Rebase: a rebased plane
// must land on the plane a cold build at the new generation would produce,
// on the matrix, on the direct store and across the matrix guard between
// them, driving the greedy solvers to byte-identical sets, values and step
// counts.
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

// regimeInstance builds an identity-query instance over pts under
// Euclidean distance and fills its plane's matrix when the planner picked one (an
// instance-level plane is lazy by default, and until the fill its matrix
// regime evaluates δdis directly, so a matrix comparison would compare
// nothing).
func regimeInstance(t *testing.T, pts []relation.Tuple, dim int, kind objective.Kind, lambda float64, k int) *core.Instance {
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
	obj := objective.New(kind, objective.AttrRelevance(0, 0.01), objective.EuclideanDistance(), lambda)
	in := &core.Instance{Query: query.IdentityQuery("P", dim), DB: db, Obj: obj, K: k}
	p, err := in.PlaneContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.MaterializeContext(context.Background()); err != nil {
		t.Fatal(err)
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

// assertRebaseMatchesCold requires a rebased plane to resolve the regime a
// cold build over its answers resolves, and to drive greedy max-min and
// max-sum to bit-identical results.
func assertRebaseMatchesCold(t *testing.T, label string, rebased *objective.Plane, dim, k int) {
	t.Helper()
	ctx := context.Background()
	answers := rebased.Answers()
	for _, kind := range []objective.Kind{objective.MaxMin, objective.MaxSum} {
		cold := regimeInstance(t, answers, dim, kind, 0.5, k)
		coldPlane, err := cold.PlaneContext(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := rebased.Regime(), coldPlane.Regime(); got != want {
			t.Fatalf("%s: rebased regime %v != cold %v", label, got, want)
		}
		warm := regimeInstance(t, answers, dim, kind, 0.5, k)
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
// results of a plane built cold over the merged answer set — on the matrix
// and, with answers to spare over the guard on both sides of the rebase, on
// the direct store.
func TestRebaseEquivalentToColdBuildPerRegime(t *testing.T) {
	for _, arm := range []struct {
		n      int
		regime objective.Regime
	}{{240, objective.RegimeMaterialized}, {6000, objective.RegimeDirect}} {
		rng := rand.New(rand.NewSource(95))
		const dim, k = 3, 7
		pts := regimePoints(rng, arm.n, dim, 40)
		in := regimeInstance(t, pts, dim, objective.MaxMin, 0.5, k)
		base, err := in.PlaneContext(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if base.Regime() != arm.regime {
			t.Fatalf("n=%d: regime %v, want %v", base.Len(), base.Regime(), arm.regime)
		}
		answers := base.Answers()

		// Retire every 5th answer and add a batch of fresh sorted tuples.
		var retired []int
		for id := 0; id < len(answers); id += 5 {
			retired = append(retired, id)
		}
		addSet := relation.NewRelation(relation.NewSchema("A", "a", "b", "c"))
		for _, tp := range regimePoints(rng, 60, dim, 40) {
			if _, held := relation.Search(answers, tp); !held {
				addSet.Insert(tp)
			}
		}
		added := addSet.Sorted() // sorted, deduped and new, as Merge requires
		merged, from := relation.Merge(answers, retired, added)
		rebased, err := base.Rebase(context.Background(), merged, from)
		if err != nil {
			t.Fatal(err)
		}
		if rebased.Regime() != arm.regime {
			t.Fatalf("n=%d: rebased regime %v, want %v", rebased.Len(), rebased.Regime(), arm.regime)
		}
		assertRebaseMatchesCold(t, "rebase "+arm.regime.String(), rebased, dim, k)
	}
}

// TestRebaseAcrossMatrixGuard walks a plane across the default guard: the
// matrix holds n = 4096 answers, so extending by a few tips the plane over
// to direct evaluation and retiring back re-materializes — each step
// resolving and solving exactly like a cold build at the new size.
func TestRebaseAcrossMatrixGuard(t *testing.T) {
	ctx := context.Background()
	const limit, dim, k = 4096, 2, 8 // the largest n whose matrix fits objective.MaxMatrixBytes
	rng := rand.New(rand.NewSource(96))
	point := func(x int) relation.Tuple { return relation.Ints(int64(x), rng.Int63n(1000)) }
	pts := make([]relation.Tuple, limit)
	for i := range pts {
		pts[i] = point(i)
	}
	in := regimeInstance(t, pts, dim, objective.MaxMin, 0.5, k)
	base, err := in.PlaneContext(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if base.Regime() != objective.RegimeMaterialized || !base.Materialized() {
		t.Fatalf("n=%d: regime %v (materialized=%v), want a filled matrix", base.Len(), base.Regime(), base.Materialized())
	}

	added := []relation.Tuple{point(limit), point(limit + 1), point(limit + 2)}
	merged, from := relation.Merge(base.Answers(), nil, added)
	grown, err := base.Rebase(ctx, merged, from)
	if err != nil {
		t.Fatal(err)
	}
	if grown.Regime() != objective.RegimeDirect || grown.Materialized() {
		t.Fatalf("n=%d: rebased regime %v (materialized=%v), want direct", grown.Len(), grown.Regime(), grown.Materialized())
	}
	assertRebaseMatchesCold(t, "extend over guard", grown, dim, k)

	// Retire the added answers plus one original: n = 4095.
	retired := []int{0, limit, limit + 1, limit + 2}
	merged, from = relation.Merge(grown.Answers(), retired, nil)
	shrunk, err := grown.Rebase(ctx, merged, from)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := shrunk.MaterializeContext(ctx); err != nil {
		t.Fatal(err)
	}
	if shrunk.Regime() != objective.RegimeMaterialized || !shrunk.Materialized() {
		t.Fatalf("n=%d: rebased regime %v (materialized=%v), want a filled matrix", shrunk.Len(), shrunk.Regime(), shrunk.Materialized())
	}
	assertRebaseMatchesCold(t, "retire under guard", shrunk, dim, k)
}
