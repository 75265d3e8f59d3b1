// The large-n acceptance tests: greedy FMS and FMM over 100k candidates on
// the direct store and on category lists. Wall-clock is asserted by the CI
// job's timeout (machines vary too much for an in-test stopwatch); what the
// tests themselves pin is correctness at scale and the O(n) memory claim.
// Skipped under -short.
package approx_test

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"
	"time"

	. "repro/internal/approx"

	"repro/internal/core"
	"repro/internal/objective"
	"repro/internal/relation"
	"repro/internal/value"
)

func TestLargeNDirectRegime(t *testing.T) {
	if testing.Short() {
		t.Skip("large-n direct smoke skipped in -short mode")
	}
	const n, dim, k = 100_000, 2, 10
	rng := rand.New(rand.NewSource(7))
	pts := regimePoints(rng, n, dim, 1_000_000)

	inSum := regimeInstance(t, pts, dim, objective.MaxSum, 0.5, k)
	plane := inSum.Plane()
	if plane == nil {
		t.Fatal("no plane")
	}
	// The planner must pick direct evaluation here: the matrix needs
	// ~40 GB against a 64 MiB guard.
	if got := plane.Regime(); got != objective.RegimeDirect {
		t.Fatalf("regime at n=%d is %v, want direct", plane.Len(), got)
	}

	start := time.Now()
	sum := GreedyMaxSum(inSum)
	sumElapsed := time.Since(start)
	if len(sum.Set) != k {
		t.Fatalf("FMS picked %d of %d", len(sum.Set), k)
	}

	inMin := regimeInstance(t, pts, dim, objective.MaxMin, 0.5, k)
	inMin.SetAnswers(plane.Answers())
	inMin.SetPlane(plane)
	start = time.Now()
	min := GreedyMaxMin(inMin)
	minElapsed := time.Since(start)
	if len(min.Set) != k {
		t.Fatalf("FMM picked %d of %d", len(min.Set), k)
	}
	t.Logf("n=%d k=%d: FMS %v, FMM %v", plane.Len(), k, sumElapsed, minElapsed)

	// The O(n) plane memory claim: the score vectors must stay within a
	// small linear envelope — far under the quadratic matrix (~40 GB).
	foot := plane.MemoryFootprint()
	if bound := int64(512)*int64(plane.Len()) + (1 << 20); foot > bound {
		t.Fatalf("plane footprint %d bytes exceeds the O(n) envelope %d", foot, bound)
	}
	t.Logf("plane footprint: %.1f MiB (%.0f B/answer)", float64(foot)/(1<<20), float64(foot)/float64(plane.Len()))
}

// TestLargeNCategoryPlane is the same gate for the category plane, on the
// shape of the end-to-end warm-read workload: 10⁵ answers (id, cat, rel)
// with cat zipf(1.1)-distributed over 200 categories and rel a permutation
// of evenly spaced values. The planner must pick category lists; greedy FMS
// and FMM must pick what the flat loops pick (on the same distance hidden
// behind a function, which the plane evaluates directly at this n), looking
// at no more than 3·k·m answers per solve, on O(n) plane bytes. All of
// these are counts, not timings.
func TestLargeNCategoryPlane(t *testing.T) {
	if testing.Short() {
		t.Skip("large-n category gate skipped in -short mode")
	}
	const n, k = 100_000, 10
	rng := rand.New(rand.NewSource(11))
	zipf := rand.NewZipf(rng, 1.1, 1, 199)
	perm := rng.Perm(n)
	answers := make([]relation.Tuple, n)
	for i := range answers {
		answers[i] = relation.Tuple{
			value.Int(int64(i)),
			value.Str(fmt.Sprintf("c%03d", zipf.Uint64())),
			value.Float((float64(perm[i]) + 0.5) / n),
		}
	}
	cd := objective.CategoryDistance{Col: 1}
	instance := func(kind objective.Kind, lambda float64, dis objective.Distance) *core.Instance {
		obj := objective.New(kind, objective.AttrRelevance(2, 1), dis, lambda)
		in := &core.Instance{Obj: obj, K: k}
		in.SetAnswers(answers)
		return in
	}
	flatDis := objective.DistanceFunc(cd.Dis)
	cat := instance(objective.MaxSum, 0.5, cd)
	plane := cat.Plane()
	if got := plane.Regime(); got != objective.RegimeCategory {
		t.Fatalf("regime for a category distance at n=%d is %v, want category", n, got)
	}
	m := plane.Categories().Count()
	flatPlane := instance(objective.MaxSum, 0.5, flatDis).Plane()
	if got := flatPlane.Regime(); got != objective.RegimeDirect {
		t.Fatalf("regime for the hidden category distance at n=%d is %v, want direct", n, got)
	}
	for _, kind := range []objective.Kind{objective.MaxSum, objective.MaxMin} {
		for _, lambda := range []float64{0.1, 0.5, 0.9} {
			in := instance(kind, lambda, cd)
			in.SetPlane(plane)
			got := Greedy(in)
			if bound := 3 * k * m; got.Steps > bound {
				t.Errorf("%v λ=%v: %d steps over the 3·k·m = %d bound", kind, lambda, got.Steps, bound)
			}
			flat := instance(kind, lambda, flatDis)
			flat.SetPlane(flatPlane)
			assertSamePicks(t, fmt.Sprintf("%v λ=%v", kind, lambda), Greedy(flat), got)
		}
	}
	if foot, bound := plane.MemoryFootprint(), int64(64*n); foot > bound {
		t.Fatalf("category plane footprint %d B exceeds the O(n) envelope %d B", foot, bound)
	}
}

// TestCategoryGreedyStateSizedToCategories holds a greedy solve's memory to
// the categories and k: with m = 200 categories, every one populated (IDs
// assigned round-robin), and k = 10, FMS and FMM allocate the same bytes
// per solve over 10⁴ answers as over 10⁵. A used flag per answer alone would
// add 90 KB at 10⁵. Bytes are TotalAlloc averaged over repeated solves on a
// built plane; the test must not run in parallel with others.
func TestCategoryGreedyStateSizedToCategories(t *testing.T) {
	if testing.Short() {
		t.Skip("large-n category state test skipped in -short mode")
	}
	const m, k, runs = 200, 10, 50
	perSolve := func(n int, kind objective.Kind) float64 {
		perm := rand.New(rand.NewSource(int64(n))).Perm(n)
		answers := make([]relation.Tuple, n)
		for i := range answers {
			answers[i] = relation.Tuple{value.Int(int64(i)), value.Int(int64(i % m)), value.Float((float64(perm[i]) + 0.5) / float64(n))}
		}
		in := &core.Instance{Obj: objective.New(kind, objective.AttrRelevance(2, 1), objective.CategoryDistance{Col: 1}, 0.5), K: k}
		in.SetAnswers(answers)
		if p := in.Plane(); p.Regime() != objective.RegimeCategory || p.Categories().Count() != m {
			t.Fatalf("n=%d: plane %v with %d categories, want category lists with %d", n, p.Regime(), p.Categories().Count(), m)
		}
		if got := Greedy(in); len(got.Set) != k {
			t.Fatalf("n=%d %v: picked %d of %d", n, kind, len(got.Set), k)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for range runs {
			Greedy(in)
		}
		runtime.ReadMemStats(&after)
		return float64(after.TotalAlloc-before.TotalAlloc) / runs
	}
	for _, kind := range []objective.Kind{objective.MaxSum, objective.MaxMin} {
		small, large := perSolve(10_000, kind), perSolve(100_000, kind)
		t.Logf("%v: %.0f B per solve at n=10⁴, %.0f B at n=10⁵", kind, small, large)
		if large > small+256 {
			t.Errorf("%v: a solve allocates %.0f B at n=10⁵ against %.0f B at n=10⁴; its state grows with |Q(D)|", kind, large, small)
		}
	}
}
