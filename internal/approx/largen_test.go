// The large-n acceptance test: greedy FMS and FMM over 100k candidates in
// the indexed regime, the workload the metric index exists for. Wall-clock
// is asserted by the CI job's timeout (machines vary too much for an
// in-test stopwatch); what the test itself pins is correctness at scale and
// the O(n) memory claim. Skipped under -short.
package approx_test

import (
	"math/rand"
	"testing"
	"time"

	. "repro/internal/approx"

	"repro/internal/objective"
)

func TestLargeNIndexedRegime(t *testing.T) {
	if testing.Short() {
		t.Skip("large-n indexed smoke skipped in -short mode")
	}
	const n, dim, k = 100_000, 2, 10
	rng := rand.New(rand.NewSource(7))
	pts := regimePoints(rng, n, dim, 1_000_000)

	inSum := regimeInstance(t, pts, dim, objective.EuclideanDistance(), objective.MaxSum, 0.5, k, objective.RegimeAuto)
	plane := inSum.Plane()
	if plane == nil {
		t.Fatal("no plane")
	}
	// Auto must resolve to the index here: the matrix needs ~40 GB against
	// a 64 MiB guard.
	if got := plane.Regime(); got != objective.RegimeIndexed {
		t.Fatalf("auto regime at n=%d is %v, want indexed", plane.Len(), got)
	}

	start := time.Now()
	sum := GreedyMaxSum(inSum)
	sumElapsed := time.Since(start)
	if len(sum.Set) != k {
		t.Fatalf("FMS picked %d of %d", len(sum.Set), k)
	}

	inMin := regimeInstance(t, pts, dim, objective.EuclideanDistance(), objective.MaxMin, 0.5, k, objective.RegimeAuto)
	inMin.SetAnswers(plane.Answers())
	inMin.SetPlane(plane) // share the built index across both solves
	start = time.Now()
	min := GreedyMaxMin(inMin)
	minElapsed := time.Since(start)
	if len(min.Set) != k {
		t.Fatalf("FMM picked %d of %d", len(min.Set), k)
	}
	t.Logf("n=%d k=%d: FMS %v, FMM %v", plane.Len(), k, sumElapsed, minElapsed)

	// The O(n) plane memory claim: index + memo + score vectors must stay
	// within a small linear envelope — far under the quadratic stores
	// (the float64 matrix alone would be ~40 GB).
	foot := plane.MemoryFootprint()
	if bound := int64(512)*int64(plane.Len()) + (1 << 20); foot > bound {
		t.Fatalf("plane footprint %d bytes exceeds the O(n) envelope %d", foot, bound)
	}
	t.Logf("plane footprint: %.1f MiB (%.0f B/answer)", float64(foot)/(1<<20), float64(foot)/float64(plane.Len()))
}
