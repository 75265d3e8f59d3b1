// Property-based tests: the approximation guarantees Section 10 leans on,
// asserted over randomized instance families with fixed seeds (so failures
// are reproducible, not flaky). The instances use Euclidean distance over
// integer points — a metric, as the 2-approximation analysis requires — and
// non-negative relevance.
package approx_test

import (
	"math/rand"
	"testing"

	. "repro/internal/approx"

	"repro/internal/core"
	"repro/internal/objective"
	"repro/internal/relation"
	"repro/internal/solver"
)

// randomInstance draws a metric instance: n points in a 40×40 grid,
// relevance = x-coordinate (non-negative).
func randomInstance(rng *rand.Rand, n, k int, kind objective.Kind, lambda float64) *core.Instance {
	pts := make([][2]int64, n)
	for i := range pts {
		pts[i] = [2]int64{rng.Int63n(40), rng.Int63n(40)}
	}
	return pointsInstance(pts, kind, lambda, k)
}

// propSlack is the float tolerance for comparing values computed through
// different accumulation orders.
func propSlack(x float64) float64 {
	if x < 0 {
		x = -x
	}
	return 1e-9 * (1 + x)
}

// TestPropertyGreedyMaxSumTwoApproximation: on metric instances the max-sum
// dispersion greedy must stay within the paper's factor-2 guarantee of the
// exact optimum — 2·F(greedy) >= F(opt).
func TestPropertyGreedyMaxSumTwoApproximation(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 60; trial++ {
		n := 6 + rng.Intn(6)
		k := 2 + rng.Intn(3)
		lambda := []float64{0, 0.3, 0.5, 0.8, 1}[rng.Intn(5)]
		in := randomInstance(rng, n, k, objective.MaxSum, lambda)
		greedy := GreedyMaxSum(in)
		if len(greedy.Set) != k {
			t.Fatalf("trial %d: greedy picked %d of %d", trial, len(greedy.Set), k)
		}
		best := solver.QRDBest(in)
		if !best.Exists {
			t.Fatalf("trial %d: no exact optimum", trial)
		}
		if 2*greedy.Value < best.Value-propSlack(best.Value) {
			t.Errorf("trial %d (n=%d k=%d λ=%v): greedy %v is below half the optimum %v",
				trial, n, k, lambda, greedy.Value, best.Value)
		}
	}
}

// TestPropertyHeuristicNeverBeatsExact: a heuristic's score can never
// exceed the exact optimum, for all three objectives — the heuristics pick
// candidate sets, and the optimum is the maximum over all of them.
func TestPropertyHeuristicNeverBeatsExact(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	kinds := []objective.Kind{objective.MaxSum, objective.MaxMin, objective.Mono}
	for trial := 0; trial < 40; trial++ {
		n := 5 + rng.Intn(6)
		k := 2 + rng.Intn(3)
		lambda := float64(rng.Intn(101)) / 100
		kind := kinds[trial%len(kinds)]
		in := randomInstance(rng, n, k, kind, lambda)
		best := solver.QRDBest(in)
		if !best.Exists {
			t.Fatalf("trial %d: no exact optimum", trial)
		}
		check := func(name string, r Result) {
			if len(r.Set) == 0 {
				return
			}
			if r.Value > best.Value+propSlack(best.Value) {
				t.Errorf("trial %d (%s, %s, λ=%v): heuristic %v exceeds exact optimum %v",
					trial, name, kind, lambda, r.Value, best.Value)
			}
		}
		greedy := Greedy(in)
		check("greedy", greedy)
		check("local-search", LocalSearchSwap(in, greedy.Set))
	}
}

// TestPropertyLocalSearchNeverDecreases: hill climbing from any seed — not
// just a greedy one — must end at least as high as it started.
func TestPropertyLocalSearchNeverDecreases(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	kinds := []objective.Kind{objective.MaxSum, objective.MaxMin, objective.Mono}
	for trial := 0; trial < 60; trial++ {
		n := 5 + rng.Intn(6)
		k := 2 + rng.Intn(3)
		lambda := float64(rng.Intn(101)) / 100
		kind := kinds[trial%len(kinds)]
		in := randomInstance(rng, n, k, kind, lambda)
		answers := in.Answers()
		seed := rng.Perm(len(answers))[:k]
		seedTuples := make([]relation.Tuple, k)
		for i, idx := range seed {
			seedTuples[i] = answers[idx]
		}
		start := in.Eval(seedTuples)
		res := LocalSearchSwap(in, seedTuples)
		if res.Value < start-propSlack(start) {
			t.Errorf("trial %d (%s, λ=%v): local search decreased %v -> %v",
				trial, kind, lambda, start, res.Value)
		}
		if !in.IsCandidate(res.Set) {
			t.Errorf("trial %d: local search left the candidate space: %v", trial, res.Set)
		}
	}
}

// TestPropertyGreedyMaxMinTwoApproximation: the farthest-point greedy on
// the pure-diversity side (λ=1) is Gonzalez's 2-approximation for max-min
// dispersion.
func TestPropertyGreedyMaxMinTwoApproximation(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	for trial := 0; trial < 60; trial++ {
		n := 6 + rng.Intn(6)
		k := 2 + rng.Intn(3)
		in := randomInstance(rng, n, k, objective.MaxMin, 1)
		greedy := GreedyMaxMin(in)
		if len(greedy.Set) != k {
			t.Fatalf("trial %d: greedy picked %d of %d", trial, len(greedy.Set), k)
		}
		best := solver.QRDBest(in)
		if !best.Exists {
			t.Fatalf("trial %d: no exact optimum", trial)
		}
		if 2*greedy.Value < best.Value-propSlack(best.Value) {
			t.Errorf("trial %d (n=%d k=%d): farthest-point %v is below half the optimum %v",
				trial, n, k, greedy.Value, best.Value)
		}
	}
}

// TestPropertyQualityRatioBounds: Quality is a ratio in [0, 1] across the
// heuristic/optimum pairs the suite generates.
func TestPropertyQualityRatioBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(59))
	for trial := 0; trial < 30; trial++ {
		in := randomInstance(rng, 5+rng.Intn(5), 2+rng.Intn(2), objective.MaxSum, 0.5)
		greedy := GreedyMaxSum(in)
		best := solver.QRDBest(in)
		q := Quality(greedy.Value, best.Value)
		if q < 0 || q > 1+1e-9 {
			t.Errorf("trial %d: quality ratio %v outside [0, 1] (greedy %v, best %v)",
				trial, q, greedy.Value, best.Value)
		}
	}
}
