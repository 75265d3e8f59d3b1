// The external test package breaks the import cycle that the solver's
// warm-started incumbent introduced: solver imports approx for the greedy
// incumbent, and these tests compare heuristics against the exact solver.
package approx_test

import (
	"math"
	"testing"
	"testing/quick"

	. "repro/internal/approx"

	"repro/internal/core"
	"repro/internal/objective"
	"repro/internal/query"
	"repro/internal/relation"
	"repro/internal/solver"
)

// pointsInstance builds an identity-query instance over 2-column integer
// points with Euclidean distance and relevance = first coordinate.
func pointsInstance(pts [][2]int64, kind objective.Kind, lambda float64, k int) *core.Instance {
	r := relation.NewRelation(relation.NewSchema("P", "x", "y"))
	for _, p := range pts {
		r.Insert(relation.Ints(p[0], p[1]))
	}
	db := relation.NewDatabase().Add(r)
	obj := objective.New(kind, objective.AttrRelevance(0, 1), objective.EuclideanDistance(), lambda)
	return &core.Instance{Query: query.IdentityQuery("P", 2), DB: db, Obj: obj, K: k}
}

var testPoints = [][2]int64{
	{0, 0}, {10, 0}, {0, 10}, {10, 10}, {5, 5}, {1, 1}, {9, 9}, {2, 8},
}

func TestGreedyMaxSumSelectsValidSet(t *testing.T) {
	in := pointsInstance(testPoints, objective.MaxSum, 0.5, 3)
	res := GreedyMaxSum(in)
	if len(res.Set) != 3 {
		t.Fatalf("selected %d tuples, want 3", len(res.Set))
	}
	if math.Abs(res.Value-in.Eval(res.Set)) > 1e-9 {
		t.Errorf("reported value %v != evaluated %v", res.Value, in.Eval(res.Set))
	}
	// All selected tuples distinct and from Q(D).
	if !in.IsCandidate(res.Set) {
		t.Error("greedy set is not a candidate set")
	}
}

func TestGreedyMaxSumApproximationQuality(t *testing.T) {
	in := pointsInstance(testPoints, objective.MaxSum, 0.7, 3)
	greedy := GreedyMaxSum(in)
	best := solver.QRDBest(in)
	q := Quality(greedy.Value, best.Value)
	// The metric max-sum greedy guarantees 1/2; it usually does far better.
	if q < 0.5-1e-9 {
		t.Errorf("greedy quality %v below the 2-approximation bound", q)
	}
}

func TestGreedyMaxMinApproximationQuality(t *testing.T) {
	in := pointsInstance(testPoints, objective.MaxMin, 1, 3)
	greedy := GreedyMaxMin(in)
	best := solver.QRDBest(in)
	q := Quality(greedy.Value, best.Value)
	if q < 0.5-1e-9 {
		t.Errorf("farthest-point quality %v below the 2-approximation bound", q)
	}
}

func TestGreedyMaxMinSeedsWithMostRelevant(t *testing.T) {
	in := pointsInstance(testPoints, objective.MaxMin, 0, 1)
	res := GreedyMaxMin(in)
	// λ=0, k=1: must pick the most relevant tuple (x=10).
	if res.Set[0][0].AsInt() != 10 {
		t.Errorf("seed = %v, want x=10", res.Set[0])
	}
}

func TestLocalSearchImprovesSeed(t *testing.T) {
	in := pointsInstance(testPoints, objective.MaxSum, 1, 3)
	answers := in.Answers()
	// Deliberately bad seed: three clustered points.
	var seed []relation.Tuple
	for _, a := range answers {
		if a[0].AsInt() <= 2 && a[1].AsInt() <= 2 {
			seed = append(seed, a)
		}
	}
	if len(seed) < 3 {
		seed = answers[:3]
	}
	seed = seed[:3]
	start := in.Eval(seed)
	res := LocalSearchSwap(in, seed)
	if res.Value < start {
		t.Errorf("local search worsened the seed: %v -> %v", start, res.Value)
	}
	if !in.IsCandidate(res.Set) {
		t.Error("local search produced a non-candidate set")
	}
}

func TestLocalSearchOptimalForMono(t *testing.T) {
	in := pointsInstance(testPoints, objective.Mono, 0.5, 3)
	seed := in.Answers()[:3]
	res := LocalSearchSwap(in, seed)
	best := solver.QRDBest(in)
	if math.Abs(res.Value-best.Value) > 1e-9 {
		t.Errorf("local search on modular objective = %v, optimum = %v", res.Value, best.Value)
	}
}

func TestGreedyDispatch(t *testing.T) {
	for _, kind := range []objective.Kind{objective.MaxSum, objective.MaxMin, objective.Mono} {
		in := pointsInstance(testPoints, kind, 0.5, 3)
		res := Greedy(in)
		if len(res.Set) != 3 {
			t.Errorf("%v: selected %d tuples", kind, len(res.Set))
		}
	}
}

func TestGreedyMonoIsExact(t *testing.T) {
	in := pointsInstance(testPoints, objective.Mono, 0.4, 4)
	res := Greedy(in)
	best := solver.QRDBest(in)
	if math.Abs(res.Value-best.Value) > 1e-9 {
		t.Errorf("mono greedy = %v, optimum = %v", res.Value, best.Value)
	}
}

func TestEdgeCases(t *testing.T) {
	in := pointsInstance(testPoints, objective.MaxSum, 0.5, 0)
	if res := GreedyMaxSum(in); len(res.Set) != 0 {
		t.Error("k=0 should select nothing")
	}
	in2 := pointsInstance(testPoints[:2], objective.MaxSum, 0.5, 5)
	if res := GreedyMaxSum(in2); len(res.Set) != 0 {
		t.Error("k > |Q(D)| should select nothing")
	}
	in3 := pointsInstance(testPoints[:2], objective.MaxMin, 0.5, 5)
	if res := GreedyMaxMin(in3); len(res.Set) != 0 {
		t.Error("k > |Q(D)| should select nothing (max-min)")
	}
	if res := LocalSearchSwap(in, nil); len(res.Set) != 0 {
		t.Error("empty seed should return empty result")
	}
	in4 := pointsInstance(testPoints, objective.MaxSum, 0.5, 2)
	outside := []relation.Tuple{in4.Answers()[0], relation.Ints(99, 99)}
	if res := LocalSearchSwap(in4, outside); len(res.Set) != 0 || res.Steps != 0 {
		t.Errorf("seed outside Q(D) should return empty result, got %+v", res)
	}
}

func TestQuality(t *testing.T) {
	if Quality(5, 10) != 0.5 || Quality(0, 0) != 1 || Quality(1, 0) != 0 {
		t.Error("Quality misbehaves")
	}
}

// Property: on random point sets the greedy heuristics never exceed the
// exact optimum and local search never decreases the greedy value.
func TestHeuristicSandwichProperty(t *testing.T) {
	f := func(raw [6][2]int8) bool {
		pts := make([][2]int64, 0, len(raw))
		seen := map[[2]int64]bool{}
		for _, p := range raw {
			q := [2]int64{int64(p[0] % 8), int64(p[1] % 8)}
			if !seen[q] {
				seen[q] = true
				pts = append(pts, q)
			}
		}
		if len(pts) < 3 {
			return true
		}
		for _, kind := range []objective.Kind{objective.MaxSum, objective.MaxMin} {
			in := pointsInstance(pts, kind, 0.6, 3)
			g := Greedy(in)
			best := solver.QRDBest(in)
			if g.Value > best.Value+1e-9 {
				return false // heuristic beat the optimum: impossible
			}
			ls := LocalSearchSwap(in, g.Set)
			if ls.Value < g.Value-1e-9 {
				return false // local search made it worse
			}
			if ls.Value > best.Value+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}
