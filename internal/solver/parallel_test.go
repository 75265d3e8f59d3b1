package solver

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"

	"repro/internal/compat"
	"repro/internal/core"
	"repro/internal/objective"
	"repro/internal/query"
	"repro/internal/relation"
	"repro/internal/subset"
)

// pointsInstance builds an identity-query instance over 2-column integer
// points: relevance = x, distance = Euclidean.
func pointsInstance(pts [][2]int64, kind objective.Kind, lambda float64, k int) *core.Instance {
	r := relation.NewRelation(relation.NewSchema("P", "x", "y"))
	for _, p := range pts {
		r.Insert(relation.Ints(p[0], p[1]))
	}
	db := relation.NewDatabase().Add(r)
	obj := objective.New(kind, objective.AttrRelevance(0, 1), objective.EuclideanDistance(), lambda)
	return &core.Instance{Query: query.IdentityQuery("P", 2), DB: db, Obj: obj, K: k}
}

func randomPoints(rng *rand.Rand, n int) [][2]int64 {
	pts := make([][2]int64, n)
	for i := range pts {
		pts[i] = [2]int64{rng.Int63n(50), rng.Int63n(50)}
	}
	return pts
}

// refLeaf is one k-subset that satisfies Σ, with its value.
type refLeaf struct {
	ids []int
	f   float64
}

// referenceLeaves is the brute-force oracle for the exact search: every
// k-subset of in's answers that satisfies Σ, in lexicographic index order —
// the walk's leaf order — scored through the walk's push order (valueAt), so
// each value agrees with the walk's to the bit.
func referenceLeaves(in *core.Instance) []refLeaf {
	s := newSearch(context.Background(), in, 0, false, &Stats{})
	var leaves []refLeaf
	subset.ForEach(len(s.answers), s.k, func(idx []int) bool {
		if in.SatisfiesConstraints(s.tuples(idx)) {
			leaves = append(leaves, refLeaf{append([]int(nil), idx...), s.valueAt(idx)})
		}
		return true
	})
	return leaves
}

// firstWitness is the first leaf scoring at least b: QRD's witness.
func firstWitness(leaves []refLeaf, b float64) *refLeaf {
	for i := range leaves {
		if leaves[i].f >= b {
			return &leaves[i]
		}
	}
	return nil
}

// firstBest is the first leaf of maximal score, NaN scores left out as the
// best-set search leaves them out.
func firstBest(leaves []refLeaf) *refLeaf {
	var best *refLeaf
	for i := range leaves {
		if l := &leaves[i]; !math.IsNaN(l.f) && (best == nil || l.f > best.f) {
			best = l
		}
	}
	return best
}

// countLeaves counts the leaves scoring at least b, or above b when strict.
func countLeaves(leaves []refLeaf, b float64, strict bool) int64 {
	n := int64(0)
	for _, l := range leaves {
		if l.f > b || (!strict && l.f == b) {
			n++
		}
	}
	return n
}

// sameAsLeaf asserts a QRD result reports exactly the reference leaf (or,
// for a nil leaf, no set).
func sameAsLeaf(t *testing.T, label string, in *core.Instance, res QRDResult, want *refLeaf) {
	t.Helper()
	if want == nil {
		if res.Exists {
			t.Fatalf("%s: found %v (F = %v), the reference has no set", label, res.Witness, res.Value)
		}
		return
	}
	if !res.Exists || res.Value != want.f {
		t.Fatalf("%s: (exists %v, F = %v), the reference has F = %v", label, res.Exists, res.Value, want.f)
	}
	answers := in.Answers()
	if len(res.Witness) != len(want.ids) {
		t.Fatalf("%s: witness has %d rows, the reference %d", label, len(res.Witness), len(want.ids))
	}
	for i, id := range want.ids {
		if !res.Witness[i].Equal(answers[id]) {
			t.Fatalf("%s: witness[%d] = %v, the reference has %v", label, i, res.Witness[i], answers[id])
		}
	}
}

// checkAgainstReference runs every exact procedure on an instance from mk at
// 1 and 4 workers and holds each to the brute-force reference: the best set,
// the first witness and the count at bounds straddling the optimum, and the
// rank of the first k answers.
func checkAgainstReference(t *testing.T, label string, mk func() *core.Instance) {
	t.Helper()
	ctx := context.Background()
	leaves := referenceLeaves(mk())
	best := firstBest(leaves)
	bounds := []float64{0}
	if best != nil {
		bounds = append(bounds, best.f/2, best.f, best.f+1)
	}
	for _, workers := range []int{1, 4} {
		in := mk()
		in.Parallelism = workers
		lbl := fmt.Sprintf("%s/w%d", label, workers)

		res, err := QRDBestContext(ctx, in)
		if err != nil {
			t.Fatal(err)
		}
		sameAsLeaf(t, lbl+" best", in, res, best)
		if workers == 1 && res.Stats.Frames != 0 {
			t.Fatalf("%s: one worker cut %d frames", lbl, res.Stats.Frames)
		}

		for _, b := range bounds {
			in.B = b
			q, err := QRDExactContext(ctx, in)
			if err != nil {
				t.Fatal(err)
			}
			sameAsLeaf(t, fmt.Sprintf("%s qrd(B=%v)", lbl, b), in, q, firstWitness(leaves, b))
			c, err := RDCExactContext(ctx, in)
			if err != nil {
				t.Fatal(err)
			}
			if want := countLeaves(leaves, b, false); c.Count.Int64() != want {
				t.Fatalf("%s rdc(B=%v): count %v, the reference %d", lbl, b, c.Count, want)
			}
		}

		if in.K < 0 || in.K > len(in.Answers()) || !in.SatisfiesConstraints(in.Answers()[:in.K]) {
			continue
		}
		in.U = append([]relation.Tuple(nil), in.Answers()[:in.K]...)
		better := countLeaves(leaves, in.Eval(in.U), true)
		for _, r := range []int{1, 3, 1 << 20} {
			in.R = r
			d, err := DRPExactContext(ctx, in)
			if err != nil {
				t.Fatal(err)
			}
			want := min(better, int64(max(r, 1)))
			if int64(d.Better) != want || d.InTopR != (want < int64(r)) {
				t.Fatalf("%s drp(r=%d): (better %d, in-top-r %v), the reference counts %d better sets",
					lbl, r, d.Better, d.InTopR, better)
			}
		}
	}
}

// TestSearchMatchesBruteForce holds the exact search, at one and at four
// workers, to the brute-force reference across FMS/FMM/Fmono × λ ∈ {0, ½, 1}
// × instance sizes: byte-identical sets and scores, and exact counts, for
// all four exact procedures.
func TestSearchMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	kinds := []objective.Kind{objective.MaxSum, objective.MaxMin, objective.Mono}
	sizes := []struct{ n, k int }{{7, 3}, {12, 4}, {18, 5}}
	for _, kind := range kinds {
		for _, lambda := range []float64{0, 0.5, 1} {
			for _, sz := range sizes {
				pts := randomPoints(rng, sz.n)
				checkAgainstReference(t, fmt.Sprintf("%s/λ=%v/n%dk%d", kind, lambda, sz.n, sz.k),
					func() *core.Instance { return pointsInstance(pts, kind, lambda, sz.k) })
			}
		}
	}
}

// TestParallelSearchWithConstraints checks the constrained path (no warm
// start; Σ pruning in the frame cut as in the walk) against the reference.
func TestParallelSearchWithConstraints(t *testing.T) {
	build := func() *core.Instance {
		rng := rand.New(rand.NewSource(11))
		in := pointsInstance(randomPoints(rng, 14), objective.MaxSum, 0.5, 4)
		c, err := compat.Parse(`forall t1, t2 (t1.x = t2.x -> t1.y = t2.y)`)
		if err != nil {
			t.Fatal(err)
		}
		in.Sigma = compat.NewSet(4).MustAdd(c)
		return in
	}
	checkAgainstReference(t, "constrained", build)
	for _, workers := range []int{1, 4} {
		in := build()
		in.Parallelism = workers
		res, err := QRDBestContext(context.Background(), in)
		if err != nil {
			t.Fatal(err)
		}
		if res.Stats.Warm || res.Incumbent != nil {
			t.Errorf("%d workers: warm start must be skipped under constraints", workers)
		}
	}
}

// TestParallelSearchDepths sweeps explicit split depths: results must be
// depth-independent.
func TestParallelSearchDepths(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	pts := randomPoints(rng, 15)
	want := firstBest(referenceLeaves(pointsInstance(pts, objective.MaxSum, 0.7, 5)))
	for depth := 1; depth <= 4; depth++ {
		in := pointsInstance(pts, objective.MaxSum, 0.7, 5)
		in.Parallelism = 4
		in.ParallelDepth = depth
		got, err := QRDBestContext(context.Background(), in)
		if err != nil {
			t.Fatal(err)
		}
		sameAsLeaf(t, fmt.Sprintf("depth %d", depth), in, got, want)
		if got.Stats.Frames == 0 {
			t.Errorf("depth %d: expected a cut into frames (Frames > 0)", depth)
		}
	}
}

// TestParallelSearchWarmStart asserts the greedy incumbent is installed at
// every worker count, is carried on the result, and does not change it.
func TestParallelSearchWarmStart(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	pts := randomPoints(rng, 20)
	for _, kind := range []objective.Kind{objective.MaxSum, objective.MaxMin, objective.Mono} {
		want := firstBest(referenceLeaves(pointsInstance(pts, kind, 0.5, 5)))
		for _, workers := range []int{1, 4} {
			in := pointsInstance(pts, kind, 0.5, 5)
			in.Parallelism = workers
			res, err := QRDBestContext(context.Background(), in)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Stats.Warm || res.Incumbent == nil || len(res.Incumbent.Set) != 5 {
				t.Errorf("%s/w%d: expected a warm start from a full greedy set", kind, workers)
			}
			sameAsLeaf(t, fmt.Sprintf("%s/w%d", kind, workers), in, res, want)
		}
	}
}

// TestParallelSearchCancel: a cancelled context aborts the parallel walk
// with the context's error.
func TestParallelSearchCancel(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	in := pointsInstance(randomPoints(rng, 26), objective.MaxSum, 0.5, 10)
	in.Parallelism = 4
	in.Answers() // materialize so cancellation hits the search, not eval
	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	time.Sleep(2 * time.Millisecond)
	if _, err := QRDBestContext(ctx, in); err == nil {
		t.Fatal("expected a cancellation error")
	}
}

// TestParallelSearchKEdgeCases: k larger than |Q(D)|, k equal to it, and
// k = 0, which has one candidate set: the empty one.
func TestParallelSearchKEdgeCases(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	pts := randomPoints(rng, 5)
	for _, k := range []int{9, 5, 0} {
		checkAgainstReference(t, fmt.Sprintf("k=%d", k),
			func() *core.Instance { return pointsInstance(pts, objective.MaxSum, 0.5, k) })
	}
}
