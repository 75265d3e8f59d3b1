package solver

import (
	"context"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"repro/internal/compat"
	"repro/internal/core"
	"repro/internal/objective"
	"repro/internal/query"
	"repro/internal/relation"
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

// sameWitness asserts two witness slices hold identical tuples in order.
func sameWitness(t *testing.T, label string, seq, par []relation.Tuple) {
	t.Helper()
	if len(seq) != len(par) {
		t.Fatalf("%s: witness length %d != %d", label, len(par), len(seq))
	}
	for i := range seq {
		if !seq[i].Equal(par[i]) {
			t.Fatalf("%s: witness[%d] = %v, sequential has %v", label, i, par[i], seq[i])
		}
	}
}

// TestParallelSearchMatchesSequential is the differential core of the
// acceptance criterion: across FMS/FMM/Fmono × λ ∈ {0, ½, 1} × instance
// sizes, the parallel search must return byte-identical sets and scores to
// the sequential path for all four exact procedures.
func TestParallelSearchMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	ctx := context.Background()
	kinds := []objective.Kind{objective.MaxSum, objective.MaxMin, objective.Mono}
	lambdas := []float64{0, 0.5, 1}
	sizes := []struct{ n, k int }{{7, 3}, {12, 4}, {18, 5}}
	for _, kind := range kinds {
		for _, lambda := range lambdas {
			for _, sz := range sizes {
				pts := randomPoints(rng, sz.n)
				seqIn := pointsInstance(pts, kind, lambda, sz.k)
				parIn := pointsInstance(pts, kind, lambda, sz.k)
				parIn.Parallelism = 4

				label := fmt.Sprintf("%s/λ=%v/n%dk%d", kind, lambda, sz.n, sz.k)

				seqBest, err := QRDBestContext(ctx, seqIn)
				if err != nil {
					t.Fatal(err)
				}
				parBest, err := QRDBestContext(ctx, parIn)
				if err != nil {
					t.Fatal(err)
				}
				if seqBest.Exists != parBest.Exists || seqBest.Value != parBest.Value {
					t.Fatalf("%s best: parallel (%v, %v) != sequential (%v, %v)",
						label, parBest.Exists, parBest.Value, seqBest.Exists, seqBest.Value)
				}
				sameWitness(t, label+" best", seqBest.Witness, parBest.Witness)

				// Decision QRD at a mid-range bound: same witness (the first
				// valid set in DFS order) and same value.
				for _, b := range []float64{0, seqBest.Value / 2, seqBest.Value} {
					seqIn.B, parIn.B = b, b
					seqQ, err := QRDExactContext(ctx, seqIn)
					if err != nil {
						t.Fatal(err)
					}
					parQ, err := QRDExactContext(ctx, parIn)
					if err != nil {
						t.Fatal(err)
					}
					if seqQ.Exists != parQ.Exists || seqQ.Value != parQ.Value {
						t.Fatalf("%s qrd(B=%v): parallel (%v, %v) != sequential (%v, %v)",
							label, b, parQ.Exists, parQ.Value, seqQ.Exists, seqQ.Value)
					}
					sameWitness(t, label+" qrd", seqQ.Witness, parQ.Witness)

					seqC, err := RDCExactContext(ctx, seqIn)
					if err != nil {
						t.Fatal(err)
					}
					parC, err := RDCExactContext(ctx, parIn)
					if err != nil {
						t.Fatal(err)
					}
					if seqC.Count.Cmp(parC.Count) != 0 {
						t.Fatalf("%s rdc(B=%v): parallel count %v != sequential %v",
							label, b, parC.Count, seqC.Count)
					}
				}

				// DRP against the greedy-ish set of the first k answers.
				u := make([]relation.Tuple, sz.k)
				copy(u, seqIn.Answers()[:sz.k])
				for _, r := range []int{1, 3, 1 << 20} {
					seqIn.U, parIn.U = u, u
					seqIn.R, parIn.R = r, r
					seqD, err := DRPExactContext(ctx, seqIn)
					if err != nil {
						t.Fatal(err)
					}
					parD, err := DRPExactContext(ctx, parIn)
					if err != nil {
						t.Fatal(err)
					}
					if seqD.InTopR != parD.InTopR || seqD.Better != parD.Better || seqD.FU != parD.FU {
						t.Fatalf("%s drp(r=%d): parallel (%v, %d, %v) != sequential (%v, %d, %v)",
							label, r, parD.InTopR, parD.Better, parD.FU, seqD.InTopR, seqD.Better, seqD.FU)
					}
				}
			}
		}
	}
}

// TestParallelSearchWithConstraints checks the constrained path (no warm
// start; Σ pruning replayed identically in frame generation).
func TestParallelSearchWithConstraints(t *testing.T) {
	ctx := context.Background()
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
	seqIn, parIn := build(), build()
	parIn.Parallelism = 4
	seqRes, err := QRDBestContext(ctx, seqIn)
	if err != nil {
		t.Fatal(err)
	}
	parRes, err := QRDBestContext(ctx, parIn)
	if err != nil {
		t.Fatal(err)
	}
	if seqRes.Exists != parRes.Exists || seqRes.Value != parRes.Value {
		t.Fatalf("constrained best: parallel (%v, %v) != sequential (%v, %v)",
			parRes.Exists, parRes.Value, seqRes.Exists, seqRes.Value)
	}
	sameWitness(t, "constrained", seqRes.Witness, parRes.Witness)
	if parRes.Stats.Warm {
		t.Error("warm start must be skipped under constraints")
	}
	seqIn.B, parIn.B = seqRes.Value/2, seqRes.Value/2
	seqC, _ := RDCExactContext(ctx, seqIn)
	parC, _ := RDCExactContext(ctx, parIn)
	if seqC.Count.Cmp(parC.Count) != 0 {
		t.Fatalf("constrained count: parallel %v != sequential %v", parC.Count, seqC.Count)
	}
}

// TestParallelSearchDepths sweeps explicit split depths: results must be
// depth-independent.
func TestParallelSearchDepths(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	pts := randomPoints(rng, 15)
	ref := pointsInstance(pts, objective.MaxSum, 0.7, 5)
	want, err := QRDBestContext(context.Background(), ref)
	if err != nil {
		t.Fatal(err)
	}
	for depth := 1; depth <= 4; depth++ {
		in := pointsInstance(pts, objective.MaxSum, 0.7, 5)
		in.Parallelism = 4
		in.ParallelDepth = depth
		got, err := QRDBestContext(context.Background(), in)
		if err != nil {
			t.Fatal(err)
		}
		if got.Value != want.Value {
			t.Fatalf("depth %d: value %v != %v", depth, got.Value, want.Value)
		}
		sameWitness(t, "depth", want.Witness, got.Witness)
		if got.Stats.Frames == 0 {
			t.Errorf("depth %d: expected a parallel run (Frames > 0)", depth)
		}
	}
}

// TestParallelSearchWarmStart asserts the heuristic incumbent is installed
// and that it does not change the result.
func TestParallelSearchWarmStart(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	pts := randomPoints(rng, 20)
	for _, kind := range []objective.Kind{objective.MaxSum, objective.MaxMin, objective.Mono} {
		seqIn := pointsInstance(pts, kind, 0.5, 5)
		parIn := pointsInstance(pts, kind, 0.5, 5)
		parIn.Parallelism = 4
		seqRes, err := QRDBestContext(context.Background(), seqIn)
		if err != nil {
			t.Fatal(err)
		}
		parRes, err := QRDBestContext(context.Background(), parIn)
		if err != nil {
			t.Fatal(err)
		}
		if !parRes.Stats.Warm {
			t.Errorf("%s: expected a warm-started incumbent", kind)
		}
		if seqRes.Value != parRes.Value {
			t.Fatalf("%s: warm-started parallel %v != sequential %v", kind, parRes.Value, seqRes.Value)
		}
		sameWitness(t, kind.String(), seqRes.Witness, parRes.Witness)
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

// TestParallelSearchKEdgeCases: k larger than |Q(D)| and k equal to it.
func TestParallelSearchKEdgeCases(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	pts := randomPoints(rng, 5)
	tooBig := pointsInstance(pts, objective.MaxSum, 0.5, 9)
	tooBig.Parallelism = 4
	res, err := QRDBestContext(context.Background(), tooBig)
	if err != nil {
		t.Fatal(err)
	}
	if res.Exists {
		t.Error("k > |Q(D)| must not find a set")
	}
	exact := pointsInstance(pts, objective.MaxSum, 0.5, 5)
	exact.Parallelism = 4
	seq := pointsInstance(pts, objective.MaxSum, 0.5, 5)
	parRes, err := QRDBestContext(context.Background(), exact)
	if err != nil {
		t.Fatal(err)
	}
	seqRes, err := QRDBestContext(context.Background(), seq)
	if err != nil {
		t.Fatal(err)
	}
	if parRes.Value != seqRes.Value {
		t.Fatalf("k = n: parallel %v != sequential %v", parRes.Value, seqRes.Value)
	}
}
