package approx_test

import (
	"fmt"
	"math/rand"
	"testing"

	. "repro/internal/approx"

	"repro/internal/core"
	"repro/internal/objective"
	"repro/internal/relation"
	"repro/internal/value"
)

// benchResult keeps the benchmarked solves from being optimised away.
var benchResult Result

// BenchmarkCategoryGreedy times one greedy solve on a shared, built
// category plane, a distinct λ per iteration as a stream of served
// requests has, on two shapes of the end-to-end workloads:
//
//   - warm-read: 10⁵ answers (id, cat, rel), cat zipf(1.1) over 200
//     categories and rel a permutation of evenly spaced values;
//   - write-mix: 4,700 answers, cat uniform over 40 categories and rel an
//     integer price in [1, 500], so a category's list holds long runs of
//     equal relevance.
func BenchmarkCategoryGreedy(b *testing.B) {
	rng := rand.New(rand.NewSource(28))
	warm := make([]relation.Tuple, 100_000)
	zipf := rand.NewZipf(rng, 1.1, 1, 199)
	perm := rng.Perm(len(warm))
	for i := range warm {
		warm[i] = relation.Tuple{value.Int(int64(i)), value.Str(fmt.Sprintf("c%03d", zipf.Uint64())), value.Float((float64(perm[i]) + 0.5) / float64(len(warm)))}
	}
	mix := make([]relation.Tuple, 4_700)
	for i := range mix {
		mix[i] = relation.Tuple{value.Int(int64(i)), value.Str(fmt.Sprintf("t%02d", rng.Intn(40))), value.Int(int64(1 + rng.Intn(500)))}
	}
	rel, dis := objective.AttrRelevance(2, 1), objective.CategoryDistance{Col: 1}
	for _, shape := range []struct {
		name    string
		answers []relation.Tuple
	}{{"warm-read", warm}, {"write-mix", mix}} {
		in := &core.Instance{Obj: objective.New(objective.MaxSum, rel, dis, 0.5), K: 1}
		in.SetAnswers(shape.answers)
		plane := in.Plane()
		if plane.Regime() != objective.RegimeCategory {
			b.Fatalf("%s: plane is %v, want category lists", shape.name, plane.Regime())
		}
		for _, kind := range []objective.Kind{objective.MaxSum, objective.MaxMin} {
			for _, k := range []int{5, 10, 20, 40} {
				b.Run(fmt.Sprintf("%s/%v/k=%d", shape.name, kind, k), func(b *testing.B) {
					b.ReportAllocs()
					for i := 0; i < b.N; i++ {
						in := &core.Instance{Obj: objective.New(kind, rel, dis, (float64(i%1000)+0.5)/1000), K: k}
						in.SetAnswers(shape.answers)
						in.SetPlane(plane)
						benchResult = Greedy(in)
					}
				})
			}
		}
	}
}
