package diversification

import (
	"context"
	"fmt"
	"math/rand"
	"testing"
	"time"
)

// BenchmarkExactDiversifyProbe runs exact diversify requests the way a
// served statement does: Prepared.Do with the library's default
// parallelism, under a 3 s deadline. The data is Q(id, cat, rel) over n rows
// with 200 random categories and distinct relevance in (0, 1), scored by
// AttrRelevance("rel") and AttrDistance("cat"), seed 1. It reports search
// nodes per op and the share of ops answered degraded: the soft deadline
// fired and the greedy answer shipped instead of the optimum.
func BenchmarkExactDiversifyProbe(b *testing.B) {
	for _, c := range []struct {
		n      int
		obj    Objective
		lambda float64
		k      int
	}{
		{1000, MaxSum, 0, 10},
		{1000, MaxSum, 0.5, 10},
		{1000, MaxMin, 0.5, 10},
		{1000, MaxMin, 0, 5},
		{10000, MaxSum, 0.5, 5},
		{10000, MaxSum, 0.5, 10},
		{10000, MaxMin, 0.5, 10},
	} {
		b.Run(fmt.Sprintf("n%d/%s/lambda%g/k%d", c.n, c.obj, c.lambda, c.k), func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			e := NewEngine()
			e.MustCreateTable("items", "id", "cat", "rel")
			for id, r := range rng.Perm(c.n) {
				e.MustInsert("items", id, rng.Intn(200), (float64(r)+0.5)/float64(c.n))
			}
			p, err := e.Prepare("Q(id, cat, rel) :- items(id, cat, rel)",
				WithK(c.k), WithObjective(c.obj), WithLambda(c.lambda), WithAlgorithm(Exact),
				WithRelevance(AttrRelevance("rel")), WithDistance(AttrDistance("cat")))
			if err != nil {
				b.Fatal(err)
			}
			// Evaluate Q(D) and build the plane outside the timed requests.
			if _, err := p.Refresh(context.Background()); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			nodes, degraded := 0, 0
			for i := 0; i < b.N; i++ {
				ctx, cancel := context.WithTimeout(context.Background(), 3*time.Second)
				resp, err := p.Do(ctx, Request{Problem: ProblemDiversify})
				cancel()
				if err != nil {
					b.Fatal(err)
				}
				nodes += resp.Stats.Nodes
				if resp.Degraded {
					degraded++
				}
			}
			b.ReportMetric(float64(nodes)/float64(b.N), "nodes/op")
			b.ReportMetric(float64(degraded)/float64(b.N), "degraded/op")
		})
	}
}
