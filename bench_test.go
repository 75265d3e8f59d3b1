// Benchmarks regenerating the paper's tables and figures. Each table and
// figure of the evaluation has at least one testing.B benchmark exercising
// the cell's designated workload and solver; `go test -bench=. -benchmem`
// prints the full suite, and `cmd/divbench` runs the scaling sweeps that
// classify growth against the proved bounds.
package diversification

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"testing"

	"repro/internal/approx"
	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/objective"
	"repro/internal/online"
	"repro/internal/query/eval"
	"repro/internal/reduction"
	"repro/internal/relation"
	"repro/internal/sat"
	"repro/internal/solver"
	"repro/internal/subset"
	"repro/internal/value"
	"repro/internal/wal"
	"repro/internal/workload"
)

// --- Table I: combined complexity ---

// BenchmarkTableI_QRD_CQ_FMS_Combined exercises the NP-complete cell via the
// Theorem 5.1 3SAT gadget.
func BenchmarkTableI_QRD_CQ_FMS_Combined(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	f := sat.Random3SAT(rng, 5, 12)
	in := reduction.ThreeSATToQRDMaxSum(f)
	in.Answers() // materialize outside the loop
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		solver.QRDExact(in)
	}
}

// BenchmarkTableI_QRD_CQ_FMM_Combined is the FMM twin.
func BenchmarkTableI_QRD_CQ_FMM_Combined(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	f := sat.Random3SAT(rng, 5, 12)
	in := reduction.ThreeSATToQRDMaxMin(f)
	in.Answers()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		solver.QRDExact(in)
	}
}

// BenchmarkTableI_QRD_FO_Combined exercises the PSPACE-complete FO cell:
// membership-style FO evaluation dominates.
func BenchmarkTableI_QRD_FO_Combined(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	in := workload.GiftInstance(rng, 30, 60, 3, objective.MaxSum, 0.5)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		in.ResetAnswers() // force FO re-evaluation: the dominant cost
		solver.QRDExact(in)
	}
}

// BenchmarkTableI_QRD_CQ_Fmono_Combined exercises the Theorem 5.2 cell: the
// cube query blows |Q(D)| up to 2^m from a constant database.
func BenchmarkTableI_QRD_CQ_Fmono_Combined(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	q := sat.RandomQBF(rng, 8, 16)
	q.Matrix.NumVars = 8
	in := reduction.Q3SATToQRDMono(q)
	in.Answers()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		solver.QRDExact(in)
	}
}

// --- Table I: data complexity ---

// BenchmarkTableI_QRD_FMS_Data exercises the NP-complete data cell:
// dispersion search with an unreachable bound.
func BenchmarkTableI_QRD_FMS_Data(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	in := workload.Points(rng, 14, 2, 64, objective.MaxSum, 1, 7)
	best := solver.QRDBest(in)
	in.B = best.Value + 1
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		solver.QRDExact(in)
	}
}

// BenchmarkTableI_QRD_Fmono_Data exercises the PTIME cell (Thm 5.4).
func BenchmarkTableI_QRD_Fmono_Data(b *testing.B) {
	rng := rand.New(rand.NewSource(6))
	in := workload.Points(rng, 1024, 2, 1<<20, objective.Mono, 0.5, 10)
	in.B = 1
	in.Answers()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := solver.QRDMonoPTime(in); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTableI_DRP_FMM_Data exercises the coNP-complete cell.
func BenchmarkTableI_DRP_FMM_Data(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	in := workload.Points(rng, 14, 2, 64, objective.MaxMin, 1, 7)
	in.U = in.Answers()[:7]
	in.R = 1 << 30
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := solver.DRPExact(in); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTableI_DRP_Fmono_Data exercises the PTIME FindNext cell (Thm 6.4).
func BenchmarkTableI_DRP_Fmono_Data(b *testing.B) {
	rng := rand.New(rand.NewSource(8))
	in := workload.Points(rng, 512, 2, 1<<20, objective.Mono, 0.5, 8)
	in.U = in.Answers()[:8]
	in.R = 16
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := solver.DRPMonoPTime(in); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTableI_RDC_FMS_Data exercises the #P-complete counting cell.
func BenchmarkTableI_RDC_FMS_Data(b *testing.B) {
	rng := rand.New(rand.NewSource(9))
	in := workload.Points(rng, 16, 2, 64, objective.MaxSum, 1, 8)
	in.B = 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		solver.RDCExact(in)
	}
}

// BenchmarkTableI_RDC_Fmono_Data exercises the #P-complete (Turing) cell
// through the subset-sum dynamic program.
func BenchmarkTableI_RDC_Fmono_Data(b *testing.B) {
	rng := rand.New(rand.NewSource(10))
	// λ = 0 Fmono scores are c0/side: integral at scale = side. The bound
	// asks for 8-sets whose score sum reaches half the attainable maximum.
	in := workload.Points(rng, 64, 2, 128, objective.Mono, 0, 8)
	in.B = 4
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := solver.RDCModularDP(in, 128); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Table II: special cases ---

// BenchmarkTableII_Identity_Fmono exercises the PTIME identity-query cell
// (Cor 8.1).
func BenchmarkTableII_Identity_Fmono(b *testing.B) {
	rng := rand.New(rand.NewSource(11))
	in := workload.Points(rng, 1024, 2, 1<<20, objective.Mono, 0.5, 10)
	in.B = 1
	in.Answers()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := solver.QRDMonoPTime(in); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTableII_Lambda0_QRD exercises the λ=0 PTIME cell (Thm 8.2).
func BenchmarkTableII_Lambda0_QRD(b *testing.B) {
	rng := rand.New(rand.NewSource(12))
	in := workload.Points(rng, 1024, 2, 1<<20, objective.MaxSum, 0, 10)
	in.B = 1
	in.Answers()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := solver.QRDRelevanceOnlyPTime(in); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTableII_Lambda0_RDC_FMM exercises the FP counting cell (Thm 8.2).
func BenchmarkTableII_Lambda0_RDC_FMM(b *testing.B) {
	rng := rand.New(rand.NewSource(13))
	in := workload.Points(rng, 2048, 2, 1<<20, objective.MaxMin, 0, 10)
	in.B = 0.25
	in.Answers()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := solver.RDCMaxMinRelevanceOnlyFP(in); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTableII_ConstantK_RDC exercises the FP constant-k cell (Cor 8.4).
func BenchmarkTableII_ConstantK_RDC(b *testing.B) {
	rng := rand.New(rand.NewSource(14))
	in := workload.Points(rng, 128, 2, 64, objective.MaxSum, 0.5, 2)
	in.B = 0
	in.Answers()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		solver.RDCConstantK(in)
	}
}

// --- Table III: compatibility constraints ---

// BenchmarkTableIII_Constrained_Fmono_Data exercises the Theorem 9.3 cell:
// constraints flip the PTIME mono cell to NP-complete.
func BenchmarkTableIII_Constrained_Fmono_Data(b *testing.B) {
	rng := rand.New(rand.NewSource(15))
	f := sat.Random3SAT(rng, 6, 18)
	in := reduction.ThreeSATToConstrainedQRD(f)
	in.Answers()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		solver.QRDExact(in)
	}
}

// BenchmarkTableIII_Constrained_ConstantK exercises Cor 9.7: constant k
// stays tractable under constraints.
func BenchmarkTableIII_Constrained_ConstantK(b *testing.B) {
	rng := rand.New(rand.NewSource(16))
	f := sat.Random3SAT(rng, 6, 18)
	in := reduction.ThreeSATToConstrainedQRD(f)
	in.K = 2 // constant k overrides the clause count
	in.Answers()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		solver.QRDExact(in)
	}
}

// --- Figures ---

// BenchmarkFigure1_QRD_BoundMap regenerates the Figure 1 bound map.
func BenchmarkFigure1_QRD_BoundMap(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if s := bench.RenderFigure(core.QRD); len(s) == 0 {
			b.Fatal("empty figure")
		}
	}
}

// BenchmarkFigure2_DistanceConstruction builds and fully evaluates the
// Lemma 5.3 inductive distance of Figure 2's example.
func BenchmarkFigure2_DistanceConstruction(b *testing.B) {
	for i := 0; i < b.N; i++ {
		pd := reduction.NewPrefixDistance(reduction.Figure2QBF())
		for x := 1; x <= 16; x++ {
			for y := x + 1; y <= 16; y++ {
				pd.Dis(reduction.Figure2Tuple(x), reduction.Figure2Tuple(y))
			}
		}
	}
}

// BenchmarkFigure3_DRP_BoundMap regenerates the Figure 3 bound map.
func BenchmarkFigure3_DRP_BoundMap(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if s := bench.RenderFigure(core.DRP); len(s) == 0 {
			b.Fatal("empty figure")
		}
	}
}

// BenchmarkFigure4_RDC_BoundMap regenerates the Figure 4 bound map.
func BenchmarkFigure4_RDC_BoundMap(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if s := bench.RenderFigure(core.RDC); len(s) == 0 {
			b.Fatal("empty figure")
		}
	}
}

// BenchmarkFigure5_GadgetDatabase builds the Boolean gadget relations.
func BenchmarkFigure5_GadgetDatabase(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if db := reduction.GadgetDatabase(); db.Size() != 12 {
			b.Fatal("gadget size wrong")
		}
	}
}

// --- Ablations (Section 10's call for heuristics, and design choices) ---

// BenchmarkAblation_GreedyVsExact compares the 2-approximation greedy with
// exact search on the same instance.
func BenchmarkAblation_GreedyVsExact(b *testing.B) {
	rng := rand.New(rand.NewSource(17))
	in := workload.Clustered(rng, 4, 6, 1000, 10, objective.MaxSum, 0.7, 5)
	in.Answers()
	b.Run("greedy", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			approx.Greedy(in)
		}
	})
	b.Run("exact", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			solver.QRDBest(in)
		}
	})
	b.Run("local-search", func(b *testing.B) {
		seed := approx.Greedy(in)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			approx.LocalSearchSwap(in, seed.Set)
		}
	})
}

// BenchmarkAblation_PruningOnOff measures the branch-and-bound pruning gain
// on a refutation instance (unreachable bound).
func BenchmarkAblation_PruningOnOff(b *testing.B) {
	rng := rand.New(rand.NewSource(18))
	in := workload.Points(rng, 14, 2, 64, objective.MaxSum, 1, 7)
	best := solver.QRDBest(in)
	b.Run("pruned", func(b *testing.B) {
		in.B = best.Value + 1
		for i := 0; i < b.N; i++ {
			solver.QRDExact(in)
		}
	})
	b.Run("unpruned-full-enumeration", func(b *testing.B) {
		// B = 0 admits everything: the search cannot prune and must touch
		// every leaf, the brute-force baseline.
		in.B = 0
		for i := 0; i < b.N; i++ {
			solver.RDCExact(in)
		}
	})
}

// BenchmarkAblation_EarlyTermination compares the paper's Section 1
// embed-diversification-in-evaluation mode (stop at the first valid set
// while streaming Q(D)) against materialize-then-solve on a reachable
// bound, where early termination should avoid most of the evaluation.
func BenchmarkAblation_EarlyTermination(b *testing.B) {
	rng := rand.New(rand.NewSource(23))
	mk := func() *core.Instance {
		return workload.GiftInstance(rng, 60, 120, 3, objective.MaxSum, 1)
	}
	probe := mk()
	best := solver.QRDBest(probe)
	bound := best.Value / 2
	b.Run("online-early-stop", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			in := mk()
			in.B = bound
			if _, err := online.QRD(context.Background(), in, online.Options{CheckInterval: 4}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("materialize-then-solve", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			in := mk()
			in.B = bound
			in.Answers()
			solver.QRDExact(in)
		}
	})
}

// BenchmarkAblation_RankedVsExactDRP compares the Theorem 6.4 FindNext
// enumeration against exhaustive DRP on a modular objective.
func BenchmarkAblation_RankedVsExactDRP(b *testing.B) {
	rng := rand.New(rand.NewSource(19))
	in := workload.Points(rng, 18, 2, 1<<20, objective.Mono, 0.5, 6)
	in.U = in.Answers()[:6]
	in.R = 8
	b.Run("findnext-ptime", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := solver.DRPMonoPTime(in); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("exhaustive", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := solver.DRPExact(in); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAblation_EvaluatorLanguages compares query evaluation cost across
// the language hierarchy on the gift workload (the combined-complexity
// story at fixed data).
func BenchmarkAblation_EvaluatorLanguages(b *testing.B) {
	rng := rand.New(rand.NewSource(20))
	db := workload.GiftShop(rng, 50, 100)
	queries := map[string]func() *core.Instance{
		"CQ": func() *core.Instance {
			return &core.Instance{Query: workload.GiftCQQuery(20, 60), DB: db,
				Obj: objective.New(objective.MaxSum, nil, nil, 0.5), K: 3}
		},
		"FO": func() *core.Instance {
			return &core.Instance{Query: workload.GiftQuery("buyer00", "recipient00", 20, 60), DB: db,
				Obj: objective.New(objective.MaxSum, nil, nil, 0.5), K: 3}
		},
	}
	for name, mk := range queries {
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				in := mk()
				_ = in.Answers()
			}
		})
	}
}

// BenchmarkAblation_EvaluatorOptimizer measures the hash-index and
// conjunct-reordering gains on a three-way chain join with a late selective
// filter — the shape where join order and index probes decide the constant
// factors of the (polynomial) data-complexity regime.
func BenchmarkAblation_EvaluatorOptimizer(b *testing.B) {
	db, q := workload.ChainJoin(rand.New(rand.NewSource(22)), 400, 40)
	configs := []struct {
		name string
		opts eval.Options
	}{
		{"indexed+reordered", eval.Options{}},
		{"no-index", eval.Options{NoIndex: true}},
		{"no-reorder", eval.Options{NoReorder: true}},
		{"naive", eval.Options{NoIndex: true, NoReorder: true}},
	}
	want := -1
	for _, cfg := range configs {
		b.Run(cfg.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				ev := eval.NewWithOptions(q, db, cfg.opts)
				answers := ev.Result()
				n := len(answers)
				if want == -1 {
					want = n
				}
				if n != want {
					b.Fatalf("config %s: %d answers, want %d", cfg.name, n, want)
				}
			}
		})
	}
}

// BenchmarkAblation_SubsetEnumeration isolates the candidate-set generator.
func BenchmarkAblation_SubsetEnumeration(b *testing.B) {
	for i := 0; i < b.N; i++ {
		count := 0
		subset.ForEach(20, 5, func([]int) bool {
			count++
			return true
		})
		if count != 15504 {
			b.Fatalf("C(20,5) = %d", count)
		}
	}
}

// BenchmarkFacade_EndToEnd runs the public API end to end on the quickstart
// shape, the workload a downstream user hits first.
func BenchmarkFacade_EndToEnd(b *testing.B) {
	e := NewEngine()
	e.MustCreateTable("items", "id", "cat", "price")
	rng := rand.New(rand.NewSource(21))
	cats := []string{"a", "b", "c", "d"}
	for i := 0; i < 40; i++ {
		e.MustInsert("items", i, cats[rng.Intn(len(cats))], rng.Intn(100))
	}
	opts := []Option{
		WithK(4), WithObjective(MaxSum), WithLambda(0.6), WithAlgorithm(Greedy),
		WithDistance(func(a, c Row) float64 {
			if a.Get("cat") == c.Get("cat") {
				return 0
			}
			return 1
		}),
	}
	const src = "Q(id, cat, price) :- items(id, cat, price), price < 80"
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p, err := e.Prepare(src, opts...)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := p.Diversify(ctx); err != nil {
			b.Fatal(err)
		}
	}
}

// planeBenchInstance builds an identity-query instance over n tuples whose
// δrel/δdis are table-backed — the workload where per-lookup Tuple.Key()
// string building dominates and the interned score plane pays off most.
func planeBenchInstance(n, k int, kind objective.Kind, lambda float64) *core.Instance {
	rng := rand.New(rand.NewSource(42))
	in := workload.Points(rng, n, 2, 1<<20, kind, lambda, k)
	answers := in.Answers()
	tr := &objective.TableRelevance{Scores: map[string]float64{}, Default: 0.1}
	td := objective.NewTableDistance(0.5)
	for i, t := range answers {
		tr.Set(t, rng.Float64())
		for j := i + 1; j < len(answers); j++ {
			td.Set(t, answers[j], rng.Float64())
		}
	}
	in.Obj = objective.New(kind, tr, td, lambda)
	in.SetAnswers(answers)
	return in
}

// BenchmarkScorePlane tracks the interned score plane: build cost, and
// solve time on the materialized matrix against direct evaluation.
func BenchmarkScorePlane(b *testing.B) {
	b.Run("build-materialized-n1000", func(b *testing.B) {
		in := planeBenchInstance(1000, 8, objective.MaxSum, 0.5)
		answers := in.Answers()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			p := objective.NewPlane(in.Obj, answers, objective.PlaneOptions{})
			if !p.Materialize() {
				b.Fatal("materialization refused")
			}
		}
	})
	b.Run("greedy-fms-n200", func(b *testing.B) {
		for _, mode := range []string{"plane", "direct"} {
			b.Run(mode, func(b *testing.B) {
				in := planeBenchInstance(200, 10, objective.MaxSum, 0.5)
				if mode == "plane" {
					in.Plane().Materialize()
				} else {
					useDirectPlane(in)
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if res := approx.GreedyMaxSum(in); len(res.Set) != 10 {
						b.Fatal("greedy failed")
					}
				}
			})
		}
	})
	b.Run("exact-fms-n200-k3", func(b *testing.B) {
		in := planeBenchInstance(200, 3, objective.MaxSum, 0.5)
		in.Plane().Materialize()
		best := solver.QRDBest(in)
		in.B = best.Value + 1 // refutation: the search must prove it
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if res := solver.QRDExact(in); res.Exists {
				b.Fatal("refutation instance admitted a witness")
			}
		}
	})
	b.Run("mono-ptime-n1000", func(b *testing.B) {
		in := planeBenchInstance(1000, 10, objective.Mono, 0.5)
		in.B = 1
		// Warm: the row sums cache on the first solve.
		if _, err := solver.QRDMonoPTime(in); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := solver.QRDMonoPTime(in); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkPreparedVsOneShot measures the prepared-query API against the
// deprecated one-shot Request path on the same workload: Prepare performs
// parse/classify/validate once and caches the materialized answer set
// across calls, while each Request call repeats the full build-and-evaluate
// pipeline. The per-call gap is the entire point of compile-once/solve-many
// serving (expect well over 5x here, since the greedy solve itself is a
// small fraction of the one-shot cost).
func BenchmarkPreparedVsOneShot(b *testing.B) {
	e := NewEngine()
	e.MustCreateTable("items", "id", "category", "price")
	for i := 0; i < 200; i++ {
		e.MustInsert("items", i, []string{"book", "toy", "jewelry", "fashion", "artsy"}[i%5], 10+(i*37)%90)
	}
	const src = "Q(id, category, price) :- items(id, category, price), price <= 30"
	relevance := func(r Row) float64 { return 100 - float64(r.Get("price").(int64)) }
	distance := func(x, y Row) float64 {
		if x.Get("category") == y.Get("category") {
			return 0
		}
		return 1
	}

	b.Run("prepared", func(b *testing.B) {
		p, err := e.Prepare(src,
			WithK(3), WithObjective(MaxSum), WithLambda(0.5),
			WithAlgorithm(Greedy), WithRelevance(relevance), WithDistance(distance))
		if err != nil {
			b.Fatal(err)
		}
		ctx := context.Background()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := p.Diversify(ctx); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("oneshot", func(b *testing.B) {
		// The one-shot shape: re-prepare (parse, validate, classify) and
		// re-materialize on every call, the cost Prepare amortizes away.
		ctx := context.Background()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			p, err := e.Prepare(src,
				WithK(3), WithObjective(MaxSum), WithLambda(0.5),
				WithAlgorithm(Greedy), WithRelevance(relevance), WithDistance(distance))
			if err != nil {
				b.Fatal(err)
			}
			if _, err := p.Diversify(ctx); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkParallelSearch measures the exact search at 1, 2 and 4 workers,
// at n≈30, k=8 across the three objectives. Every arm warm-starts from the
// greedy incumbent: w1 walks the whole tree as one frame, w2 and w4 split it
// into frames against the shared incumbent. Results are byte-identical
// across arms (asserted by the brute-force differential and fuzz suites);
// what changes is wall-clock and the node count, which on multi-core
// hardware the frames divide. The "nodes/op" metric records visited
// search-tree nodes so the work is visible independently of the host's core
// count.
func BenchmarkParallelSearch(b *testing.B) {
	kinds := []struct {
		name string
		kind objective.Kind
	}{
		{"FMS", objective.MaxSum},
		{"FMM", objective.MaxMin},
		{"Fmono", objective.Mono},
	}
	for _, k := range kinds {
		for _, workers := range []int{1, 2, 4} {
			b.Run(fmt.Sprintf("%s/w%d", k.name, workers), func(b *testing.B) {
				rng := rand.New(rand.NewSource(42))
				in := workload.Points(rng, 30, 2, 64, k.kind, 0.5, 8)
				in.Parallelism = workers
				in.Answers()
				in.Plane() // build the shared plane outside the loop
				b.ResetTimer()
				nodes := 0
				for i := 0; i < b.N; i++ {
					res, err := solver.QRDBestContext(context.Background(), in)
					if err != nil {
						b.Fatal(err)
					}
					nodes = res.Stats.Nodes
				}
				b.ReportMetric(float64(nodes), "nodes/op")
			})
		}
	}
}

// BenchmarkDiversifyBatch measures the batch API against a sequential loop
// of standalone solves over the same variants: the batch shares one cached
// plane and runs items on a worker pool.
func BenchmarkDiversifyBatch(b *testing.B) {
	e := NewEngine()
	e.MustCreateTable("items", "id", "category", "price")
	for i := 0; i < 28; i++ {
		e.MustInsert("items", i, []string{"book", "toy", "jewelry", "fashion", "artsy"}[i%5], 10+(i*37)%90)
	}
	const src = "Q(id, category, price) :- items(id, category, price), price <= 99"
	opts := []Option{
		WithK(6), WithObjective(MaxMin), WithAlgorithm(Exact),
		WithRelevance(func(r Row) float64 { return 100 - float64(r.Get("price").(int64)) }),
		WithDistance(func(x, y Row) float64 {
			if x.Get("category") == y.Get("category") {
				return 0
			}
			return 1 + math.Abs(float64(x.Get("price").(int64))-float64(y.Get("price").(int64)))/90
		}),
	}
	var items []BatchItem
	for _, lambda := range []float64{0, 0.25, 0.5, 0.75, 1} {
		for _, k := range []int{4, 5, 6} {
			items = append(items, BatchItem{Opts: []Option{WithLambda(lambda), WithK(k)}})
		}
	}
	ctx := context.Background()
	b.Run("batch", func(b *testing.B) {
		p := e.MustPrepare(src, opts...)
		if _, err := p.Diversify(ctx); err != nil { // warm the plane
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := p.DiversifyBatch(ctx, items); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("loop", func(b *testing.B) {
		p := e.MustPrepare(src, opts...)
		if _, err := p.Diversify(ctx); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, item := range items {
				if _, err := p.Diversify(ctx, item.Opts...); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
}

// BenchmarkIncrementalRefresh measures bringing a Prepared handle's caches
// current after a mutation, with the change journal (delta evaluation +
// plane extension) against the rebuild-on-every-mutation path it replaced
// (the rebuild arm clears the handle's deltaOK: full re-evaluation plus a
// fresh plane — the cost every mutation paid before the journal existed).
// In the n arms each iteration inserts one fresh point into an identity
// query and refreshes; the delta path re-scores only the n pairs touching
// the new tuple. The join arms run one write-mix step per iteration (see
// benchWriteMixRefresh), whose delete reaches the delta's membership
// recheck.
func BenchmarkIncrementalRefresh(b *testing.B) {
	for _, mode := range []string{"delta", "rebuild"} {
		b.Run("join/"+mode, func(b *testing.B) { benchWriteMixRefresh(b, mode) })
	}
	for _, n := range []int{200, 400} {
		for _, mode := range []string{"delta", "rebuild"} {
			b.Run(fmt.Sprintf("n%d/%s", n, mode), func(b *testing.B) {
				e := NewEngine()
				e.MustCreateTable("P", "c0", "c1")
				rng := rand.New(rand.NewSource(42))
				seen := map[[2]int64]bool{}
				fresh := func() [2]int64 {
					for {
						pt := [2]int64{rng.Int63n(1 << 20), rng.Int63n(1 << 20)}
						if !seen[pt] {
							seen[pt] = true
							return pt
						}
					}
				}
				for i := 0; i < n; i++ {
					pt := fresh()
					e.MustInsert("P", pt[0], pt[1])
				}
				opts := []Option{
					WithK(5), WithObjective(MaxSum), WithLambda(0.5), WithAlgorithm(Greedy),
					WithRelevance(func(r Row) float64 { return float64(r.Get("c0").(int64)) / (1 << 20) }),
					WithDistance(func(x, y Row) float64 {
						dx := float64(x.Get("c0").(int64) - y.Get("c0").(int64))
						dy := float64(x.Get("c1").(int64) - y.Get("c1").(int64))
						return math.Sqrt(dx*dx + dy*dy)
					}),
				}
				p := e.MustPrepare("Q(c0, c1) :- P(c0, c1)", opts...)
				if mode == "rebuild" {
					p.deltaOK = false
				}
				ctx := context.Background()
				if _, err := p.Refresh(ctx); err != nil {
					b.Fatal(err)
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					pt := fresh()
					e.MustInsert("P", pt[0], pt[1])
					info, err := p.Refresh(ctx)
					if err != nil {
						b.Fatal(err)
					}
					if info.Mode != mode {
						b.Fatalf("refresh mode = %q, want %q", info.Mode, mode)
					}
				}
			})
		}
	}
}

// benchWriteMixRefresh times one write step plus Refresh on the shape of
// e2ebench's write-mix workload: 6,000 catalog(item, type, price, stock)
// rows joined with 24,000 distinct history(item, buyer, rating) rows under
// rating >= 4, about 4,700 answers scored with AttrDistance("t"). A step
// inserts an item, inserts a rating-4 purchase of it and deletes a random
// rating-4 purchase, so |Q(D)| stays level while every step changes it.
func benchWriteMixRefresh(b *testing.B, mode string) {
	rng := rand.New(rand.NewSource(1))
	e := NewEngine()
	e.MustCreateTable("catalog", "item", "type", "price", "stock")
	e.MustCreateTable("history", "item", "buyer", "rating")
	for i := 0; i < 6_000; i++ {
		e.MustInsert("catalog", fmt.Sprintf("w%05d", i), fmt.Sprintf("t%02d", rng.Intn(40)), 1+rng.Intn(500), rng.Intn(20))
	}
	var bought [][2]string // the rating-4 purchases a step may delete
	seen := map[[3]string]bool{}
	for len(seen) < 24_000 {
		item, buyer, rating := fmt.Sprintf("w%05d", rng.Intn(6_000)), fmt.Sprintf("u%03d", rng.Intn(500)), rng.Intn(5)
		if k := [3]string{item, buyer, strconv.Itoa(rating)}; !seen[k] {
			seen[k] = true
			e.MustInsert("history", item, buyer, rating)
			if rating == 4 {
				bought = append(bought, [2]string{item, buyer})
			}
		}
	}
	p := e.MustPrepare("Q(i, t, p, b) :- catalog(i, t, p, s), history(i, b, r), r >= 4",
		WithK(10), WithObjective(MaxSum), WithAlgorithm(Greedy),
		WithRelevance(AttrRelevance("p")), WithDistance(AttrDistance("t")))
	if mode == "rebuild" {
		p.deltaOK = false
	}
	ctx := context.Background()
	if _, err := p.Refresh(ctx); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		item, buyer := fmt.Sprintf("x%06d", i), fmt.Sprintf("u%03d", rng.Intn(500))
		e.MustInsert("catalog", item, fmt.Sprintf("t%02d", rng.Intn(40)), 1+rng.Intn(500), rng.Intn(20))
		e.MustInsert("history", item, buyer, 4)
		bought = append(bought, [2]string{item, buyer})
		j := rng.Intn(len(bought))
		if ok, err := e.Delete("history", bought[j][0], bought[j][1], 4); err != nil || !ok {
			b.Fatalf("delete %v: ok=%v err=%v", bought[j], ok, err)
		}
		bought[j] = bought[len(bought)-1]
		bought = bought[:len(bought)-1]
		info, err := p.Refresh(ctx)
		if err != nil {
			b.Fatal(err)
		}
		if info.Mode != mode {
			b.Fatalf("refresh mode = %q, want %q", info.Mode, mode)
		}
	}
}

// benchTuple is the deterministic row stream the recovery benchmarks
// persist and rebuild: mixed int/float columns like the points workloads.
func benchTuple(i int) relation.Tuple {
	return relation.Tuple{value.Int(int64(i * 37 % (1 << 20))), value.Float(float64(i) / 7)}
}

// benchMutate drives n inserts (plus the schema Add) through a tapped
// database, producing the WAL history the recovery arms consume.
func benchMutate(db *relation.Database, n int) {
	db.Add(relation.NewRelation(relation.NewSchema("P", "c0", "c1")))
	r := db.Relation("P")
	for i := 0; i < n; i++ {
		r.Insert(benchTuple(i))
	}
}

// BenchmarkRecovery measures the PR 6 warm-restart claim: reconstructing an
// n-row database from the durability subsystem — full log replay (crash
// with no snapshot) and snapshot load (the post-checkpoint fast path) —
// against the cold in-memory rebuild a restart cost before the WAL existed.
// Replay re-runs every mutation through the relation layer, so it tracks
// the rebuild arm plus decoding; the snapshot arm skips per-mutation work
// entirely and is the reason the snapshot cadence exists.
func BenchmarkRecovery(b *testing.B) {
	for _, n := range []int{200, 400} {
		// One directory per shape, prepared outside the timed loops.
		replayDir, snapDir := b.TempDir(), b.TempDir()
		for _, arm := range []struct {
			dir  string
			snap bool
		}{{replayDir, false}, {snapDir, true}} {
			l, err := wal.Create(arm.dir, wal.Options{Fsync: wal.FsyncOff})
			if err != nil {
				b.Fatal(err)
			}
			db := relation.NewDatabase()
			db.SetTap(l)
			benchMutate(db, n)
			if arm.snap {
				if _, err := l.Snapshot(db); err != nil {
					b.Fatal(err)
				}
			}
			if err := l.Close(); err != nil {
				b.Fatal(err)
			}
		}
		recoverArm := func(b *testing.B, dir string) {
			b.Helper()
			for i := 0; i < b.N; i++ {
				db, _, err := wal.Recover(dir)
				if err != nil {
					b.Fatal(err)
				}
				if db.Size() != n {
					b.Fatalf("recovered %d tuples, want %d", db.Size(), n)
				}
			}
		}
		b.Run(fmt.Sprintf("n%d/replay", n), func(b *testing.B) { recoverArm(b, replayDir) })
		b.Run(fmt.Sprintf("n%d/snapshot", n), func(b *testing.B) { recoverArm(b, snapDir) })
		b.Run(fmt.Sprintf("n%d/rebuild", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				db := relation.NewDatabase()
				benchMutate(db, n)
				if db.Size() != n {
					b.Fatalf("rebuilt %d tuples, want %d", db.Size(), n)
				}
			}
		})
	}
}
