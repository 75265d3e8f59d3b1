package bench

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/objective"
	"repro/internal/online"
	"repro/internal/query"
	"repro/internal/query/eval"
	"repro/internal/reduction"
	"repro/internal/relation"
	"repro/internal/sat"
	"repro/internal/solver"
	"repro/internal/value"
	"repro/internal/wal"
	"repro/internal/workload"
)

// Experiment is one empirical cell: a setting, a size sweep, and a runner
// that builds and solves an instance of the given size, reporting cost.
type Experiment struct {
	ID      string
	Table   string // "I", "II", "III", "ablation"
	Setting core.Setting
	Sizes   []int
	Run     func(n int) Measurement
}

// Result pairs an experiment with its sweep and classification.
type Result struct {
	Experiment *Experiment
	Series     Series
	Fit        Fit
	Bound      Bound
	Theorem    string
}

// Execute runs the sweep, stopping early if a single size exceeds budget.
func (e *Experiment) Execute(budget time.Duration) Result {
	var series Series
	for _, n := range e.Sizes {
		start := time.Now()
		m := e.Run(n)
		if m.Secs == 0 {
			m.Secs = time.Since(start).Seconds()
		}
		m.N = n
		series = append(series, m)
		if time.Since(start) > budget {
			break
		}
	}
	bound, thm := ProvedBound(e.Setting)
	return Result{Experiment: e, Series: series, Fit: Classify(series), Bound: bound, Theorem: thm}
}

// timed wraps a solve call, returning a Measurement carrying wall-clock and
// the solver's node count as machine-independent work.
func timed(f func() solver.Stats) Measurement {
	start := time.Now()
	st := f()
	return Measurement{Secs: time.Since(start).Seconds(), Work: float64(st.Nodes)}
}

// Catalog returns the experiment suite regenerating every table's empirical
// story. Each table cell with a distinct mechanism gets one experiment; the
// registry supplies the proved bound it is compared against.
func Catalog() []*Experiment {
	var exps []*Experiment

	// ---- Table I: data complexity ----

	// QRD(LQ, FMS) data: NP-complete. Dispersion-style search with an
	// unreachable bound forces full (pruned) exploration.
	exps = append(exps, &Experiment{
		ID:      "I/QRD-FMS-data",
		Table:   "I",
		Setting: core.Setting{Problem: core.QRD, Language: query.Identity, Objective: objective.MaxSum, Data: true},
		Sizes:   []int{8, 10, 12, 14, 16, 18},
		Run: func(n int) Measurement {
			rng := rand.New(rand.NewSource(int64(n)))
			in := workload.Points(rng, n, 2, 64, objective.MaxSum, 1, n/2)
			best := solver.QRDBest(in)
			in.B = best.Value + 1 // unreachable: the decision must refute
			return timed(func() solver.Stats { return solver.QRDExact(in).Stats })
		},
	})

	// QRD(LQ, Fmono) data: PTIME (Thm 5.4).
	exps = append(exps, &Experiment{
		ID:      "I/QRD-Fmono-data",
		Table:   "I",
		Setting: core.Setting{Problem: core.QRD, Language: query.Identity, Objective: objective.Mono, Data: true},
		Sizes:   []int{128, 256, 512, 1024, 2048},
		Run: func(n int) Measurement {
			rng := rand.New(rand.NewSource(int64(n)))
			in := workload.Points(rng, n, 2, 1<<20, objective.Mono, 0.5, 8)
			in.B = 1
			start := time.Now()
			if _, err := solver.QRDMonoPTime(in); err != nil {
				panic(err)
			}
			return Measurement{Secs: time.Since(start).Seconds()}
		},
	})

	// DRP(LQ, FMS) data: coNP-complete. Count sets beating a mid-quality U.
	exps = append(exps, &Experiment{
		ID:      "I/DRP-FMS-data",
		Table:   "I",
		Setting: core.Setting{Problem: core.DRP, Language: query.Identity, Objective: objective.MaxSum, Data: true},
		Sizes:   []int{8, 10, 12, 14, 16},
		Run: func(n int) Measurement {
			rng := rand.New(rand.NewSource(int64(n)))
			in := workload.Points(rng, n, 2, 64, objective.MaxSum, 1, n/2)
			in.U = in.Answers()[:n/2] // an arbitrary candidate set
			in.R = 1 << 30            // force counting every better set
			return timed(func() solver.Stats {
				res, err := solver.DRPExact(in)
				if err != nil {
					panic(err)
				}
				return res.Stats
			})
		},
	})

	// DRP(LQ, Fmono) data: PTIME (Thm 6.4).
	exps = append(exps, &Experiment{
		ID:      "I/DRP-Fmono-data",
		Table:   "I",
		Setting: core.Setting{Problem: core.DRP, Language: query.Identity, Objective: objective.Mono, Data: true},
		Sizes:   []int{128, 256, 512, 1024},
		Run: func(n int) Measurement {
			rng := rand.New(rand.NewSource(int64(n)))
			in := workload.Points(rng, n, 2, 1<<20, objective.Mono, 0.5, 6)
			in.U = in.Answers()[:6]
			in.R = 10
			start := time.Now()
			if _, err := solver.DRPMonoPTime(in); err != nil {
				panic(err)
			}
			return Measurement{Secs: time.Since(start).Seconds()}
		},
	})

	// RDC(LQ, FMS) data: #P-complete — count everything above a low bound.
	exps = append(exps, &Experiment{
		ID:      "I/RDC-FMS-data",
		Table:   "I",
		Setting: core.Setting{Problem: core.RDC, Language: query.Identity, Objective: objective.MaxSum, Data: true},
		Sizes:   []int{8, 10, 12, 14, 16},
		Run: func(n int) Measurement {
			rng := rand.New(rand.NewSource(int64(n)))
			in := workload.Points(rng, n, 2, 64, objective.MaxSum, 1, n/2)
			in.B = 0
			return timed(func() solver.Stats { return solver.RDCExact(in).Stats })
		},
	})

	// ---- Table I: combined complexity ----

	// QRD(CQ, FMS) combined: NP-complete via the Thm 5.1 3SAT gadget.
	exps = append(exps, &Experiment{
		ID:      "I/QRD-CQ-FMS-combined",
		Table:   "I",
		Setting: core.Setting{Problem: core.QRD, Language: query.CQ, Objective: objective.MaxSum},
		Sizes:   []int{3, 4, 5, 6, 7, 8},
		Run: func(n int) Measurement {
			rng := rand.New(rand.NewSource(int64(n) * 7))
			f := sat.Random3SAT(rng, n, 3*n)
			in := reduction.ThreeSATToQRDMaxSum(f)
			return timed(func() solver.Stats { return solver.QRDExact(in).Stats })
		},
	})

	// QRD(CQ, Fmono) combined: PSPACE-complete via the Thm 5.2 Q3SAT gadget
	// (the cube query makes |Q(D)| = 2^n from constant-size D).
	exps = append(exps, &Experiment{
		ID:      "I/QRD-CQ-Fmono-combined",
		Table:   "I",
		Setting: core.Setting{Problem: core.QRD, Language: query.CQ, Objective: objective.Mono},
		Sizes:   []int{4, 5, 6, 7, 8, 9, 10},
		Run: func(n int) Measurement {
			rng := rand.New(rand.NewSource(int64(n) * 11))
			q := sat.RandomQBF(rng, n, 2*n)
			q.Matrix.NumVars = n
			in := reduction.Q3SATToQRDMono(q)
			// The exponential cost is the cube query's 2^n answer space and
			// the Fmono distance sums over it, not the handful of search
			// nodes (k = 1); classify on wall-clock, with the answer count
			// as the work measure.
			start := time.Now()
			solver.QRDExact(in)
			return Measurement{Secs: time.Since(start).Seconds(), Work: float64(len(in.Answers()))}
		},
	})

	// QRD(FO, FMS) combined: PSPACE-complete — FO evaluation with a deep
	// quantifier chain dominates.
	exps = append(exps, &Experiment{
		ID:      "I/QRD-FO-FMS-combined",
		Table:   "I",
		Setting: core.Setting{Problem: core.QRD, Language: query.FO, Objective: objective.MaxSum},
		Sizes:   []int{8, 11, 14, 17, 20},
		Run: func(n int) Measurement {
			in := deepFOInstance(n)
			// The exponential cost is evaluating the n-deep alternating
			// quantifier chain (2^n branches over the Boolean domain); the
			// subset search on the two-tuple answer is constant. Classify
			// on wall-clock.
			start := time.Now()
			solver.QRDExact(in)
			return Measurement{Secs: time.Since(start).Seconds()}
		},
	})

	// DRP(CQ, FMS) combined: coNP-complete via the Theorem 6.1 co-3SAT
	// gadget — deciding rank(U) ≤ 1 refutes satisfiability.
	exps = append(exps, &Experiment{
		ID:      "I/DRP-CQ-FMS-combined",
		Table:   "I",
		Setting: core.Setting{Problem: core.DRP, Language: query.CQ, Objective: objective.MaxSum},
		Sizes:   []int{3, 4, 5},
		Run: func(n int) Measurement {
			rng := rand.New(rand.NewSource(int64(n) * 17))
			f := sat.Random3SAT(rng, n, 3*n)
			in, err := reduction.CoThreeSATToDRPMaxSum(f)
			if err != nil {
				panic(err)
			}
			return timed(func() solver.Stats {
				res, derr := solver.DRPExact(in)
				if derr != nil {
					panic(derr)
				}
				return res.Stats
			})
		},
	})

	// RDC(CQ, FMS) combined: #·NP-complete — counting the Theorem 7.4
	// instance counts satisfying assignments (#SAT embedded in RDC).
	exps = append(exps, &Experiment{
		ID:      "I/RDC-CQ-FMS-combined",
		Table:   "I",
		Setting: core.Setting{Problem: core.RDC, Language: query.CQ, Objective: objective.MaxSum},
		Sizes:   []int{3, 4, 5},
		Run: func(n int) Measurement {
			rng := rand.New(rand.NewSource(int64(n) * 19))
			f := sat.Random3SAT(rng, n, 2*n)
			in := reduction.SATToRDCCount(f, false)
			return timed(func() solver.Stats { return solver.RDCExact(in).Stats })
		},
	})

	// ---- Table II: special cases ----

	// λ=0 data: PTIME (Thm 8.2).
	exps = append(exps, &Experiment{
		ID:      "II/QRD-lambda0-data",
		Table:   "II",
		Setting: core.Setting{Problem: core.QRD, Language: query.Identity, Objective: objective.MaxSum, Data: true, Lambda0: true},
		Sizes:   []int{128, 256, 512, 1024, 2048},
		Run: func(n int) Measurement {
			rng := rand.New(rand.NewSource(int64(n)))
			in := workload.Points(rng, n, 2, 1<<20, objective.MaxSum, 0, 8)
			in.B = 1
			start := time.Now()
			if _, err := solver.QRDRelevanceOnlyPTime(in); err != nil {
				panic(err)
			}
			return Measurement{Secs: time.Since(start).Seconds()}
		},
	})

	// λ=0 FMM RDC data: FP (Thm 8.2).
	exps = append(exps, &Experiment{
		ID:      "II/RDC-FMM-lambda0-data",
		Table:   "II",
		Setting: core.Setting{Problem: core.RDC, Language: query.Identity, Objective: objective.MaxMin, Data: true, Lambda0: true},
		Sizes:   []int{256, 512, 1024, 2048, 4096},
		Run: func(n int) Measurement {
			rng := rand.New(rand.NewSource(int64(n)))
			in := workload.Points(rng, n, 2, 1<<20, objective.MaxMin, 0, 8)
			in.B = 0.25
			start := time.Now()
			if _, err := solver.RDCMaxMinRelevanceOnlyFP(in); err != nil {
				panic(err)
			}
			return Measurement{Secs: time.Since(start).Seconds()}
		},
	})

	// Constant k data: FP for RDC (Cor 8.4) — O(n^k) enumeration.
	exps = append(exps, &Experiment{
		ID:      "II/RDC-constk-data",
		Table:   "II",
		Setting: core.Setting{Problem: core.RDC, Language: query.Identity, Objective: objective.MaxSum, Data: true, ConstantK: true},
		Sizes:   []int{32, 64, 128, 256},
		Run: func(n int) Measurement {
			rng := rand.New(rand.NewSource(int64(n)))
			in := workload.Points(rng, n, 2, 64, objective.MaxSum, 0.5, 2)
			in.B = 0
			return timed(func() solver.Stats { return solver.RDCConstantK(in).Stats })
		},
	})

	// ---- Table III: compatibility constraints ----

	// Fmono data + Σ: NP-complete (Thm 9.3) via the fixed-Σ 3SAT gadget.
	exps = append(exps, &Experiment{
		ID:      "III/QRD-Fmono-constrained-data",
		Table:   "III",
		Setting: core.Setting{Problem: core.QRD, Language: query.Identity, Objective: objective.Mono, Data: true, Constraints: true},
		// The refutation family doubles the consistent witness combinations
		// per size step while the database grows linearly — the blow-up IS
		// the Theorem 9.3 story (a PTIME cell turned NP-complete by Σ).
		Sizes: []int{4, 6, 8, 10, 12},
		Run: func(n int) Measurement {
			in := reduction.HardConstrainedRefutation(n)
			return timed(func() solver.Stats { return solver.QRDExact(in).Stats })
		},
	})

	// Constant k data + Σ: still PTIME (Cor 9.7).
	exps = append(exps, &Experiment{
		ID:      "III/QRD-constk-constrained-data",
		Table:   "III",
		Setting: core.Setting{Problem: core.QRD, Language: query.Identity, Objective: objective.Mono, Data: true, ConstantK: true, Constraints: true},
		Sizes:   []int{32, 64, 128, 256},
		Run: func(n int) Measurement {
			rng := rand.New(rand.NewSource(int64(n)))
			in := workload.Points(rng, n, 2, 64, objective.Mono, 0.5, 2)
			in.B = 0
			in.Sigma = reduction.ConstrainedSigma()
			// The points schema has no cid/var/val attributes, so Σ is
			// vacuous here; what is measured is constrained-search cost.
			return timed(func() solver.Stats { return solver.QRDExact(in).Stats })
		},
	})

	// ---- Ablation: early termination (Section 1 motivation) ----

	// Embedding diversification in query evaluation and stopping at the
	// first valid set, against materializing Q(D) and solving afterwards.
	// With a comfortably reachable bound the online procedure should touch
	// a small prefix of the answers.
	earlyInstance := func(n int) *core.Instance {
		rng := rand.New(rand.NewSource(int64(n) * 3))
		in := workload.GiftInstance(rng, n, 2*n, 3, objective.MaxSum, 1)
		best := solver.QRDBest(in)
		fresh := workload.GiftInstance(rand.New(rand.NewSource(int64(n)*3)), n, 2*n, 3, objective.MaxSum, 1)
		fresh.B = best.Value / 2
		return fresh
	}
	exps = append(exps, &Experiment{
		ID:      "ablation/QRD-early-termination",
		Table:   "ablation",
		Setting: core.Setting{Problem: core.QRD, Language: query.FO, Objective: objective.MaxSum, Data: true},
		Sizes:   []int{20, 40, 80, 160},
		Run: func(n int) Measurement {
			in := earlyInstance(n)
			start := time.Now()
			res, err := online.QRD(context.Background(), in, online.Options{CheckInterval: 4})
			if err != nil {
				panic(err)
			}
			return Measurement{Secs: time.Since(start).Seconds(), Work: float64(res.Seen)}
		},
	})
	exps = append(exps, &Experiment{
		ID:      "ablation/QRD-materialize-then-solve",
		Table:   "ablation",
		Setting: core.Setting{Problem: core.QRD, Language: query.FO, Objective: objective.MaxSum, Data: true},
		Sizes:   []int{20, 40, 80, 160},
		Run: func(n int) Measurement {
			in := earlyInstance(n)
			start := time.Now()
			answers := in.Answers()
			solver.QRDExact(in)
			return Measurement{Secs: time.Since(start).Seconds(), Work: float64(len(answers))}
		},
	})

	// ---- Ablation: parallel branch-and-bound (warm-started incumbent) ----

	// The sequential exact search against the frame-parallel one with the
	// greedy warm start, on the FMM dispersion family where the incumbent
	// bound bites hardest. Work counts visited nodes, so the ablation shows
	// the pruning gain even on single-core hosts; wall-clock additionally
	// shows the frame parallelism on multi-core ones. Both paths return
	// byte-identical results (asserted by the differential/fuzz suites).
	parallelInstance := func(n int, workers int) *core.Instance {
		rng := rand.New(rand.NewSource(int64(n)))
		in := workload.Points(rng, n, 2, 64, objective.MaxMin, 0.5, 8)
		in.Parallelism = workers
		return in
	}
	exps = append(exps, &Experiment{
		ID:      "ablation/QRD-sequential-search",
		Table:   "ablation",
		Setting: core.Setting{Problem: core.QRD, Language: query.Identity, Objective: objective.MaxMin, Data: true},
		Sizes:   []int{16, 20, 24, 28, 32},
		Run: func(n int) Measurement {
			in := parallelInstance(n, 1)
			in.Answers()
			return timed(func() solver.Stats { return solver.QRDBest(in).Stats })
		},
	})
	exps = append(exps, &Experiment{
		ID:      "ablation/QRD-parallel-search",
		Table:   "ablation",
		Setting: core.Setting{Problem: core.QRD, Language: query.Identity, Objective: objective.MaxMin, Data: true},
		Sizes:   []int{16, 20, 24, 28, 32},
		Run: func(n int) Measurement {
			// At least 2 workers even on single-core hosts: Parallelism <= 1
			// would fall back to the sequential walk and the ablation would
			// measure nothing. With 2+ the warm-started shared incumbent is
			// active regardless of how many frames truly run simultaneously.
			workers := runtime.GOMAXPROCS(0)
			if workers < 2 {
				workers = 2
			}
			in := parallelInstance(n, workers)
			in.Answers()
			return timed(func() solver.Stats { return solver.QRDBest(in).Stats })
		},
	})

	// ---- Ablation: incremental refresh vs rebuild-on-mutation ----

	// A warm cache (sorted answers + materialized plane) absorbing a burst
	// of single-tuple inserts: the incremental path patches the answer set
	// via the change journal and rebases the plane (only pairs touching a
	// new tuple evaluate δdis), the rebuild path re-evaluates and refills
	// from scratch after every insert — the pre-journal behavior. Work
	// counts δdis evaluations, the dominant cost, so the O(n·updates) vs
	// O(n²·updates) gap shows machine-independently.
	const refreshUpdates = 8
	exps = append(exps, &Experiment{
		ID:      "ablation/refresh-incremental",
		Table:   "ablation",
		Setting: core.Setting{Problem: core.QRD, Language: query.Identity, Objective: objective.MaxSum, Data: true},
		Sizes:   []int{200, 400, 800, 1600},
		Run: func(n int) Measurement {
			db, q, o, cd := refreshWorkload(n)
			ctx := context.Background()
			answers := eval.Evaluate(q, db)
			plane := objective.NewPlane(o, answers, objective.PlaneOptions{})
			plane.Materialize()
			cd.calls.Store(0)
			start := time.Now()
			gen := db.Generation()
			rng := rand.New(rand.NewSource(99))
			for u := 0; u < refreshUpdates; u++ {
				insertFreshPoint(db, rng)
				changes, ok := db.ChangesSince(gen)
				if !ok {
					panic("bench: journal must cover a single insert")
				}
				d, ok, err := eval.Delta(ctx, q, db, changes, answers)
				if err != nil || !ok {
					panic(fmt.Sprintf("bench: delta refused: %v", err))
				}
				var from []int
				answers, from = relation.Merge(answers, nil, d.Added)
				if plane, err = plane.Rebase(ctx, answers, from); err != nil {
					panic(err)
				}
				gen = db.Generation()
			}
			return Measurement{Secs: time.Since(start).Seconds(), Work: float64(cd.calls.Load())}
		},
	})
	exps = append(exps, &Experiment{
		ID:      "ablation/refresh-rebuild",
		Table:   "ablation",
		Setting: core.Setting{Problem: core.QRD, Language: query.Identity, Objective: objective.MaxSum, Data: true},
		Sizes:   []int{200, 400, 800, 1600},
		Run: func(n int) Measurement {
			db, q, o, cd := refreshWorkload(n)
			eval.Evaluate(q, db) // warm, as the incremental arm is
			cd.calls.Store(0)
			start := time.Now()
			rng := rand.New(rand.NewSource(99))
			for u := 0; u < refreshUpdates; u++ {
				insertFreshPoint(db, rng)
				answers := eval.Evaluate(q, db)
				plane := objective.NewPlane(o, answers, objective.PlaneOptions{})
				plane.Materialize()
			}
			return Measurement{Secs: time.Since(start).Seconds(), Work: float64(cd.calls.Load())}
		},
	})

	// ---- Ablation: warm restart (WAL replay / snapshot) vs cold rebuild ----

	// Restart cost for an n-row points database under the durability
	// subsystem. The replay arm recovers from a log alone (a crash before
	// any checkpoint: every mutation re-runs through the relation layer
	// plus frame decoding), the snapshot arm from a checkpoint at the head
	// generation (the fast path the snapshot cadence buys), and the rebuild
	// arm re-inserts everything in memory — the only option before the WAL
	// existed, and one that silently loses any state not re-derivable from
	// the driver. Work counts tuples restored, so all arms share a unit.
	exps = append(exps, &Experiment{
		ID:      "durability/recovery-replay",
		Table:   "ablation",
		Setting: core.Setting{Problem: core.QRD, Language: query.Identity, Objective: objective.MaxSum, Data: true},
		Sizes:   []int{200, 400, 800, 1600},
		Run:     func(n int) Measurement { return recoverDir(durableDir(n, false), n) },
	})
	exps = append(exps, &Experiment{
		ID:      "durability/recovery-snapshot",
		Table:   "ablation",
		Setting: core.Setting{Problem: core.QRD, Language: query.Identity, Objective: objective.MaxSum, Data: true},
		Sizes:   []int{200, 400, 800, 1600},
		Run:     func(n int) Measurement { return recoverDir(durableDir(n, true), n) },
	})
	exps = append(exps, &Experiment{
		ID:      "durability/recovery-rebuild",
		Table:   "ablation",
		Setting: core.Setting{Problem: core.QRD, Language: query.Identity, Objective: objective.MaxSum, Data: true},
		Sizes:   []int{200, 400, 800, 1600},
		Run: func(n int) Measurement {
			start := time.Now()
			db := relation.NewDatabase()
			insertRecoveryRows(db, n)
			return Measurement{Secs: time.Since(start).Seconds(), Work: float64(db.Size())}
		},
	})

	return exps
}

// insertRecoveryRows drives the recovery ablation's mutation history: a
// schema Add plus n mixed int/float inserts, mirroring the points workloads.
func insertRecoveryRows(db *relation.Database, n int) {
	db.Add(relation.NewRelation(relation.NewSchema("P", "c0", "c1")))
	r := db.Relation("P")
	for i := 0; i < n; i++ {
		r.Insert(relation.Tuple{value.Int(int64(i * 37 % (1 << 20))), value.Float(float64(i) / 7)})
	}
}

// durableDir materializes the recovery ablation's on-disk state: a WAL
// directory holding an n-row history, optionally checkpointed at the head
// generation so recovery loads the snapshot and replays nothing.
func durableDir(n int, snapshot bool) string {
	dir, err := os.MkdirTemp("", "divbench-wal-")
	if err != nil {
		panic(err)
	}
	l, err := wal.Create(dir, wal.Options{Fsync: wal.FsyncOff})
	if err != nil {
		panic(err)
	}
	db := relation.NewDatabase()
	db.SetTap(l)
	insertRecoveryRows(db, n)
	if snapshot {
		if _, err := l.Snapshot(db); err != nil {
			panic(err)
		}
	}
	if err := l.Close(); err != nil {
		panic(err)
	}
	return dir
}

// recoverDir times one wal.Recover of dir, then removes it.
func recoverDir(dir string, n int) Measurement {
	defer os.RemoveAll(dir)
	start := time.Now()
	db, _, err := wal.Recover(dir)
	if err != nil {
		panic(err)
	}
	secs := time.Since(start).Seconds()
	if db.Size() != n {
		panic(fmt.Sprintf("bench: recovered %d tuples, want %d", db.Size(), n))
	}
	return Measurement{Secs: secs, Work: float64(db.Size())}
}

// countingDistance wraps a Distance counting evaluations, the work unit of
// the refresh ablation. The counter is atomic because the parallel matrix
// fill calls Dis from several workers.
type countingDistance struct {
	inner objective.Distance
	calls atomic.Int64
}

func (c *countingDistance) Dis(s, t relation.Tuple) float64 {
	c.calls.Add(1)
	return c.inner.Dis(s, t)
}

// refreshWorkload builds the dynamic-points refresh ablation's pieces: a
// points database, its identity query, and an FMS objective whose distance
// evaluations are counted.
func refreshWorkload(n int) (*relation.Database, *query.Query, *objective.Objective, *countingDistance) {
	rng := rand.New(rand.NewSource(int64(n)))
	in := workload.Points(rng, n, 2, 1<<20, objective.MaxSum, 0.5, 8)
	cd := &countingDistance{inner: objective.EuclideanDistance()}
	o := objective.New(objective.MaxSum, objective.AttrRelevance(0, 1.0/(1<<20)), cd, 0.5)
	return in.DB, in.Query, o, cd
}

// insertFreshPoint inserts one previously absent 2-D point.
func insertFreshPoint(db *relation.Database, rng *rand.Rand) {
	rel := db.Relation("P")
	for {
		t := relation.Ints(rng.Int63n(1<<20), rng.Int63n(1<<20))
		if rel.Insert(t) {
			return
		}
	}
}

// deepFOInstance builds a QRD instance whose FO query carries an
// n-deep alternating quantifier chain over the Boolean domain:
// Q(x) :- R01(x) ∧ ∀y1 ∃y2 ∀y3 ... (R01(yi) → yi = yi).
func deepFOInstance(n int) *core.Instance {
	var chain query.Formula = &query.Cmp{Op: query.EQ, L: query.V("x"), R: query.V("x")}
	for i := n; i >= 1; i-- {
		v := fmt.Sprintf("y%d", i)
		guarded := &query.Or{Fs: []query.Formula{
			&query.Not{F: &query.Atom{Rel: reduction.RelBool, Args: []query.Term{query.V(v)}}},
			&query.And{Fs: []query.Formula{chain, &query.Cmp{Op: query.EQ, L: query.V(v), R: query.V(v)}}},
		}}
		if i%2 == 1 {
			chain = &query.ForAll{Vars: []string{v}, F: guarded}
		} else {
			chain = &query.Exists{Vars: []string{v}, F: &query.And{Fs: []query.Formula{
				&query.Atom{Rel: reduction.RelBool, Args: []query.Term{query.V(v)}}, chain,
			}}}
		}
	}
	q := query.MustNew("DeepFO", []string{"x"},
		&query.And{Fs: []query.Formula{
			&query.Atom{Rel: reduction.RelBool, Args: []query.Term{query.V("x")}},
			chain,
		}})
	db := reduction.GadgetDatabase()
	return &core.Instance{
		Query: q,
		DB:    db,
		Obj:   objective.New(objective.MaxSum, objective.ConstRelevance(1), objective.HammingDistance(), 0.5),
		K:     1,
		B:     0,
	}
}
