package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"time"

	"repro/internal/approx"
	"repro/internal/core"
	"repro/internal/objective"
	"repro/internal/workload"
)

// planeRegimesReport is the JSON the -plane-regimes experiment emits: the
// plane build time, greedy FMS/FMM solve times and resident plane bytes per
// (n, regime) arm, for uniform and clustered metric point workloads.
type planeRegimesReport struct {
	Dim     int               `json:"dim"`
	K       int               `json:"k"`
	Lambda  float64           `json:"lambda"`
	Seed    int64             `json:"seed"`
	MaxN    int               `json:"max_n"`
	Results []planeRegimeArm  `json:"results"`
	Auto    []planeAutoChoice `json:"auto"`
}

// planeRegimeArm is one measured (workload, n, regime) cell. Arms whose
// requested quadratic store exceeds the memory guard are recorded skipped
// (the plane degrades to the memo cache, which has its own arm) instead of
// measured twice.
type planeRegimeArm struct {
	Workload   string `json:"workload"`
	N          int    `json:"n"`
	Regime     string `json:"regime"`
	Resolved   string `json:"resolved,omitempty"`
	Skipped    bool   `json:"skipped,omitempty"`
	BuildNs    int64  `json:"build_ns,omitempty"`
	FMSNs      int64  `json:"fms_ns,omitempty"`
	FMMNs      int64  `json:"fmm_ns,omitempty"`
	PlaneBytes int64  `json:"plane_bytes,omitempty"`
	MemoEntr   int64  `json:"memo_entries,omitempty"`
	MemoEvict  int64  `json:"memo_evictions,omitempty"`
}

// planeAutoChoice records what RegimeAuto resolves to at each n, so the
// report pins the planner's selection rule alongside the measurements.
type planeAutoChoice struct {
	N      int    `json:"n"`
	Regime string `json:"regime"`
}

// runPlaneRegimes sweeps the plane's storage regimes over growing metric
// point sets: for each n and each regime that holds the default 64 MiB
// guard, it builds the plane store, runs greedy FMS and FMM over it, and
// records wall times plus the plane's estimated resident bytes. The sweep
// is the evidence for the regime-selection rule: the matrix wins small n,
// and the metric index is the only store whose bytes stay O(n) at 10^5 and
// beyond.
func runPlaneRegimes(maxN int, seed int64) {
	const dim, k, lambda = 2, 10, 0.5
	sizes := []int{2_000, 5_000, 20_000, 100_000}
	regimes := []objective.Regime{
		objective.RegimeMaterialized, objective.RegimeIndexed, objective.RegimeMemoized,
	}
	rep := planeRegimesReport{Dim: dim, K: k, Lambda: lambda, Seed: seed, MaxN: maxN}

	for _, n := range sizes {
		if n > maxN {
			continue
		}
		for _, kind := range []string{"uniform", "clustered"} {
			base := regimePointsInstance(kind, n, dim, k, lambda, seed)
			answers := base.Answers()
			for _, regime := range regimes {
				arm := planeRegimeArm{Workload: kind, N: n, Regime: regime.String()}
				in := regimePointsInstance(kind, n, dim, k, lambda, seed)
				in.SetAnswers(answers)
				in.PlaneRegime = regime

				ctx := context.Background()
				start := time.Now()
				plane, err := in.PlaneContext(ctx)
				if err != nil {
					fatal(err)
				}
				if err := plane.EnsureReadyContext(ctx); err != nil {
					fatal(err)
				}
				arm.BuildNs = time.Since(start).Nanoseconds()
				arm.Resolved = plane.Regime().String()
				if plane.Regime() != regime {
					// The guard degraded the request (e.g. the matrix at
					// n=20000 needs ~1.6 GB): the resolved regime has its
					// own arm, so record the refusal and move on.
					arm.Skipped = true
					arm.BuildNs = 0
					rep.Results = append(rep.Results, arm)
					continue
				}

				start = time.Now()
				sum, err := approx.GreedyMaxSumContext(ctx, in)
				if err != nil {
					fatal(err)
				}
				arm.FMSNs = time.Since(start).Nanoseconds()

				inMin := regimePointsInstance(kind, n, dim, k, lambda, seed)
				inMin.Obj = objective.New(objective.MaxMin, inMin.Obj.Rel, inMin.Obj.Dis, lambda)
				inMin.SetAnswers(answers)
				inMin.SetPlane(plane)
				start = time.Now()
				min, err := approx.GreedyMaxMinContext(ctx, inMin)
				if err != nil {
					fatal(err)
				}
				arm.FMMNs = time.Since(start).Nanoseconds()
				if len(sum.Set) != k || len(min.Set) != k {
					fatal(fmt.Errorf("plane-regimes: n=%d %s picked %d/%d of k=%d",
						n, regime, len(sum.Set), len(min.Set), k))
				}

				arm.PlaneBytes = plane.MemoryFootprint()
				arm.MemoEntr, arm.MemoEvict = plane.MemoStats()
				rep.Results = append(rep.Results, arm)
			}
		}
		auto := regimePointsInstance("uniform", n, dim, k, lambda, seed)
		plane, err := auto.PlaneContext(context.Background())
		if err != nil {
			fatal(err)
		}
		rep.Auto = append(rep.Auto, planeAutoChoice{N: n, Regime: plane.Regime().String()})
	}

	out, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(out))
}

// regimePointsInstance builds the sweep's FMS point instance: n uniform or
// clustered integer points on a million-unit grid under Euclidean δdis.
func regimePointsInstance(kind string, n, dim, k int, lambda float64, seed int64) *core.Instance {
	rng := rand.New(rand.NewSource(seed))
	if kind == "clustered" {
		clusters := 50
		per := (n + clusters - 1) / clusters
		return workload.Clustered(rng, clusters, per, 1_000_000, 25_000, objective.MaxSum, lambda, k)
	}
	return workload.Points(rng, n, dim, 1_000_000, objective.MaxSum, lambda, k)
}
