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

// planeSweepReport is the JSON the -plane-regimes experiment emits: per
// (workload, n), the store the planner picked, its build time, greedy
// FMS/FMM solve times and resident plane bytes, for uniform and clustered
// metric point workloads.
type planeSweepReport struct {
	Dim     int             `json:"dim"`
	K       int             `json:"k"`
	Lambda  float64         `json:"lambda"`
	Seed    int64           `json:"seed"`
	MaxN    int             `json:"max_n"`
	Results []planeSweepArm `json:"results"`
}

// planeSweepArm is one measured (workload, n) cell.
type planeSweepArm struct {
	Workload   string `json:"workload"`
	N          int    `json:"n"`
	Regime     string `json:"regime"`
	BuildNs    int64  `json:"build_ns"`
	FMSNs      int64  `json:"fms_ns"`
	FMMNs      int64  `json:"fmm_ns"`
	PlaneBytes int64  `json:"plane_bytes"`
}

// runPlaneSweep sweeps the score plane over growing metric point sets:
// for each n it builds the store the planner picks (the matrix while it
// fits the 64 MiB guard, direct evaluation above it), runs greedy FMS and
// FMM over it, and records wall times plus the plane's estimated resident
// bytes.
func runPlaneSweep(maxN int, seed int64) {
	const dim, k, lambda = 2, 10, 0.5
	sizes := []int{2_000, 5_000, 20_000, 100_000}
	rep := planeSweepReport{Dim: dim, K: k, Lambda: lambda, Seed: seed, MaxN: maxN}

	for _, n := range sizes {
		if n > maxN {
			continue
		}
		for _, kind := range []string{"uniform", "clustered"} {
			in := regimePointsInstance(kind, n, dim, k, lambda, seed)
			answers := in.Answers()
			arm := planeSweepArm{Workload: kind, N: n}

			ctx := context.Background()
			start := time.Now()
			plane, err := in.PlaneContext(ctx)
			if err != nil {
				fatal(err)
			}
			if _, err := plane.MaterializeContext(ctx); err != nil {
				fatal(err)
			}
			arm.BuildNs = time.Since(start).Nanoseconds()
			arm.Regime = plane.Regime().String()

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
					n, kind, len(sum.Set), len(min.Set), k))
			}

			arm.PlaneBytes = plane.MemoryFootprint()
			rep.Results = append(rep.Results, arm)
		}
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
