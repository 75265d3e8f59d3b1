package main

import (
	"testing"

	"repro/internal/objective"
)

// TestPlaneSweepSmoke runs the -plane-regimes experiment at its
// smallest size so the sweep code cannot rot: both workloads must build and
// solve, and the report generator must not fatal.
func TestPlaneSweepSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("plane-regimes sweep skipped in -short mode")
	}
	runPlaneSweep(2_000, 1)
}

// TestRegimePointsInstance pins the sweep's two workload shapes: both build
// identity-query instances of the requested size with a metric δdis.
func TestRegimePointsInstance(t *testing.T) {
	for _, kind := range []string{"uniform", "clustered"} {
		in := regimePointsInstance(kind, 500, 2, 5, 0.5, 7)
		if got := len(in.Answers()); got == 0 || got > 500 {
			t.Fatalf("%s: %d answers, want (0, 500]", kind, got)
		}
		if in.Obj.Kind != objective.MaxSum {
			t.Fatalf("%s: kind %v", kind, in.Obj.Kind)
		}
	}
}
