package diversification

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"
)

// TestDegradedAnswerMatchesGreedy is the differential pin for the
// mid-solve abort: the flagged approximate answer an exact search ships
// when it hits its soft deadline must be byte-identical — same rows, same
// value — to what the greedy route computes on the same instance, because
// it IS the warm-start greedy incumbent.
func TestDegradedAnswerMatchesGreedy(t *testing.T) {
	_, p := intractableEngine(t)

	greedyAlg := Greedy
	want, err := p.Do(context.Background(), Request{Problem: ProblemDiversify, Algorithm: &greedyAlg})
	if err != nil {
		t.Fatalf("greedy reference solve: %v", err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 300*time.Millisecond)
	defer cancel()
	got, err := p.Do(ctx, Request{Problem: ProblemDiversify})
	if err != nil {
		t.Fatalf("deadline-pressured solve: %v", err)
	}
	if !got.Degraded || got.Route != "greedy" {
		t.Fatalf("got route=%q degraded=%v, want flagged greedy degradation", got.Route, got.Degraded)
	}
	if got.Selection.Value != want.Selection.Value {
		t.Errorf("degraded value %v != greedy incumbent value %v", got.Selection.Value, want.Selection.Value)
	}
	if len(got.Selection.Rows) != len(want.Selection.Rows) {
		t.Fatalf("degraded selection has %d rows, greedy %d", len(got.Selection.Rows), len(want.Selection.Rows))
	}
	for i := range got.Selection.Rows {
		if got.Selection.Rows[i].String() != want.Selection.Rows[i].String() {
			t.Errorf("row %d: degraded %v != greedy %v", i, got.Selection.Rows[i], want.Selection.Rows[i])
		}
	}
}

// TestMonoSolveHonorsDeadline: an Fmono solve scores every answer by its
// distance row sum. Over an opaque distance function that is an O(n²) scan
// of the plane, and on a large handle (here 8,000 answers on the metric
// index) greedy and exact mono requests must stop at the request deadline
// rather than finish the scan. The same distance given as an AttrDistance
// is served from category lists, where the row sums cost O(n), so the same
// requests answer inside the deadline: greedy outright, exact with its
// greedy incumbent when the search cannot finish.
func TestMonoSolveHonorsDeadline(t *testing.T) {
	e := NewEngine()
	e.MustCreateTable("items", "id", "cat")
	for i := 0; i < 8000; i++ {
		e.MustInsert("items", i, i%7)
	}
	prepare := func(dis Option) *Prepared {
		p, err := e.Prepare("Q(id, cat) :- items(id, cat)", WithK(3), WithObjective(Mono), dis)
		if err != nil {
			t.Fatal(err)
		}
		// Build the plane outside the deadline, so only the solve is timed.
		if _, err := p.Refresh(context.Background()); err != nil {
			t.Fatal(err)
		}
		return p
	}
	opaque := prepare(WithDistance(func(a, b Row) float64 { return AttrDistance("cat").Dis(a, b) }))
	category := prepare(WithDistance(AttrDistance("cat")))
	for _, alg := range []Algorithm{Greedy, Exact} {
		ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
		start := time.Now()
		_, err := opaque.Do(ctx, Request{Problem: ProblemDiversify, Algorithm: &alg})
		elapsed := time.Since(start)
		cancel()
		if !errors.Is(err, context.DeadlineExceeded) || elapsed > time.Second {
			t.Errorf("%s mono solve under a 20ms deadline: err %v after %v, want %v within 1s",
				alg, err, elapsed, context.DeadlineExceeded)
		}

		ctx, cancel = context.WithTimeout(context.Background(), 20*time.Millisecond)
		resp, err := category.Do(ctx, Request{Problem: ProblemDiversify, Algorithm: &alg})
		cancel()
		if err != nil || len(resp.Selection.Rows) != 3 {
			t.Errorf("%s mono solve on category lists under a 20ms deadline: err %v, want a 3-row selection", alg, err)
		}
	}
}

// TestPlanStageDegradeFromHint checks the plan-stage downgrade: a seeded
// pessimistic cost hint makes a deadline-pressured request route straight
// to greedy — no exact search is attempted at all — with the abandoned
// chain recorded.
func TestPlanStageDegradeFromHint(t *testing.T) {
	e, p := intractableEngine(t)
	e.SeedCostHint("exact", time.Hour)
	e.SeedCostHint("parallel-exact", time.Hour)

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	pl, err := p.Plan(ctx, Request{Problem: ProblemDiversify})
	if err != nil {
		t.Fatal(err)
	}
	if pl.Route() != "greedy" {
		t.Fatalf("plan chose route %q, want greedy (hinted exact cost 1h against a 2s deadline)", pl.Route())
	}
	if !strings.Contains(pl.Explain(), "degraded:") {
		t.Errorf("Explain does not report the degradation:\n%s", pl.Explain())
	}

	resp, err := p.Do(ctx, Request{Problem: ProblemDiversify})
	if err != nil {
		t.Fatal(err)
	}
	if !resp.Degraded || resp.Route != "greedy" {
		t.Errorf("got route=%q degraded=%v, want plan-stage greedy degradation", resp.Route, resp.Degraded)
	}
	if want := "exact→parallel-exact"; resp.DegradedFrom != want {
		t.Errorf("DegradedFrom = %q, want %q", resp.DegradedFrom, want)
	}
	if resp.Stats.Nodes != 0 {
		t.Errorf("plan-stage degradation still ran the exact search (%d nodes)", resp.Stats.Nodes)
	}
}

// TestPlanStageParallelDowngrade checks the intermediate step of the
// chain: when the parallel search is predicted to fit the budget, the
// plan switches to it — the answer stays exact (Degraded false) but
// DegradedFrom records the deadline intervened.
func TestPlanStageParallelDowngrade(t *testing.T) {
	e := NewEngine()
	e.MustCreateTable("points", "id")
	for i := 0; i < 12; i++ {
		e.MustInsert("points", i)
	}
	p, err := e.Prepare("Q(id) :- points(id)", WithK(3))
	if err != nil {
		t.Fatal(err)
	}
	e.SeedCostHint("exact", 10*time.Second)
	e.SeedCostHint("parallel-exact", time.Millisecond)

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	resp, err := p.Do(ctx, Request{Problem: ProblemDiversify})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Route != "exact" {
		t.Fatalf("route %q, want exact (parallel downgrade keeps the exact route)", resp.Route)
	}
	if resp.Degraded {
		t.Error("parallel downgrade flagged the answer Degraded; it is still exact")
	}
	if resp.DegradedFrom != "exact" {
		t.Errorf("DegradedFrom = %q, want %q", resp.DegradedFrom, "exact")
	}
}

// TestNoDegradeWithoutPressure: with no deadline, or a roomy one, nothing
// changes — no flags, exact route, exact answer.
func TestNoDegradeWithoutPressure(t *testing.T) {
	e := NewEngine()
	e.MustCreateTable("points", "id")
	for i := 0; i < 10; i++ {
		e.MustInsert("points", i)
	}
	p, err := e.Prepare("Q(id) :- points(id)", WithK(3))
	if err != nil {
		t.Fatal(err)
	}
	e.SeedCostHint("exact", time.Microsecond)

	resp, err := p.Do(context.Background(), Request{Problem: ProblemDiversify})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Degraded || resp.DegradedFrom != "" || resp.Route != "exact" {
		t.Errorf("undeadlined request degraded: route=%q degraded=%v from=%q",
			resp.Route, resp.Degraded, resp.DegradedFrom)
	}

	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	resp, err = p.Do(ctx, Request{Problem: ProblemDiversify})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Degraded || resp.DegradedFrom != "" {
		t.Errorf("roomy deadline degraded: degraded=%v from=%q", resp.Degraded, resp.DegradedFrom)
	}
}

// TestCostObservationsFeedPrediction: after enough real solves the model
// predicts from observations, and an absurd hint no longer dominates.
func TestCostObservationsFeedPrediction(t *testing.T) {
	var c costModel
	c.hint("exact", time.Hour)
	if pred, ok := c.predict("exact", 100); !ok || pred != 3600 {
		t.Fatalf("hint-only predict = %v, %v; want 3600s", pred, ok)
	}
	// Quadratic-ish growth observations take over.
	for _, n := range []int{10, 20, 40, 80} {
		c.observe("exact", n, float64(n*n)*1e-6)
	}
	pred, ok := c.predict("exact", 160)
	if !ok {
		t.Fatal("predict after observations not ok")
	}
	if pred < 0.015 || pred > 0.04 { // true value ≈ 0.0256s
		t.Errorf("predict(160) = %vs, want ≈0.0256s from the fitted curve", pred)
	}
}

// TestCostPredictScalesDownThinModel pins the thin-model fallback in both
// directions: with too few observations to fit a curve, the prediction
// scales the largest observation linearly for n below it as well as above.
// The regression this guards: predict used to return the largest
// observation's cost unscaled for any smaller n, so one slow solve over a
// big answer set made every small request look expensive and degrade under
// a deadline a fuller model would have served exactly.
func TestCostPredictScalesDownThinModel(t *testing.T) {
	var c costModel
	// Two observations: below bench.PredictAt's three-point fitting
	// minimum, so predict must take the linear-scaling fallback.
	c.observe("exact", 1000, 10.0)
	c.observe("exact", 500, 5.0)

	pred, ok := c.predict("exact", 100)
	if !ok {
		t.Fatal("predict with observations not ok")
	}
	if want := 1.0; pred != want { // 10s × 100/1000
		t.Errorf("predict(100) = %vs, want %vs (linear scale below the largest observation)", pred, want)
	}
	// Above the largest observation the behavior is unchanged.
	if pred, _ := c.predict("exact", 2000); pred != 20.0 {
		t.Errorf("predict(2000) = %vs, want 20s (linear scale above)", pred)
	}
	// At the largest observation the prediction is the observation itself.
	if pred, _ := c.predict("exact", 1000); pred != 10.0 {
		t.Errorf("predict(1000) = %vs, want the observation's 10s", pred)
	}
}
