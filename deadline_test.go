package diversification

import (
	"context"
	"errors"
	"slices"
	"testing"
	"time"
)

// deadlineFromGreedy warms p outside any deadline, times five greedy solves
// on it and returns factor times their median. A test that races a solve
// against a deadline sizes the deadline this way, to the machine's speed
// under its current load, rather than by a fixed constant that a loaded
// machine can overrun.
func deadlineFromGreedy(t *testing.T, p *Prepared, factor int) time.Duration {
	t.Helper()
	ctx := context.Background()
	if _, err := p.Refresh(ctx); err != nil {
		t.Fatal(err)
	}
	greedy := Greedy
	times := make([]time.Duration, 5)
	for i := range times {
		start := time.Now()
		if _, err := p.Do(ctx, Request{Algorithm: &greedy}); err != nil {
			t.Fatal(err)
		}
		times[i] = time.Since(start)
	}
	slices.Sort(times)
	return time.Duration(factor) * times[len(times)/2]
}

// incumbentFactor sizes the deadline of an exact diversify that must
// degrade: the search has to reach its warm-start greedy incumbent before
// the soft deadline at 80% of it and ship that answer in the last 20%,
// which at this factor is four thousand greedy solves' worth of time.
const incumbentFactor = 20_000

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

	ctx, cancel := context.WithTimeout(context.Background(), deadlineFromGreedy(t, p, incumbentFactor))
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
// of the plane, and on a large handle (here 8,000 answers, evaluated
// directly since the matrix would not fit the guard) greedy and exact mono
// requests must stop at the request deadline rather than finish the scan.
// The same distance given as an AttrDistance is served from category lists,
// where the row sums cost O(n), so the same requests answer inside the
// deadline: greedy outright, exact with its greedy incumbent when the search
// cannot finish. The deadline is sized from greedy solves on the category
// handle; the opaque scan costs thousands of those.
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
	budget := deadlineFromGreedy(t, category, 500)
	for _, alg := range []Algorithm{Greedy, Exact} {
		ctx, cancel := context.WithTimeout(context.Background(), budget)
		start := time.Now()
		_, err := opaque.Do(ctx, Request{Problem: ProblemDiversify, Algorithm: &alg})
		elapsed := time.Since(start)
		cancel()
		if !errors.Is(err, context.DeadlineExceeded) || elapsed > budget+time.Second {
			t.Errorf("%s mono solve under a %v deadline: err %v after %v, want %v within 1s of it",
				alg, budget, err, elapsed, context.DeadlineExceeded)
		}

		ctx, cancel = context.WithTimeout(context.Background(), budget)
		resp, err := category.Do(ctx, Request{Problem: ProblemDiversify, Algorithm: &alg})
		cancel()
		if err != nil || len(resp.Selection.Rows) != 3 {
			t.Errorf("%s mono solve on category lists under a %v deadline: err %v, want a 3-row selection", alg, budget, err)
		}
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

	// Repeated fast solves under a 1s deadline: each finishes in well under
	// a millisecond, so none may be re-planned or flagged.
	for i := 1; i <= 5; i++ {
		ctx, cancel := context.WithTimeout(context.Background(), time.Second)
		resp, err := p.Do(ctx, Request{Problem: ProblemDiversify})
		cancel()
		if err != nil {
			t.Fatal(err)
		}
		if resp.Degraded || resp.DegradedFrom != "" || resp.Route != "exact" {
			t.Errorf("exact solve %d under a 1s deadline: route=%q degraded=%v from=%q",
				i, resp.Route, resp.Degraded, resp.DegradedFrom)
		}
	}
}
