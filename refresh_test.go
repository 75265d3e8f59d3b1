package diversification

import (
	"context"
	"math"
	"testing"

	"repro/internal/solver"
)

// refreshEngine builds an items engine with n rows for the refresh tests.
func refreshEngine(t testing.TB, n int) *Engine {
	t.Helper()
	e := NewEngine()
	e.MustCreateTable("items", "id", "cat", "price")
	cats := []string{"a", "b", "c", "d", "e"}
	for i := 0; i < n; i++ {
		e.MustInsert("items", i, cats[i%len(cats)], 10+(i*37)%90)
	}
	return e
}

const refreshQuery = "Q(id, cat, price) :- items(id, cat, price), price <= 80"

// refreshOpts are the shared Prepare-time bindings of the refresh tests.
func refreshOpts(k int, obj Objective, alg Algorithm, extra ...Option) []Option {
	base := []Option{
		WithK(k), WithObjective(obj), WithAlgorithm(alg), WithLambda(0.6),
		WithRelevance(func(r Row) float64 { return 100 - float64(r.Get("price").(int64)) }),
		WithDistance(func(a, b Row) float64 {
			if a.Get("cat") == b.Get("cat") {
				return 0
			}
			return 1
		}),
	}
	return append(base, extra...)
}

// mutate applies a batch of inserts and deletes: some rows match the
// query's price filter, some do not, and two existing rows disappear.
func mutate(t testing.TB, e *Engine) {
	t.Helper()
	e.MustInsert("items", 1000, "f", 15)
	e.MustInsert("items", 1001, "a", 95) // filtered out by price <= 80
	e.MustInsert("items", 1002, "g", 33)
	e.MustInsert("items", 1003, "b", 78)
	for _, id := range []int{0, 7} {
		cats := []string{"a", "b", "c", "d", "e"}
		if ok, err := e.Delete("items", id, cats[id%len(cats)], int64(10+(id*37)%90)); err != nil || !ok {
			t.Fatalf("delete row %d: ok=%v err=%v", id, ok, err)
		}
	}
}

// sameSelection asserts two selections are byte-identical: same rows in the
// same order, same float bits.
func sameSelection(t *testing.T, label string, warm, cold *Selection) {
	t.Helper()
	if len(warm.Rows) != len(cold.Rows) {
		t.Fatalf("%s: warm selected %d rows, cold %d", label, len(warm.Rows), len(cold.Rows))
	}
	for i := range warm.Rows {
		if warm.Rows[i].String() != cold.Rows[i].String() {
			t.Errorf("%s: row %d warm %s, cold %s", label, i, warm.Rows[i], cold.Rows[i])
		}
	}
	if math.Float64bits(warm.Value) != math.Float64bits(cold.Value) {
		t.Errorf("%s: warm value %v (bits %x), cold %v (bits %x)",
			label, warm.Value, math.Float64bits(warm.Value), cold.Value, math.Float64bits(cold.Value))
	}
	if warm.Method != cold.Method {
		t.Errorf("%s: warm method %s, cold %s", label, warm.Method, cold.Method)
	}
}

// TestRefreshDifferentialMatrix is the acceptance suite: after a batch of
// inserts and deletes, a Refresh-maintained handle must return byte-
// identical selections, decisions and counts to a handle cold-prepared at
// the same generation — across every objective × algorithm cell on the
// materialized plane (Fmono × online excluded: the online procedures
// reject Fmono by design, warm and cold alike).
func TestRefreshDifferentialMatrix(t *testing.T) {
	ctx := context.Background()
	for _, obj := range []Objective{MaxSum, MaxMin, Mono} {
		for _, alg := range []Algorithm{Exact, Greedy, Online} {
			if obj == Mono && alg == Online {
				continue
			}
			t.Run(obj.String()+"/"+alg.String()+"/materialized", func(t *testing.T) {
				n, k := 30, 3
				e := refreshEngine(t, n)
				opts := refreshOpts(k, obj, alg)
				warm := e.MustPrepare(refreshQuery, opts...)
				if _, err := warm.Diversify(ctx); err != nil {
					t.Fatal(err)
				}
				mutate(t, e)
				info, err := warm.Refresh(ctx)
				if err != nil {
					t.Fatal(err)
				}
				if info.Mode != "delta" {
					t.Fatalf("Refresh mode = %q, want delta (added %d removed %d)", info.Mode, info.Added, info.Removed)
				}
				if info.Added == 0 || info.Removed == 0 {
					t.Fatalf("delta did not see the batch: %+v", info)
				}
				cold := e.MustPrepare(refreshQuery, opts...)

				warmSel, werr := warm.Diversify(ctx)
				coldSel, cerr := cold.Diversify(ctx)
				if (werr == nil) != (cerr == nil) {
					t.Fatalf("warm err %v, cold err %v", werr, cerr)
				}
				if werr == nil {
					sameSelection(t, "diversify", warmSel, coldSel)
				}

				// Decide and Count at a bound the warm optimum defines.
				if alg == Exact {
					bound := warmSel.Value
					wd, err := warm.Decide(ctx, WithBound(bound))
					if err != nil {
						t.Fatal(err)
					}
					cd, err := cold.Decide(ctx, WithBound(bound))
					if err != nil {
						t.Fatal(err)
					}
					if wd != cd {
						t.Errorf("Decide: warm %v, cold %v", wd, cd)
					}
					wc, err := warm.Count(ctx, WithBound(bound))
					if err != nil {
						t.Fatal(err)
					}
					cc, err := cold.Count(ctx, WithBound(bound))
					if err != nil {
						t.Fatal(err)
					}
					if wc.Cmp(cc) != 0 {
						t.Errorf("Count: warm %v, cold %v", wc, cc)
					}
				}
			})
		}
	}
}

// TestRefreshStatsIdentical pins the strongest form of the differential: the
// exact search over a delta-refreshed snapshot visits the same tree — same
// nodes, leaves, prunes — as over a cold-built one, because answers, IDs
// and score bits all coincide.
func TestRefreshStatsIdentical(t *testing.T) {
	ctx := context.Background()
	e := refreshEngine(t, 30)
	opts := refreshOpts(3, MaxSum, Exact)
	warm := e.MustPrepare(refreshQuery, opts...)
	if _, err := warm.Diversify(ctx); err != nil {
		t.Fatal(err)
	}
	mutate(t, e)
	if info, err := warm.Refresh(ctx); err != nil || info.Mode != "delta" {
		t.Fatalf("refresh: %+v, %v", info, err)
	}
	cold := e.MustPrepare(refreshQuery, opts...)

	warmPl, err := warm.Plan(ctx, Request{Problem: ProblemDiversify})
	if err != nil {
		t.Fatal(err)
	}
	warmIn := warmPl.newInstance()
	coldPl, err := cold.Plan(ctx, Request{Problem: ProblemDiversify})
	if err != nil {
		t.Fatal(err)
	}
	coldIn := coldPl.newInstance()
	wres, err := solver.QRDBestContext(ctx, warmIn)
	if err != nil {
		t.Fatal(err)
	}
	cres, err := solver.QRDBestContext(ctx, coldIn)
	if err != nil {
		t.Fatal(err)
	}
	if wres.Stats != cres.Stats {
		t.Errorf("stats diverged:\n  warm %+v\n  cold %+v", wres.Stats, cres.Stats)
	}
	if math.Float64bits(wres.Value) != math.Float64bits(cres.Value) {
		t.Errorf("values diverged: %x vs %x", math.Float64bits(wres.Value), math.Float64bits(cres.Value))
	}
}

// TestRefreshModes exercises every refresh mode and fallback reason.
func TestRefreshModes(t *testing.T) {
	ctx := context.Background()

	t.Run("warm", func(t *testing.T) {
		e := refreshEngine(t, 20)
		p := e.MustPrepare(refreshQuery, refreshOpts(3, MaxSum, Greedy)...)
		if _, err := p.Diversify(ctx); err != nil {
			t.Fatal(err)
		}
		info, err := p.Refresh(ctx)
		if err != nil || info.Mode != "warm" {
			t.Errorf("Refresh on a current cache = %+v, %v; want warm", info, err)
		}
	})

	t.Run("cold-start-rebuild", func(t *testing.T) {
		e := refreshEngine(t, 20)
		p := e.MustPrepare(refreshQuery, refreshOpts(3, MaxSum, Greedy)...)
		info, err := p.Refresh(ctx)
		if err != nil || info.Mode != "rebuild" {
			t.Errorf("first Refresh = %+v, %v; want rebuild", info, err)
		}
		if info.Answers == 0 {
			t.Error("refresh reported an empty answer set")
		}
	})

	t.Run("journal-compacted-rebuild", func(t *testing.T) {
		e := refreshEngine(t, 20)
		e.db.SetJournalBound(4)
		p := e.MustPrepare(refreshQuery, refreshOpts(3, MaxSum, Greedy)...)
		if _, err := p.Refresh(ctx); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 10; i++ { // overflow the 4-entry journal
			e.MustInsert("items", 2000+i, "z", 20+i)
		}
		info, err := p.Refresh(ctx)
		if err != nil || info.Mode != "rebuild" {
			t.Errorf("Refresh past a compacted journal = %+v, %v; want rebuild", info, err)
		}
		// The window fits again afterwards.
		e.MustInsert("items", 3000, "z", 21)
		info, err = p.Refresh(ctx)
		if err != nil || info.Mode != "delta" || info.Added != 1 {
			t.Errorf("Refresh within the journal window = %+v, %v; want delta +1", info, err)
		}
	})

	t.Run("non-capable-query-rebuild", func(t *testing.T) {
		e := refreshEngine(t, 20)
		// Negation makes the query non-monotone: never delta-maintained.
		src := "Q(id, cat, price) :- items(id, cat, price), not items(id, cat, price)"
		p := e.MustPrepare(src, WithK(0))
		if _, err := p.Refresh(ctx); err != nil {
			t.Fatal(err)
		}
		e.MustInsert("items", 2000, "z", 20)
		info, err := p.Refresh(ctx)
		if err != nil || info.Mode != "rebuild" {
			t.Errorf("Refresh of a non-monotone query = %+v, %v; want rebuild", info, err)
		}
	})

	t.Run("irrelevant-delta", func(t *testing.T) {
		e := refreshEngine(t, 20)
		e.MustCreateTable("other", "x")
		p := e.MustPrepare(refreshQuery, refreshOpts(3, MaxSum, Greedy)...)
		if _, err := p.Refresh(ctx); err != nil {
			t.Fatal(err)
		}
		e.MustInsert("other", 1)
		info, err := p.Refresh(ctx)
		if err != nil || info.Mode != "delta" || info.Added != 0 || info.Removed != 0 {
			t.Errorf("Refresh over an irrelevant insert = %+v, %v; want empty delta", info, err)
		}
	})
}

// TestRefreshOnlinePoolReplay proves warm online solves replay the captured
// evaluation stream — byte-identical results without re-evaluating — and
// that mutations invalidate the replay.
func TestRefreshOnlinePoolReplay(t *testing.T) {
	ctx := context.Background()
	e := refreshEngine(t, 40)
	p := e.MustPrepare(refreshQuery, refreshOpts(4, MaxSum, Online)...)
	first, err := p.Diversify(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if p.pooled() == nil {
		t.Fatal("first online solve must capture the stream pool")
	}
	replay, err := p.Diversify(ctx)
	if err != nil {
		t.Fatal(err)
	}
	sameSelection(t, "replay", replay, first)

	// A mutation invalidates the pool; the next online solve re-streams
	// and agrees with a cold handle.
	e.MustInsert("items", 1000, "f", 15)
	if p.pooled() != nil {
		t.Fatal("a mutation must invalidate the captured pool")
	}
	warmSel, err := p.Diversify(ctx)
	if err != nil {
		t.Fatal(err)
	}
	coldSel, err := e.MustPrepare(refreshQuery, refreshOpts(4, MaxSum, Online)...).Diversify(ctx)
	if err != nil {
		t.Fatal(err)
	}
	sameSelection(t, "post-mutation", warmSel, coldSel)
}

// TestRefreshRepeatedDeltas chains many single-tuple mutations with a solve
// after each, pinning the incremental path against a cold rebuild at every
// step.
func TestRefreshRepeatedDeltas(t *testing.T) {
	ctx := context.Background()
	e := refreshEngine(t, 25)
	opts := refreshOpts(3, MaxMin, Greedy)
	warm := e.MustPrepare(refreshQuery, opts...)
	if _, err := warm.Diversify(ctx); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 12; i++ {
		if i%3 == 2 {
			if _, err := e.Delete("items", 1000+i-1, "q", int64(20+i-1)); err != nil {
				t.Fatal(err)
			}
		} else {
			e.MustInsert("items", 1000+i, "q", 20+i)
		}
		info, err := warm.Refresh(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if info.Mode != "delta" {
			t.Fatalf("step %d: mode %q, want delta", i, info.Mode)
		}
		warmSel, err := warm.Diversify(ctx)
		if err != nil {
			t.Fatal(err)
		}
		coldSel, err := e.MustPrepare(refreshQuery, opts...).Diversify(ctx)
		if err != nil {
			t.Fatal(err)
		}
		sameSelection(t, "step", warmSel, coldSel)
	}
}
