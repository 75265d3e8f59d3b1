package diversification

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"sync"
	"testing"
	"time"

	"repro/internal/query/eval"
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

// TestRefreshQuantifierShadowsHeadVariable: the quantified y re-binds the
// head's y, and a delta refresh must still find the answer an insert under
// the quantifier creates — the same answers a fresh evaluation returns.
func TestRefreshQuantifierShadowsHeadVariable(t *testing.T) {
	ctx := context.Background()
	e := NewEngine()
	e.MustCreateTable("R", "a", "b")
	e.MustInsert("R", 1, 2)
	const src = "Q(x, y) :- R(x, y), exists y (R(y, x))"
	p := e.MustPrepare(src, WithK(0))
	if info, err := p.Refresh(ctx); err != nil || info.Answers != 0 {
		t.Fatalf("first Refresh = %+v, %v; want 0 answers", info, err)
	}
	e.MustInsert("R", 5, 1)
	info, err := p.Refresh(ctx)
	if err != nil {
		t.Fatal(err)
	}
	want, err := e.Query(src)
	if err != nil {
		t.Fatal(err)
	}
	if info.Mode != "delta" || info.Answers != want.Len() || want.Len() != 1 {
		t.Errorf("Refresh after the insert = %+v; want a delta to the %d answers of a fresh query", info, want.Len())
	}
}

// TestRefreshKeyEdgeValuesMatchQuery: a join over an int and a float of
// 1e16 and over NaN, values value.Equal finds equal to other numbers but
// whose keys differ, refreshes by delta to the answers a fresh query
// returns, so a refresh never disagrees with a cold evaluation.
func TestRefreshKeyEdgeValuesMatchQuery(t *testing.T) {
	ctx := context.Background()
	e := NewEngine()
	e.MustCreateTable("R", "a")
	e.MustCreateTable("S", "a")
	e.MustInsert("R", int64(1e16))
	e.MustInsert("R", 5)
	const src = "Q(x) :- R(x), S(x)"
	p := e.MustPrepare(src, WithK(0))
	if _, err := p.Refresh(ctx); err != nil {
		t.Fatal(err)
	}
	steps := []func(){
		func() { e.MustInsert("S", 1e16); e.MustInsert("S", math.NaN()) },
		func() { e.MustInsert("R", math.NaN()); e.MustInsert("S", 5.0) },
		func() {
			if _, err := e.Delete("S", math.NaN()); err != nil {
				t.Fatal(err)
			}
		},
	}
	for i, step := range steps {
		step()
		info, err := p.Refresh(ctx)
		if err != nil {
			t.Fatal(err)
		}
		want, err := e.Query(src)
		if err != nil {
			t.Fatal(err)
		}
		if info.Mode != "delta" || info.Answers != want.Len() {
			t.Errorf("step %d: Refresh = %+v; want a delta to the %d answers of a fresh query", i, info, want.Len())
		}
	}
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
	if snap := p.current(); snap == nil || snap.streamPool == nil {
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
	if snap := p.current(); snap != nil && snap.streamPool != nil {
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

// TestRefreshMatchesColdOnNumericEdges: a handle refreshed after an insert
// picks, kind and bits included, what a cold Prepare picks over the same
// database, on pairs of numbers that compare equal as float64s but are
// different values, or one value of two kinds: the int and the float 1e16
// in both insertion orders (one value, so the second insert is a
// duplicate), NaN and 5, and 2⁵³+1 and the float 2⁵³. With constant
// relevance and λ = 0 every answer ties, so the pick is the first answer
// in canonical order, and a refresh must order answers as a cold
// evaluation does.
func TestRefreshMatchesColdOnNumericEdges(t *testing.T) {
	ctx := context.Background()
	pairs := []struct {
		name        string
		first, next interface{}
	}{
		{"int-then-float-1e16", int64(1e16), float64(1e16)},
		{"float-then-int-1e16", float64(1e16), int64(1e16)},
		{"nan-then-5", math.NaN(), int64(5)},
		{"2p53+1-then-float-2p53", int64(1<<53 + 1), float64(1 << 53)},
	}
	for _, alg := range []Algorithm{Greedy, Exact} {
		opts := []Option{WithK(1), WithLambda(0), WithAlgorithm(alg), WithRelevance(func(Row) float64 { return 1 })}
		for _, c := range pairs {
			e := NewEngine()
			e.MustCreateTable("r", "x")
			e.MustInsert("r", c.first)
			warm := e.MustPrepare("Q(x) :- r(x)", opts...)
			if _, err := warm.Diversify(ctx); err != nil {
				t.Fatal(err)
			}
			e.MustInsert("r", c.next)
			refreshed, err := warm.Diversify(ctx)
			if err != nil {
				t.Fatal(err)
			}
			cold, err := e.MustPrepare("Q(x) :- r(x)", opts...).Diversify(ctx)
			if err != nil {
				t.Fatal(err)
			}
			w, cv := refreshed.Rows[0].tuple[0], cold.Rows[0].tuple[0]
			if w.Kind() != cv.Kind() || w.AsInt() != cv.AsInt() || math.Float64bits(w.AsFloat()) != math.Float64bits(cv.AsFloat()) {
				t.Errorf("%s %s: refreshed pick %v %v, cold pick %v %v", alg, c.name, w.Kind(), w, cv.Kind(), cv)
			}
		}
	}
}

// TestRefreshRepeatedDeltas chains many single-tuple mutations with a solve
// after each on one engine, so the relations' column indexes live across
// the refreshes, pinning the incremental path against a cold rebuild and
// the answers against an unindexed evaluation at every step.
func TestRefreshRepeatedDeltas(t *testing.T) {
	ctx := context.Background()
	e := refreshEngine(t, 25)
	opts := refreshOpts(3, MaxMin, Greedy)
	warm := e.MustPrepare(refreshQuery, opts...)
	if _, err := warm.Diversify(ctx); err != nil {
		t.Fatal(err)
	}
	var added []int
	for i := 0; i < 40; i++ {
		del := func(id int, cat string, price int) {
			if ok, err := e.Delete("items", id, cat, price); err != nil || !ok {
				t.Fatalf("step %d: delete row %d: ok=%v err=%v", i, id, ok, err)
			}
		}
		switch {
		case i%3 == 2:
			id := added[len(added)-1]
			added = added[:len(added)-1]
			del(id, "q", 20+id-1000)
		case i%7 == 6 && i < 25: // a row of the initial load
			del(i, []string{"a", "b", "c", "d", "e"}[i%5], 10+(i*37)%90)
		default:
			e.MustInsert("items", 1000+i, "q", 20+i)
			added = append(added, 1000+i)
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
		scanned := eval.NewWithOptions(warm.q, e.db, eval.Options{NoIndex: true}).Result()
		snap := warm.current()
		got := snap.answers
		if len(got) != len(scanned) || snap.plane == nil || snap.plane.Len() != len(got) {
			t.Fatalf("step %d: %d answers, unindexed evaluation %d, plane %v", i, len(got), len(scanned), snap.plane)
		}
		for j := range got {
			if got[j].Key() != scanned[j].Key() || snap.plane.Tuple(j).Key() != got[j].Key() {
				t.Fatalf("step %d: answer %d = %v, unindexed evaluation %v, plane %v", i, j, got[j], scanned[j], snap.plane.Tuple(j))
			}
		}
	}
	if len(e.db.Relation("items").Indexed()) == 0 {
		t.Error("the refreshes probed no index")
	}
}

// TestRefreshOncePerGeneration holds a handle to one build per database
// generation: callers released together onto a stale handle, half through
// Refresh and half through a Diversify request, see exactly one of them
// rebuild or apply the delta while the rest report warm, and every caller
// answers from the same snapshot.
func TestRefreshOncePerGeneration(t *testing.T) {
	const callers = 8
	const n = 5000
	ctx := context.Background()
	e, p, rows := identityStatement(t, rand.New(rand.NewSource(30)), n)
	steps := []func(){
		func() {}, // cold
		func() { e.MustInsert("items", int64(n), "c000", 0.25) },
		func() { e.MustInsert("items", int64(n+1), "c001", 0.75) },
		func() {
			if ok, err := e.Delete("items", rows[0]...); err != nil || !ok {
				t.Fatalf("delete %v: ok=%v err=%v", rows[0], ok, err)
			}
		},
		func() {
			if ok, err := e.Delete("items", int64(n), "c000", 0.25); err != nil || !ok {
				t.Fatalf("delete the inserted row: ok=%v err=%v", ok, err)
			}
		},
	}
	for step, mutate := range steps {
		mutate()
		want, err := e.Query(p.Source())
		if err != nil {
			t.Fatal(err)
		}
		modes := make([]string, callers)
		answers := make([]int, callers)
		sels := make([]*Selection, callers)
		start := make(chan struct{})
		var wg sync.WaitGroup
		wg.Add(callers)
		for i := 0; i < callers; i++ {
			go func(i int) {
				defer wg.Done()
				<-start
				if i%2 == 0 {
					info, err := p.Refresh(ctx)
					if err != nil {
						t.Error(err)
						return
					}
					modes[i], answers[i] = info.Mode, info.Answers
					return
				}
				resp, err := p.Do(ctx, Request{Problem: ProblemDiversify})
				if err != nil {
					t.Error(err)
					return
				}
				modes[i], answers[i], sels[i] = resp.Refresh.Mode, resp.Refresh.Answers, resp.Selection
			}(i)
		}
		close(start)
		wg.Wait()
		if t.Failed() {
			t.FailNow()
		}
		built := 0
		for i, mode := range modes {
			switch mode {
			case "rebuild", "delta":
				built++
			case "warm":
			default:
				t.Errorf("step %d: caller %d reported mode %q", step, i, mode)
			}
			if answers[i] != want.Len() {
				t.Errorf("step %d: caller %d saw %d answers, a fresh query %d", step, i, answers[i], want.Len())
			}
			if sels[i] != nil {
				sameSelection(t, "concurrent diversify", sels[i], sels[1])
			}
		}
		if built != 1 {
			t.Errorf("step %d: %d callers built the snapshot (modes %v), want exactly 1", step, built, modes)
		}
	}
}

// TestRefreshWaiterHonoursDeadline holds one refresh inside the build, on a
// relevance function that blocks until released: a second caller waiting
// for that build gives up at its own deadline, and once the first build is
// released the statement serves normally.
func TestRefreshWaiterHonoursDeadline(t *testing.T) {
	e := refreshEngine(t, 40)
	entered, release := make(chan struct{}), make(chan struct{})
	var enter, unblock sync.Once
	defer unblock.Do(func() { close(release) })
	p := e.MustPrepare(refreshQuery, refreshOpts(4, MaxSum, Greedy, WithRelevance(func(r Row) float64 {
		enter.Do(func() { close(entered) })
		<-release
		return 100 - float64(r.Get("price").(int64))
	}))...)
	first := make(chan error, 1)
	go func() {
		_, err := p.Refresh(context.Background())
		first <- err
	}()
	<-entered

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	waiter := make(chan error, 1)
	go func() {
		_, err := p.Refresh(ctx)
		waiter <- err
	}()
	select {
	case err := <-waiter:
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Errorf("waiter returned %v, want %v", err, context.DeadlineExceeded)
		}
	case <-time.After(2 * time.Second):
		t.Error("a waiter with a 20ms deadline is still blocked after 2s")
	}

	unblock.Do(func() { close(release) })
	if err := <-first; err != nil {
		t.Fatal(err)
	}
	info, err := p.Refresh(context.Background())
	if err != nil || info.Mode != "warm" {
		t.Fatalf("Refresh after the build = %+v, %v; want warm", info, err)
	}
	sel, err := p.Diversify(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	cold, err := e.MustPrepare(refreshQuery, refreshOpts(4, MaxSum, Greedy)...).Diversify(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	sameSelection(t, "after the held build", sel, cold)
}
