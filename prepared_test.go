package diversification

import (
	"context"
	"errors"
	"math/big"
	"strings"
	"testing"
	"time"
)

// preparedEngine builds a catalog engine shared by the prepared-API tests.
func preparedEngine(t testing.TB) *Engine {
	t.Helper()
	e := NewEngine()
	e.MustCreateTable("catalog", "item", "type", "price", "inStock")
	rows := []struct {
		item, typ string
		price     int
		stock     int
	}{
		{"ring", "jewelry", 28, 2},
		{"novel", "book", 22, 9},
		{"puzzle", "toy", 25, 4},
		{"scarf", "fashion", 30, 1},
		{"paints", "artsy", 21, 7},
		{"kite", "toy", 55, 3},
	}
	for _, r := range rows {
		e.MustInsert("catalog", r.item, r.typ, r.price, r.stock)
	}
	return e
}

func selectionItems(sel *Selection) []string {
	out := make([]string, len(sel.Rows))
	for i, r := range sel.Rows {
		out[i] = r.Get("item").(string)
	}
	return out
}

func TestPreparedMatchesOneShot(t *testing.T) {
	e := preparedEngine(t)
	ctx := context.Background()
	const src = "Q(item, type, price) :- catalog(item, type, price, s), price <= 30"

	p, err := e.Prepare(src,
		WithK(3),
		WithObjective(MaxSum),
		WithLambda(0.5),
		WithRelevance(priceRelevance),
		WithDistance(typeDistance),
	)
	if err != nil {
		t.Fatal(err)
	}
	if p.Language() != "CQ" {
		t.Errorf("Language() = %q, want CQ", p.Language())
	}
	if p.Source() != src {
		t.Errorf("Source() = %q", p.Source())
	}

	oneShot, err := e.MustPrepare(src,
		WithK(3), WithObjective(MaxSum), WithLambda(0.5),
		WithRelevance(priceRelevance), WithDistance(typeDistance),
	).Diversify(ctx)
	if err != nil {
		t.Fatal(err)
	}

	// Repeated prepared solves must agree with each other and with a
	// freshly prepared handle solved once (the one-shot shape).
	var first *Selection
	for i := 0; i < 3; i++ {
		sel, err := p.Diversify(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if sel.Value != oneShot.Value {
			t.Errorf("prepared value %v != one-shot value %v", sel.Value, oneShot.Value)
		}
		if first == nil {
			first = sel
			continue
		}
		a, b := selectionItems(first), selectionItems(sel)
		for j := range a {
			if a[j] != b[j] {
				t.Errorf("call %d selection drifted: %v vs %v", i, a, b)
			}
		}
	}

	// Decide and Count agree too.
	pd, err := p.Decide(ctx, WithBound(oneShot.Value))
	if err != nil {
		t.Fatal(err)
	}
	if !pd {
		t.Error("Decide at the optimum bound should hold")
	}
	pc, err := p.Count(ctx, WithBound(oneShot.Value))
	if err != nil {
		t.Fatal(err)
	}
	oc, err := e.MustPrepare(src,
		WithK(3), WithObjective(MaxSum), WithLambda(0.5),
		WithRelevance(priceRelevance), WithDistance(typeDistance),
	).Count(ctx, WithBound(oneShot.Value))
	if err != nil {
		t.Fatal(err)
	}
	if pc.Cmp(oc) != 0 {
		t.Errorf("prepared count %v != one-shot count %v", pc, oc)
	}
}

func TestPreparedPerCallOverridesDoNotStick(t *testing.T) {
	e := preparedEngine(t)
	ctx := context.Background()
	p, err := e.Prepare("Q(item, price) :- catalog(item, t, price, s)",
		WithK(2), WithObjective(Mono), WithLambda(0),
		WithRelevance(func(r Row) float64 { return float64(r.Get("price").(int64)) }))
	if err != nil {
		t.Fatal(err)
	}
	big5, err := p.Diversify(ctx, WithK(5))
	if err != nil {
		t.Fatal(err)
	}
	if len(big5.Rows) != 5 {
		t.Fatalf("override k=5 selected %d rows", len(big5.Rows))
	}
	base, err := p.Diversify(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(base.Rows) != 2 {
		t.Fatalf("base k=2 selected %d rows after an override call", len(base.Rows))
	}
}

func TestPreparedCacheInvalidationOnInsert(t *testing.T) {
	e := preparedEngine(t)
	ctx := context.Background()
	p, err := e.Prepare("Q(item, price) :- catalog(item, t, price, s)",
		WithK(1), WithObjective(Mono), WithLambda(0),
		WithRelevance(func(r Row) float64 { return float64(r.Get("price").(int64)) }))
	if err != nil {
		t.Fatal(err)
	}
	sel, err := p.Diversify(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if got := sel.Rows[0].Get("item"); got != "kite" {
		t.Fatalf("before insert, best item = %v, want kite", got)
	}
	// A strictly more relevant row must show up on the very next call: the
	// database generation advanced, so the cached answer set is stale.
	e.MustInsert("catalog", "diamond", "jewelry", 900, 1)
	sel, err = p.Diversify(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if got := sel.Rows[0].Get("item"); got != "diamond" {
		t.Errorf("after insert, best item = %v, want diamond (stale cache?)", got)
	}
	// CreateTable also advances the generation without breaking the handle.
	if err := e.CreateTable("unrelated", "x"); err != nil {
		t.Fatal(err)
	}
	sel, err = p.Diversify(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if got := sel.Rows[0].Get("item"); got != "diamond" {
		t.Errorf("after CreateTable, best item = %v, want diamond", got)
	}
}

// intractableEngine builds an instance big enough that exhaustive
// enumeration of C(55, 12) ≈ 2·10^11 candidate sets takes minutes. One
// tuple's relevance dwarfs the rest, so the solver's optimistic upper bound
// (which multiplies the remaining slots by the global maximum relevance)
// stays far above any reachable score and almost nothing prunes: only
// cancellation stops the search.
func intractableEngine(t testing.TB) (*Engine, *Prepared) {
	t.Helper()
	e := NewEngine()
	e.MustCreateTable("points", "id")
	for i := 0; i < 55; i++ {
		e.MustInsert("points", i)
	}
	p, err := e.Prepare("Q(id) :- points(id)",
		WithK(12), WithObjective(MaxSum), WithLambda(0.5),
		WithRelevance(func(r Row) float64 {
			id := r.Get("id").(int64)
			if id == 0 {
				return 1000
			}
			return 1 + float64(id%13)*0.001
		}))
	if err != nil {
		t.Fatal(err)
	}
	return e, p
}

func TestCancelCount(t *testing.T) {
	_, p := intractableEngine(t)
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := p.Count(ctx) // B = 0: every C(55,12) ≈ 2.3e11 set is valid
	elapsed := time.Since(start)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Count returned %v, want context.DeadlineExceeded", err)
	}
	if elapsed > 5*time.Second {
		t.Errorf("cancellation took %v; the solver is not polling the context", elapsed)
	}
}

func TestCancelDiversify(t *testing.T) {
	// A deadline-pressured exact diversify no longer times out
	// empty-handed: the mid-solve abort fires at the soft deadline and the
	// warm-start greedy incumbent ships as a flagged approximate answer.
	_, p := intractableEngine(t)
	budget := deadlineFromGreedy(t, p, incumbentFactor)
	ctx, cancel := context.WithTimeout(context.Background(), budget)
	defer cancel()
	start := time.Now()
	resp, err := p.Do(ctx, Request{Problem: ProblemDiversify}) // flat objective: the exact search cannot prune
	elapsed := time.Since(start)
	if err != nil {
		t.Fatalf("Diversify under a %v deadline returned %v, want a degraded greedy answer", budget, err)
	}
	if !resp.Degraded || resp.Route != "greedy" || resp.DegradedFrom == "" {
		t.Errorf("got route=%q degraded=%v degraded_from=%q, want a flagged greedy degradation",
			resp.Route, resp.Degraded, resp.DegradedFrom)
	}
	if resp.Selection == nil {
		t.Fatal("degraded response carries no selection")
	}
	if elapsed > 2*budget {
		t.Errorf("degraded answer took %v under a %v deadline; the solver is not honoring the soft deadline", elapsed, budget)
	}
}

func TestCancelAlreadyExpired(t *testing.T) {
	_, p := intractableEngine(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // cancelled before the call
	if _, err := p.Decide(ctx); !errors.Is(err, context.Canceled) {
		t.Errorf("Decide on a cancelled context returned %v, want context.Canceled", err)
	}
}

func TestPreparedUnknownEnums(t *testing.T) {
	e := preparedEngine(t)
	const src = "Q(item) :- catalog(item, t, p, s)"
	if _, err := e.Prepare(src, WithK(1), WithObjective(Objective(42))); err == nil {
		t.Error("unknown objective enum should fail Prepare")
	} else if !strings.Contains(err.Error(), "unknown objective") {
		t.Errorf("unhelpful error: %v", err)
	}
	if _, err := e.Prepare(src, WithK(1), WithAlgorithm(Algorithm(42))); err == nil {
		t.Error("unknown algorithm enum should fail Prepare")
	}
	if _, err := e.Prepare(src, WithK(-1)); err == nil {
		t.Error("negative K should fail Prepare")
	}
	if _, err := e.Prepare(src, WithK(1), WithLambda(1.5)); err == nil {
		t.Error("lambda out of [0,1] should fail Prepare")
	}
	// Per-call overrides are validated too.
	p, err := e.Prepare(src, WithK(1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Diversify(context.Background(), WithObjective(Objective(-3))); err == nil {
		t.Error("unknown per-call objective enum should fail")
	}
	if _, err := p.Count(context.Background(), WithAlgorithm(Algorithm(7))); err == nil {
		t.Error("unknown per-call algorithm enum should fail")
	}
	if _, err := ParseObjective("nope"); err == nil {
		t.Error("ParseObjective should reject unknown names")
	}
	if _, err := ParseAlgorithm("nope"); err == nil {
		t.Error("ParseAlgorithm should reject unknown names")
	}
}

func TestPreparedSetValidation(t *testing.T) {
	e := preparedEngine(t)
	ctx := context.Background()
	p, err := e.Prepare("Q(item, price) :- catalog(item, price0, price, s)",
		WithK(2), WithObjective(Mono), WithLambda(0),
		WithRelevance(func(r Row) float64 { return float64(r.Get("price").(int64)) }),
		WithRank(1))
	if err != nil {
		t.Fatal(err)
	}
	// Wrong row count: 1 row for k = 2, surfaced as a typed ArgError.
	var argErr *ArgError
	if _, err := p.InTopR(ctx, [][]interface{}{{"kite", 55}}); err == nil {
		t.Error("wrong-size set should fail")
	} else if !strings.Contains(err.Error(), "want exactly k") {
		t.Errorf("unhelpful row-count error: %v", err)
	} else if !errors.As(err, &argErr) || argErr.Field != "set" {
		t.Errorf("row-count error is not an ArgError on \"set\": %v", err)
	}
	// Wrong arity: 3 values against a 2-ary head.
	if _, err := p.InTopR(ctx, [][]interface{}{{"kite", 55, 1}, {"scarf", 30}}); err == nil {
		t.Error("wrong-arity row should fail")
	} else if !strings.Contains(err.Error(), "arity") {
		t.Errorf("unhelpful arity error: %v", err)
	}
	// Unsupported value type names its position.
	if _, err := p.Rank(ctx, [][]interface{}{{"kite", struct{}{}}, {"scarf", 30}}); err == nil {
		t.Error("unsupported value type should fail")
	}
	// Rank must be at least 1 for InTopR.
	if _, err := p.InTopR(ctx, [][]interface{}{{"kite", 55}, {"scarf", 30}}, WithRank(0)); err == nil {
		t.Error("rank 0 should fail")
	}
	// A valid call still works after all those rejections.
	ok, err := p.InTopR(ctx, [][]interface{}{{"kite", 55}, {"scarf", 30}})
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Error("best pair should be rank 1")
	}
	rank, err := p.Rank(ctx, [][]interface{}{{"paints", 21}, {"novel", 22}})
	if err != nil {
		t.Fatal(err)
	}
	if rank != 15 {
		t.Errorf("worst pair ranks %d, want 15", rank)
	}
}

func TestPreparedConstraintOverride(t *testing.T) {
	e := preparedEngine(t)
	ctx := context.Background()
	p, err := e.Prepare("Q(item) :- catalog(item, t, p, s)", WithK(2))
	if err != nil {
		t.Fatal(err)
	}
	n, err := p.Count(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if n.Cmp(big.NewInt(15)) != 0 {
		t.Fatalf("unconstrained count = %v, want 15", n)
	}
	// Per-call constraints are compiled for that call only.
	n, err = p.Count(ctx, WithConstraints(`exists s (s.item = "ring")`))
	if err != nil {
		t.Fatal(err)
	}
	if n.Cmp(big.NewInt(5)) != 0 {
		t.Errorf("constrained count = %v, want 5", n)
	}
	if _, err := p.Count(ctx, WithConstraints("(((")); err == nil {
		t.Error("unparsable per-call constraint should fail")
	}
	if _, err := p.Count(ctx, WithConstraints(`exists s (s.nope = 1)`)); err == nil {
		t.Error("unknown attribute in per-call constraint should fail")
	}
	// The base (unconstrained) setting is untouched.
	n, err = p.Count(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if n.Cmp(big.NewInt(15)) != 0 {
		t.Errorf("base count drifted to %v after overrides", n)
	}
}

func TestPreparedOnlineAndHeuristics(t *testing.T) {
	e := preparedEngine(t)
	ctx := context.Background()
	p, err := e.Prepare("Q(item, type, price) :- catalog(item, type, price, s)",
		WithK(3), WithObjective(MaxSum), WithLambda(0.5),
		WithRelevance(priceRelevance), WithDistance(typeDistance))
	if err != nil {
		t.Fatal(err)
	}
	exact, err := p.Diversify(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for _, alg := range []Algorithm{Greedy, LocalSearch, Online} {
		sel, err := p.Diversify(ctx, WithAlgorithm(alg))
		if err != nil {
			t.Fatalf("%s: %v", alg, err)
		}
		if sel.Method != alg.String() {
			t.Errorf("method = %q, want %q", sel.Method, alg)
		}
		if sel.Value > exact.Value+1e-9 {
			t.Errorf("%s value %v beats exact %v", alg, sel.Value, exact.Value)
		}
	}
	// Online refuses the mono objective (needs all of Q(D)).
	if _, err := p.Diversify(ctx, WithAlgorithm(Online), WithObjective(Mono)); err == nil {
		t.Error("online with mono should be refused")
	}
}

func TestDecideSurfacesRealErrors(t *testing.T) {
	// A cancelled context is a "real" error on the online path: Decide must
	// surface it instead of silently falling back to exact search (which
	// would burn the full exponential cost after the caller gave up).
	_, p := intractableEngine(t)
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	// The bound is just above the true optimum ((k-1)(1-λ)·top-12 relevance
	// sum ≈ 5561 with zero distance) but far below the solver's inflated
	// upper bounds, so neither the online probe nor pruning short-circuits.
	_, err := p.Decide(ctx, WithBound(5610))
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Decide returned %v, want context.DeadlineExceeded", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("Decide kept solving for %v after cancellation", elapsed)
	}
}

func TestDecideWarmsCacheWhenStreamExhausts(t *testing.T) {
	e := preparedEngine(t)
	ctx := context.Background()
	p, err := e.Prepare("Q(item, type, price) :- catalog(item, type, price, s)",
		WithK(3), WithObjective(MaxSum), WithLambda(0.5), WithDistance(typeDistance))
	if err != nil {
		t.Fatal(err)
	}
	if p.current() != nil {
		t.Fatal("cache unexpectedly warm before any solve")
	}
	// An unreachable bound forces the online stream to exhaust Q(D); the
	// materialized pool must land in the cache.
	ok, err := p.Decide(ctx, WithBound(1e9))
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatal("unreachable bound decided true")
	}
	if p.current() == nil {
		t.Error("an exhausted online stream should warm the answer cache")
	}
	// The warmed cache serves the same answers as a fresh evaluation.
	sel, err := p.Diversify(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(sel.Rows) != 3 {
		t.Errorf("diversify off the warmed cache selected %d rows", len(sel.Rows))
	}
}

func TestCancelOnlineDiversifySmallSet(t *testing.T) {
	// Small answer sets finish streaming before the evaluator's throttled
	// poll fires; the online path must honour cancellation anyway.
	e := preparedEngine(t)
	p, err := e.Prepare("Q(item, type, price) :- catalog(item, type, price, s)",
		WithK(2), WithObjective(MaxSum), WithAlgorithm(Online))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := p.Diversify(ctx); !errors.Is(err, context.Canceled) {
		t.Errorf("online Diversify on a cancelled context returned %v, want context.Canceled", err)
	}
}

func TestRequestTypedOverrides(t *testing.T) {
	// The Request's typed pointer fields override the Prepare-time
	// bindings exactly as the matching functional options do, and Options
	// wins when both are given (it is applied last).
	e := preparedEngine(t)
	ctx := context.Background()
	p, err := e.Prepare("Q(item, type, price) :- catalog(item, type, price, s)",
		WithK(2), WithObjective(MaxSum), WithLambda(1), WithDistance(typeDistance))
	if err != nil {
		t.Fatal(err)
	}
	k3, lambda0, mono := 3, 0.0, Mono
	viaOptions, err := p.Diversify(ctx, WithK(k3))
	if err != nil {
		t.Fatal(err)
	}
	viaTyped, err := p.Do(ctx, Request{Problem: ProblemDiversify, K: &k3})
	if err != nil {
		t.Fatal(err)
	}
	if a, b := selectionItems(viaOptions), selectionItems(viaTyped.Selection); strings.Join(a, ",") != strings.Join(b, ",") {
		t.Errorf("typed K override selected %v, option form %v", b, a)
	}
	// Options is applied after the typed fields, so it wins on conflict.
	resp, err := p.Do(ctx, Request{
		Problem:   ProblemDiversify,
		Lambda:    &lambda0,
		Objective: &mono,
		Options:   []Option{WithObjective(MaxSum), WithLambda(1)},
	})
	if err != nil {
		t.Fatal(err)
	}
	base, err := p.Diversify(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Selection.Value != base.Value {
		t.Errorf("Options should override typed fields: got %v, want %v", resp.Selection.Value, base.Value)
	}
}

func TestRequestProblemValidation(t *testing.T) {
	e := preparedEngine(t)
	ctx := context.Background()
	p := e.MustPrepare("Q(item) :- catalog(item, t, p, s)", WithK(2))
	var argErr *ArgError
	if _, err := p.Do(ctx, Request{Problem: ProblemKind(99)}); !errors.As(err, &argErr) || argErr.Field != "problem" {
		t.Errorf("unknown problem returned %v, want ArgError on \"problem\"", err)
	}
	// A negative rank only matters to the problems that read it.
	if _, err := p.Count(ctx); err != nil {
		t.Errorf("Count must not consult rank, got %v", err)
	}
	if _, err := p.InTopR(ctx, [][]interface{}{{"ring"}, {"kite"}}); !errors.As(err, &argErr) || argErr.Field != "rank" {
		t.Errorf("InTopR without a rank returned %v, want ArgError on \"rank\"", err)
	}
}

func TestCancelSmallWorkloads(t *testing.T) {
	// An already-cancelled context must abort every solve method even when
	// the workload is far too small for the throttled poll interval: the
	// cancellation contract cannot depend on |Q(D)| or the algorithm.
	e := preparedEngine(t)
	p, err := e.Prepare("Q(item) :- catalog(item, t, p, s)", WithK(2))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := p.Count(ctx); !errors.Is(err, context.Canceled) {
		t.Errorf("Count on a 6-row table with a cancelled ctx returned %v, want context.Canceled", err)
	}
	if _, err := p.Diversify(ctx); !errors.Is(err, context.Canceled) {
		t.Errorf("Diversify with a cancelled ctx returned %v, want context.Canceled", err)
	}
}

func TestOnlineDiversifyWarmsCache(t *testing.T) {
	e := preparedEngine(t)
	ctx := context.Background()
	p, err := e.Prepare("Q(item, type, price) :- catalog(item, type, price, s)",
		WithK(3), WithObjective(MaxSum), WithAlgorithm(Online), WithDistance(typeDistance))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Diversify(ctx); err != nil {
		t.Fatal(err)
	}
	if p.current() == nil {
		t.Error("online Diversify consumes the full stream and must warm the cache")
	}
	// The warmed cache must hold the complete, correctly ordered Q(D):
	// an exact solve off it agrees with a freshly prepared exact solve.
	warm, err := p.Diversify(ctx, WithAlgorithm(Exact))
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := e.MustPrepare("Q(item, type, price) :- catalog(item, type, price, s)",
		WithK(3), WithObjective(MaxSum), WithDistance(typeDistance)).Diversify(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if warm.Value != fresh.Value {
		t.Errorf("exact solve off online-warmed cache scored %v, fresh eval %v", warm.Value, fresh.Value)
	}
}

// TestZeroKSelectsEmptySet: the empty set is the one 0-set, so k = 0
// answers it over any answer set. The exact and online routes always did,
// and a shard coreset with k′ = 0 relies on the greedy route doing the same.
func TestZeroKSelectsEmptySet(t *testing.T) {
	e := preparedEngine(t)
	for _, alg := range []Algorithm{Exact, Greedy, Online} {
		sel, err := e.MustPrepare("Q(item) :- catalog(item, t, p, s)", WithK(0), WithAlgorithm(alg)).Diversify(context.Background())
		if err != nil || len(sel.Rows) != 0 {
			t.Errorf("%s at k=0: %v, %v; want the empty selection", alg, sel, err)
		}
	}
}

func TestPreparedEmptyAnswerSetCaches(t *testing.T) {
	// A prepared query with zero answers must cache the emptiness: every
	// solve succeeds (vacuously) without tripping over a nil-slice cache
	// sentinel.
	e := preparedEngine(t)
	ctx := context.Background()
	p, err := e.Prepare("Q(item) :- catalog(item, t, price, s), price > 1000", WithK(0))
	if err != nil {
		t.Fatal(err)
	}
	n, err := p.Count(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if n.Cmp(big.NewInt(1)) != 0 { // the empty set is the one valid 0-set at B=0
		t.Errorf("count over empty answers = %v, want 1", n)
	}
	if p.current() == nil {
		t.Error("empty answer set must still warm the cache")
	}
	if _, err := p.Diversify(ctx, WithK(1)); err == nil {
		t.Error("k=1 over an empty answer set should report no candidate set")
	}
}
