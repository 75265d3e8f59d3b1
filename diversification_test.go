package diversification

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/big"
	"reflect"
	"strings"
	"testing"
)

// giftEngine builds a small engine in the spirit of Example 1.1.
func giftEngine(t *testing.T) *Engine {
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

func typeDistance(a, b Row) float64 {
	if a.Get("type") == b.Get("type") {
		return 0
	}
	return 1
}

func priceRelevance(r Row) float64 { return float64(30 - absInt(r.Get("price").(int64)-25)) }

func absInt(x int64) int64 {
	if x < 0 {
		return -x
	}
	return x
}

func TestEngineTableLifecycle(t *testing.T) {
	e := NewEngine()
	if err := e.CreateTable("t", "a"); err != nil {
		t.Fatal(err)
	}
	if err := e.CreateTable("t", "a"); err == nil {
		t.Error("duplicate table should fail")
	}
	if err := e.CreateTable("u"); err == nil {
		t.Error("attribute-less table should fail")
	}
	if err := e.CreateTable("v", "a", "b", "a"); err == nil || !strings.Contains(err.Error(), `repeats attribute "a"`) {
		t.Errorf("repeated attribute: err %v, want the schema error", err)
	}
	if e.db.Relation("v") != nil {
		t.Error("a refused table was created")
	}
	if err := e.Insert("missing", 1); err == nil {
		t.Error("insert into missing table should fail")
	}
	if err := e.Insert("t", 1, 2); err == nil {
		t.Error("arity mismatch should fail")
	}
	if err := e.Insert("t", struct{}{}); err == nil {
		t.Error("unsupported type should fail")
	}
	if err := e.Insert("t", 1); err != nil {
		t.Fatal(err)
	}
}

func TestEngineDeleteValidation(t *testing.T) {
	e := giftEngine(t)
	if _, err := e.Delete("missing", 1); err == nil {
		t.Error("delete from missing table should fail")
	}
	if _, err := e.Delete("catalog", "ring"); err == nil {
		t.Error("arity mismatch should fail")
	}
	if _, err := e.Delete("catalog", struct{}{}, "jewelry", 28, 2); err == nil {
		t.Error("unsupported type should fail")
	}
	if ok, err := e.Delete("catalog", "ghost", "jewelry", 1, 1); err != nil || ok {
		t.Errorf("absent tuple: ok=%v err=%v, want false,nil", ok, err)
	}
	if ok, err := e.Delete("catalog", "ring", "jewelry", 28, 2); err != nil || !ok {
		t.Errorf("present tuple: ok=%v err=%v, want true,nil", ok, err)
	}
}

func TestMustHelpersPanic(t *testing.T) {
	e := NewEngine()
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s should panic", name)
			}
		}()
		f()
	}
	mustPanic("MustCreateTable", func() { e.MustCreateTable("t") })
	mustPanic("MustInsert", func() { e.MustInsert("missing", 1) })
	mustPanic("MustPrepare", func() { e.MustPrepare("not a query") })
	if _, err := ClassifyQuery("not a query"); err == nil {
		t.Error("ClassifyQuery should surface parse errors")
	}
}

func TestEngineQuery(t *testing.T) {
	e := giftEngine(t)
	rs, err := e.Query("Q(item, price) :- catalog(item, t, price, s), price <= 30")
	if err != nil {
		t.Fatal(err)
	}
	if rs.Len() != 5 {
		t.Fatalf("got %d rows, want 5", rs.Len())
	}
	row := rs.Row(0)
	if row.Get("item") == nil || row.Get("price") == nil {
		t.Error("named access failed")
	}
	if row.Get("nope") != nil {
		t.Error("missing attribute should be nil")
	}
}

// TestEngineQueryLargeInts: built-in comparisons between integers beyond
// 2⁵³ are exact, not rounded through float64.
func TestEngineQueryLargeInts(t *testing.T) {
	e := NewEngine()
	e.MustCreateTable("r", "id")
	e.MustInsert("r", int64(1)<<53)
	e.MustInsert("r", int64(1)<<53+1)
	for _, tc := range []struct {
		query string
		want  []int64
	}{
		{"Q(id) :- r(id), id = 9007199254740993", []int64{1<<53 + 1}},
		{"Q(id) :- r(id), id < 9007199254740993", []int64{1 << 53}},
		{"Q(id) :- r(id), id > 9007199254740992", []int64{1<<53 + 1}},
	} {
		rs, err := e.Query(tc.query)
		if err != nil {
			t.Fatal(err)
		}
		var got []int64
		for i := 0; i < rs.Len(); i++ {
			got = append(got, rs.Row(i).Get("id").(int64))
		}
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%s: got %v, want %v", tc.query, got, tc.want)
		}
	}
}

func TestEngineQueryParseError(t *testing.T) {
	e := giftEngine(t)
	if _, err := e.Query("not a query"); err == nil {
		t.Error("parse error expected")
	}
}

func TestLanguageClassification(t *testing.T) {
	e := giftEngine(t)
	cases := map[string]string{
		"Q(i, t, p, s) :- catalog(i, t, p, s)":                 "identity",
		"Q(i) :- catalog(i, t, p, s), p < 30":                  "CQ",
		"Q(i) :- catalog(i, t, p, s), not catalog(i, t, p, s)": "FO",
	}
	for src, want := range cases {
		got, err := e.Language(src)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("Language(%q) = %q, want %q", src, got, want)
		}
	}
	if _, err := ClassifyQuery("Q(x) :- R(x) or S(x)"); err != nil {
		t.Fatal(err)
	}
}

func TestDiversifyExact(t *testing.T) {
	e := giftEngine(t)
	sel, err := e.MustPrepare(
		"Q(item, type, price) :- catalog(item, type, price, s), price <= 30",
		WithK(3), WithObjective(MaxSum), WithLambda(1), WithDistance(typeDistance),
	).Diversify(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(sel.Rows) != 3 || sel.Method != "exact" {
		t.Fatalf("selection malformed: %+v", sel)
	}
	// λ=1 with type distance: the three picks must have pairwise distinct
	// types (value 6 = 3 ordered pairs × 2).
	types := map[interface{}]bool{}
	for _, r := range sel.Rows {
		types[r.Get("type")] = true
	}
	if len(types) != 3 {
		t.Errorf("types not diverse: %v", sel.Rows)
	}
}

// TestDiversifyExactNegativeScores: when every candidate set scores below
// 0, exact diversify still answers the best one. Six ids with relevance
// −1−id, k = 2, max-sum at λ = 0: the best set is {0, 1} with F = −3,
// which greedy answers too.
func TestDiversifyExactNegativeScores(t *testing.T) {
	e := NewEngine()
	e.MustCreateTable("points", "id")
	for i := 0; i < 6; i++ {
		e.MustInsert("points", i)
	}
	for _, alg := range []Algorithm{Exact, Greedy} {
		sel, err := e.MustPrepare("Q(id) :- points(id)",
			WithK(2), WithObjective(MaxSum), WithLambda(0), WithAlgorithm(alg),
			WithRelevance(func(r Row) float64 { return -1 - float64(r.Get("id").(int64)) }),
		).Diversify(context.Background())
		if err != nil {
			t.Fatalf("%v: %v", alg, err)
		}
		if len(sel.Rows) != 2 || sel.Rows[0].Get("id") != int64(0) || sel.Rows[1].Get("id") != int64(1) || sel.Value != -3 {
			t.Errorf("%v selected %v with F = %v, want ids 0 and 1 with F = -3", alg, sel.Rows, sel.Value)
		}
	}
}

func TestDiversifyGreedyAndLocalSearch(t *testing.T) {
	e := giftEngine(t)
	ctx := context.Background()
	p := e.MustPrepare("Q(item, type, price) :- catalog(item, type, price, s)",
		WithK(3), WithObjective(MaxSum), WithLambda(0.5),
		WithRelevance(priceRelevance), WithDistance(typeDistance))
	exact, err := p.Diversify(ctx)
	if err != nil {
		t.Fatal(err)
	}
	greedy, err := p.Diversify(ctx, WithAlgorithm(Greedy))
	if err != nil {
		t.Fatal(err)
	}
	if greedy.Value > exact.Value+1e-9 {
		t.Errorf("greedy %v beat exact %v", greedy.Value, exact.Value)
	}
	improved, err := p.Diversify(ctx, WithAlgorithm(LocalSearch))
	if err != nil {
		t.Fatal(err)
	}
	if improved.Value < greedy.Value-1e-9 || improved.Value > exact.Value+1e-9 {
		t.Errorf("local-search %v outside [greedy %v, exact %v]", improved.Value, greedy.Value, exact.Value)
	}
}

func TestDiversifyOnline(t *testing.T) {
	e := giftEngine(t)
	ctx := context.Background()
	p := e.MustPrepare("Q(item, type, price) :- catalog(item, type, price, s)",
		WithK(3), WithObjective(MaxSum), WithLambda(0.5),
		WithRelevance(priceRelevance), WithDistance(typeDistance))
	exact, err := p.Diversify(ctx)
	if err != nil {
		t.Fatal(err)
	}
	sel, err := p.Diversify(ctx, WithAlgorithm(Online))
	if err != nil {
		t.Fatal(err)
	}
	if sel.Method != "online" || len(sel.Rows) != 3 {
		t.Fatalf("selection malformed: %+v", sel)
	}
	if sel.Value > exact.Value+1e-9 {
		t.Errorf("online %v beat exact %v", sel.Value, exact.Value)
	}
	// Online rejects mono (needs all of Q(D)) — surfaced as an error.
	if _, err := p.Diversify(ctx, WithAlgorithm(Online), WithObjective(Mono)); err == nil {
		t.Error("online with mono should be refused")
	}
}

func TestDiversifyErrors(t *testing.T) {
	e := giftEngine(t)
	ctx := context.Background()
	if _, err := e.Prepare("bad", WithK(1)); err == nil {
		t.Error("bad query should fail")
	}
	p := e.MustPrepare("Q(i) :- catalog(i, t, p, s)", WithK(1))
	if _, err := p.Diversify(ctx, WithK(100)); !errors.Is(err, ErrNoCandidate) {
		t.Errorf("k too large returned %v, want ErrNoCandidate", err)
	}
	var argErr *ArgError
	if _, err := p.Diversify(ctx, WithK(-1)); !errors.As(err, &argErr) || argErr.Field != "k" {
		t.Errorf("negative k returned %v, want ArgError on \"k\"", err)
	}
	if _, err := p.Diversify(ctx, WithObjective(Objective(9))); !errors.As(err, &argErr) || argErr.Field != "objective" {
		t.Errorf("unknown objective returned %v, want ArgError on \"objective\"", err)
	}
	if _, err := p.Diversify(ctx, WithAlgorithm(Algorithm(9))); !errors.As(err, &argErr) || argErr.Field != "algorithm" {
		t.Errorf("unknown algorithm returned %v, want ArgError on \"algorithm\"", err)
	}
}

func TestDecideRespectsBound(t *testing.T) {
	e := giftEngine(t)
	ctx := context.Background()
	p := e.MustPrepare("Q(item, type, price) :- catalog(item, type, price, s)",
		WithK(2), WithObjective(MaxMin), WithLambda(1), WithDistance(typeDistance))
	bound := 1.0
	resp, err := p.Do(ctx, Request{Problem: ProblemDecide, Bound: &bound})
	if err != nil {
		t.Fatal(err)
	}
	if !resp.Decided() {
		t.Error("bound 1 should be reachable")
	}
	bound = 5
	resp, err = p.Do(ctx, Request{Problem: ProblemDecide, Bound: &bound})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Decided() {
		t.Error("bound 5 should be unreachable (distances are 0/1)")
	}
}

func TestDecideMonoUsesPTimePath(t *testing.T) {
	e := giftEngine(t)
	ctx := context.Background()
	p := e.MustPrepare("Q(item, type, price) :- catalog(item, type, price, s)",
		WithK(3), WithObjective(Mono), WithLambda(0), // λ = 0: pure relevance
		WithRelevance(priceRelevance), WithBound(60))
	resp, err := p.Do(ctx, Request{Problem: ProblemDecide})
	if err != nil {
		t.Fatal(err)
	}
	if !resp.Decided() {
		t.Error("three items near price 25 should reach 60")
	}
	if resp.Route != "mono-ptime" {
		t.Errorf("mono decide routed through %q, want mono-ptime", resp.Route)
	}
}

func TestCount(t *testing.T) {
	e := giftEngine(t)
	// All 2-subsets of the 6 items with B=0: C(6,2) = 15.
	n, err := e.MustPrepare("Q(item) :- catalog(item, t, p, s)",
		WithK(2), WithObjective(MaxSum)).Count(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if n.Cmp(big.NewInt(15)) != 0 {
		t.Errorf("count = %v, want 15", n)
	}
}

func TestCountWithConstraints(t *testing.T) {
	e := giftEngine(t)
	// Pairs containing the ring only: 5.
	n, err := e.MustPrepare("Q(item) :- catalog(item, t, p, s)",
		WithK(2), WithObjective(MaxSum),
		WithConstraints(`exists s (s.item = "ring")`)).Count(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if n.Cmp(big.NewInt(5)) != 0 {
		t.Errorf("constrained count = %v, want 5", n)
	}
}

func TestConstraintErrors(t *testing.T) {
	e := giftEngine(t)
	ctx := context.Background()
	const src = "Q(item) :- catalog(item, t, p, s)"
	if _, err := e.Prepare(src, WithK(1), WithConstraints("(((")); err == nil {
		t.Error("unparsable constraint should fail")
	}
	if _, err := e.Prepare(src, WithK(1), WithConstraints(`exists s (s.nope = 1)`)); err == nil {
		t.Error("unknown attribute should fail validation")
	}
	p := e.MustPrepare(src, WithK(1), WithConstraints(`exists s (s.item = "ring")`))
	if _, err := p.Diversify(ctx, WithAlgorithm(Greedy)); err == nil {
		t.Error("greedy with constraints should be refused")
	}
}

func TestInTopR(t *testing.T) {
	e := giftEngine(t)
	ctx := context.Background()
	p := e.MustPrepare("Q(item, price) :- catalog(item, price0, price, s)",
		WithK(2), WithObjective(Mono), WithLambda(0),
		WithRelevance(func(r Row) float64 { return float64(r.Get("price").(int64)) }),
		WithRank(1))
	// Top pair by price sum: kite(55) + scarf(30).
	ok, err := p.InTopR(ctx, [][]interface{}{{"kite", 55}, {"scarf", 30}})
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Error("highest-price pair should be rank 1")
	}
	ok, err = p.InTopR(ctx, [][]interface{}{{"paints", 21}, {"novel", 22}})
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Error("lowest-price pair should not be rank 1")
	}
	if _, err := p.InTopR(ctx, [][]interface{}{{"kite", 55}}); err == nil {
		t.Error("wrong-size set should fail")
	}
	if _, err := p.InTopR(ctx, nil, WithRank(0)); err == nil {
		t.Error("rank 0 should fail")
	}
}

func TestRankExact(t *testing.T) {
	e := giftEngine(t)
	ctx := context.Background()
	p := e.MustPrepare("Q(item, price) :- catalog(item, price0, price, s)",
		WithK(2), WithObjective(Mono), WithLambda(0),
		WithRelevance(func(r Row) float64 { return float64(r.Get("price").(int64)) }))
	// Top pair by price sum is rank 1; the bottom pair is rank C(6,2) = 15.
	rank, err := p.Rank(ctx, [][]interface{}{{"kite", 55}, {"scarf", 30}})
	if err != nil {
		t.Fatal(err)
	}
	if rank != 1 {
		t.Errorf("best pair ranks %d, want 1", rank)
	}
	rank, err = p.Rank(ctx, [][]interface{}{{"paints", 21}, {"novel", 22}})
	if err != nil {
		t.Fatal(err)
	}
	if rank != 15 {
		t.Errorf("worst pair ranks %d, want 15", rank)
	}
	if _, err := p.Rank(ctx, [][]interface{}{{"kite", 55}}); err == nil {
		t.Error("wrong-size set should fail")
	}
	if _, err := e.Prepare("broken", WithK(2)); err == nil {
		t.Error("bad query should fail")
	}
}

func TestLambdaDefaultsToHalf(t *testing.T) {
	e := giftEngine(t)
	// With the default λ = 0.5 both relevance and diversity matter; with a
	// degenerate distance, FMS should still track relevance.
	sel, err := e.MustPrepare("Q(item, price) :- catalog(item, t, price, s)",
		WithK(1), WithObjective(MaxSum),
		WithRelevance(func(r Row) float64 { return float64(r.Get("price").(int64)) }),
	).Diversify(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if sel.Rows[0].Get("item") != "kite" {
		t.Errorf("k=1 should pick the most relevant item, got %v", sel.Rows[0])
	}
	if math.IsNaN(sel.Value) {
		t.Error("value is NaN")
	}
}

func TestRowString(t *testing.T) {
	e := giftEngine(t)
	rs, err := e.Query("Q(item) :- catalog(item, t, p, s)")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(rs.Row(0).String(), "(") {
		t.Error("row rendering broken")
	}
}

// TestMaxMinGreedyWithoutSeed: when no answer's relevance beats −∞ (NaN or
// −∞ throughout), greedy FMM has no seed. Greedy and local search answer
// ErrNoCandidate, as FMS does, and exact search, which warm-starts from
// greedy, does not panic.
func TestMaxMinGreedyWithoutSeed(t *testing.T) {
	e := NewEngine()
	e.MustCreateTable("points", "id")
	for i := 0; i < 3; i++ {
		e.MustInsert("points", i)
	}
	ctx := context.Background()
	for _, rel := range []float64{math.NaN(), math.Inf(-1)} {
		for _, obj := range []Objective{MaxMin, MaxSum} {
			p := e.MustPrepare("Q(id) :- points(id)", WithK(2), WithObjective(obj),
				WithRelevance(func(Row) float64 { return rel }))
			for _, alg := range []Algorithm{Greedy, LocalSearch} {
				if _, err := p.Diversify(ctx, WithAlgorithm(alg)); !errors.Is(err, ErrNoCandidate) {
					t.Errorf("%v %v under relevance %v: err %v, want ErrNoCandidate", obj, alg, rel, err)
				}
			}
			func() {
				defer func() {
					if r := recover(); r != nil {
						t.Errorf("%v exact under relevance %v panicked: %v", obj, rel, r)
					}
				}()
				p.Diversify(ctx, WithAlgorithm(Exact))
			}()
		}
	}
}

// TestNonFiniteRelevance holds every diversify algorithm to one rule: a set
// valued NaN or −∞ is not a candidate, and a selection has exactly k rows.
// Over four ids, with all relevance NaN or −∞, or with id 0 alone NaN or
// −∞, every algorithm agrees on whether a set exists; each selection has k
// rows and a finite value, and none holds id 0 when a set without it exists.
func TestNonFiniteRelevance(t *testing.T) {
	const n = 4
	e := NewEngine()
	e.MustCreateTable("points", "id")
	for i := 0; i < n; i++ {
		e.MustInsert("points", i)
	}
	id := func(r Row) int64 { return r.Get("id").(int64) }
	ctx := context.Background()
	for _, c := range []struct {
		name string
		bad  float64
		all  bool
	}{
		{"all NaN", math.NaN(), true},
		{"all -Inf", math.Inf(-1), true},
		{"one NaN", math.NaN(), false},
		{"one -Inf", math.Inf(-1), false},
	} {
		rel := func(r Row) float64 {
			if c.all || id(r) == 0 {
				return c.bad
			}
			return 1 + float64(id(r))
		}
		for _, k := range []int{2, n} {
			exists := !c.all && k < n
			for _, obj := range []Objective{MaxSum, MaxMin} {
				p := e.MustPrepare("Q(id) :- points(id)", WithK(k), WithObjective(obj), WithLambda(0.5),
					WithRelevance(rel),
					WithDistance(func(a, b Row) float64 { return math.Abs(float64(id(a) - id(b))) }))
				for _, alg := range []Algorithm{Exact, Greedy, LocalSearch, Online} {
					label := fmt.Sprintf("%s, k=%d, %v, %v", c.name, k, obj, alg)
					sel, err := p.Diversify(ctx, WithAlgorithm(alg))
					if !exists {
						if !errors.Is(err, ErrNoCandidate) {
							t.Errorf("%s: got %v, %v; want ErrNoCandidate", label, sel, err)
						}
						continue
					}
					if err != nil {
						t.Errorf("%s: %v, want a selection", label, err)
						continue
					}
					if len(sel.Rows) != k || math.IsNaN(sel.Value) || math.IsInf(sel.Value, 0) {
						t.Errorf("%s: %d rows valued %v, want %d rows and a finite value", label, len(sel.Rows), sel.Value, k)
					}
					for _, r := range sel.Rows {
						if id(r) == 0 {
							t.Errorf("%s: selection %v holds id 0, relevance %v", label, sel.Rows, c.bad)
						}
					}
				}
			}
		}
	}
}
