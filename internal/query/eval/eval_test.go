package eval

import (
	"context"
	"math"
	"math/rand"
	"strings"
	"testing"
	"time"

	"repro/internal/query"
	"repro/internal/query/parse"
	"repro/internal/relation"
	"repro/internal/value"
)

// testDB builds a small database:
//
//	R(x, y): (1,2), (2,3), (3,4)
//	S(x):    (2), (4)
//	T(x):    (1)
func testDB() *relation.Database {
	r := relation.NewRelation(relation.NewSchema("R", "x", "y"))
	r.InsertAll(relation.Ints(1, 2), relation.Ints(2, 3), relation.Ints(3, 4))
	s := relation.NewRelation(relation.NewSchema("S", "x"))
	s.InsertAll(relation.Ints(2), relation.Ints(4))
	tt := relation.NewRelation(relation.NewSchema("T", "x"))
	tt.Insert(relation.Ints(1))
	return relation.NewDatabase().Add(r).Add(s).Add(tt)
}

func results(t *testing.T, src string, db *relation.Database) []relation.Tuple {
	t.Helper()
	q, err := parse.Query(src)
	if err != nil {
		t.Fatal(err)
	}
	answers := Evaluate(q, db)
	return answers
}

func wantTuples(t *testing.T, got []relation.Tuple, want ...relation.Tuple) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("got %d tuples %v, want %d %v", len(got), got, len(want), want)
	}
	for i := range want {
		if !got[i].Equal(want[i]) {
			t.Errorf("tuple %d = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestEvaluateIdentity(t *testing.T) {
	got := results(t, "Q(x, y) :- R(x, y)", testDB())
	wantTuples(t, got, relation.Ints(1, 2), relation.Ints(2, 3), relation.Ints(3, 4))
}

func TestEvaluateJoin(t *testing.T) {
	// R(x,z) join R(z,y): paths of length two.
	got := results(t, "Q(x, y) :- R(x, z), R(z, y)", testDB())
	wantTuples(t, got, relation.Ints(1, 3), relation.Ints(2, 4))
}

func TestEvaluateSelection(t *testing.T) {
	got := results(t, "Q(x) :- R(x, y), x > 1", testDB())
	wantTuples(t, got, relation.Ints(2), relation.Ints(3))
}

func TestEvaluateConstantInAtom(t *testing.T) {
	got := results(t, "Q(x) :- R(x, 3)", testDB())
	wantTuples(t, got, relation.Ints(2))
}

func TestEvaluateProjectionDeduplicates(t *testing.T) {
	// Both (2,3) and (2, anything) project to x=2 only once.
	r := relation.NewRelation(relation.NewSchema("R", "x", "y"))
	r.InsertAll(relation.Ints(2, 3), relation.Ints(2, 4))
	db := relation.NewDatabase().Add(r)
	got := results(t, "Q(x) :- R(x, y)", db)
	wantTuples(t, got, relation.Ints(2))
}

func TestEvaluateUnion(t *testing.T) {
	got := results(t, "Q(x) :- S(x) or T(x)", testDB())
	wantTuples(t, got, relation.Ints(1), relation.Ints(2), relation.Ints(4))
}

func TestEvaluateUnionDisjunctMissingHeadVar(t *testing.T) {
	// Q(x) :- S(x) or T(1). T(1) holds, so every active-domain value
	// satisfies the body: active-domain semantics.
	got := results(t, "Q(x) :- S(x) or T(1)", testDB())
	if len(got) != 4 {
		t.Fatalf("got %v, want all 4 active-domain values", got)
	}
}

func TestEvaluateNegation(t *testing.T) {
	got := results(t, "Q(x) :- R(x, y), not S(x)", testDB())
	wantTuples(t, got, relation.Ints(1), relation.Ints(3))
}

func TestEvaluateForAll(t *testing.T) {
	// Values x in S such that all R-successors of x are in S.
	// R: 1->2, 2->3, 3->4. S = {2,4}. x=2 has successor 3 ∉ S -> excluded.
	// x=4 has no successors -> vacuously true.
	got := results(t, "Q(x) :- S(x), forall y (R(x, y) -> S(y))", testDB())
	wantTuples(t, got, relation.Ints(4))
}

func TestEvaluateNestedQuantifiers(t *testing.T) {
	// exists z with R(x,z) and R(z,y): same as join but via explicit exists.
	got := results(t, "Q(x, y) :- exists z (R(x, z), R(z, y))", testDB())
	wantTuples(t, got, relation.Ints(1, 3), relation.Ints(2, 4))
}

func TestEvaluateImplicitExistential(t *testing.T) {
	// Non-head free variable y acts as existentially quantified.
	got := results(t, "Q(x) :- R(x, y)", testDB())
	wantTuples(t, got, relation.Ints(1), relation.Ints(2), relation.Ints(3))
}

func TestEvaluateComparisonOnlyQuery(t *testing.T) {
	// Pure comparison bodies range over the active domain.
	got := results(t, "Q(x) :- x >= 3", testDB())
	wantTuples(t, got, relation.Ints(3), relation.Ints(4))
}

func TestEvaluateMissingRelationIsEmpty(t *testing.T) {
	got := results(t, "Q(x) :- Missing(x)", testDB())
	if len(got) != 0 {
		t.Errorf("missing relation should evaluate empty, got %v", got)
	}
}

func TestEvaluateEmptyDatabase(t *testing.T) {
	db := relation.NewDatabase()
	got := results(t, "Q(x) :- R(x, y)", db)
	if len(got) != 0 {
		t.Errorf("empty db should give empty result, got %v", got)
	}
}

func TestMemberAgainstEvaluate(t *testing.T) {
	db := testDB()
	srcs := []string{
		"Q(x, y) :- R(x, z), R(z, y)",
		"Q(x) :- S(x) or T(x)",
		"Q(x) :- R(x, y), not S(x)",
		"Q(x) :- S(x), forall y (R(x, y) -> S(y))",
	}
	for _, src := range srcs {
		q := parse.MustQuery(src)
		ev := New(q, db)
		res := ev.Result()
		// Every evaluated tuple is a member.
		for _, tup := range res {
			if !ev.Member(tup) {
				t.Errorf("%s: %v should be a member", src, tup)
			}
		}
		// Probe some non-members.
		probe := relation.Ints(99)
		if q.Arity() == 2 {
			probe = relation.Ints(99, 99)
		}
		if ev.Member(probe) {
			t.Errorf("%s: %v should not be a member", src, probe)
		}
	}
}

func TestMemberWrongArity(t *testing.T) {
	q := parse.MustQuery("Q(x) :- S(x)")
	if Member(q, testDB(), relation.Ints(2, 3)) {
		t.Error("wrong-arity tuple cannot be a member")
	}
}

func TestDomainIncludesQueryConstants(t *testing.T) {
	q := parse.MustQuery("Q(x) :- R(x, y), x != 77")
	ev := New(q, testDB())
	found := false
	for _, v := range ev.Domain() {
		if v.AsInt() == 77 {
			found = true
		}
	}
	if !found {
		t.Error("domain should include query constant 77")
	}
}

func TestEvaluateVariableShadowing(t *testing.T) {
	// exists y shadows outer y: Q(y) :- S(y) and exists y (T(y)).
	q := parse.MustQuery("Q(y) :- S(y), exists y (T(y))")
	got := Evaluate(q, testDB())
	wantTuples(t, got, relation.Ints(2), relation.Ints(4))
}

func TestEvaluateBooleanGadget(t *testing.T) {
	// The Q(x1..xm) = R01(x1) ∧ ... ∧ R01(xm) query from Theorem 5.2
	// generates all truth assignments.
	r01 := relation.NewRelation(relation.NewSchema("R01", "X"))
	r01.InsertAll(relation.Ints(0), relation.Ints(1))
	db := relation.NewDatabase().Add(r01)
	q := parse.MustQuery("Q(x1, x2, x3) :- R01(x1), R01(x2), R01(x3)")
	got := Evaluate(q, db)
	if len(got) != 8 {
		t.Errorf("Boolean cube has %d tuples, want 8", len(got))
	}
}

func TestEvaluateFOGiftQuery(t *testing.T) {
	// Example 3.1's Q0: gifts in [20,30] not previously bought by Peter for
	// Grace.
	catalog := relation.NewRelation(relation.NewSchema("catalog", "item", "type", "price", "inStock"))
	catalog.InsertAll(
		relation.Tuple{value.Str("book1"), value.Str("book"), value.Int(25), value.Int(3)},
		relation.Tuple{value.Str("ring1"), value.Str("jewelry"), value.Int(28), value.Int(1)},
		relation.Tuple{value.Str("toy1"), value.Str("toy"), value.Int(10), value.Int(5)},
	)
	history := relation.NewRelation(relation.NewSchema("history",
		"item", "buyer", "recipient", "gender", "age", "rel", "event", "rating"))
	history.Insert(relation.Tuple{
		value.Str("book1"), value.Str("peter"), value.Str("Grace"), value.Str("f"),
		value.Int(13), value.Str("uncle"), value.Str("birthday"), value.Int(5),
	})
	db := relation.NewDatabase().Add(catalog).Add(history)

	q := parse.MustQuery(`Q0(n) :- exists t, p, s (catalog(n, t, p, s), p <= 30, p >= 20,
		forall n2, b, r, g, a, x, e, y (
			not (history(n2, b, r, g, a, x, e, y), b = "peter", r = "Grace", n = n2)))`)
	got := Evaluate(q, db)
	// book1 excluded (already bought), toy1 excluded (price), ring1 remains.
	if len(got) != 1 || got[0][0].AsString() != "ring1" {
		t.Errorf("gift query result = %v, want [ring1]", got)
	}
}

func TestEvaluatorStopsEarlyViaYield(t *testing.T) {
	// Member uses truth, which short-circuits; make sure satisfy also stops
	// when yield returns false (exercised through Result on a large cube by
	// constructing the evaluator directly).
	r01 := relation.NewRelation(relation.NewSchema("R01", "X"))
	r01.InsertAll(relation.Ints(0), relation.Ints(1))
	db := relation.NewDatabase().Add(r01)
	q := parse.MustQuery("Q(x1, x2) :- R01(x1), R01(x2)")
	ev := New(q, db)
	count := 0
	ev.satisfy(q.Body, func() bool {
		count++
		return count < 2
	})
	if count != 2 {
		t.Errorf("enumeration did not stop early: %d yields", count)
	}
}

func TestMemberEmbedsFOMembershipProblem(t *testing.T) {
	// The membership problem for FO (Thm 5.1's reduction source): verify on
	// a query with negation that membership matches evaluation.
	db := testDB()
	q := parse.MustQuery("Q(x) :- R(x, y), not T(x)")
	ev := New(q, db)
	want := map[int64]bool{2: true, 3: true}
	for x := int64(0); x < 6; x++ {
		got := ev.Member(relation.Ints(x))
		if got != want[x] {
			t.Errorf("Member(%d) = %v, want %v", x, got, want[x])
		}
	}
}

func TestOrderConjunctsKeepsAll(t *testing.T) {
	fs := []query.Formula{
		&query.Cmp{Op: query.LT, L: query.V("x"), R: query.CInt(5)},
		&query.Atom{Rel: "R", Args: []query.Term{query.V("x")}},
		&query.Not{F: &query.Atom{Rel: "S", Args: []query.Term{query.V("x")}}},
	}
	got := orderConjuncts(fs)
	if len(got) != 3 {
		t.Fatalf("lost conjuncts: %v", got)
	}
	if _, ok := got[0].(*query.Atom); !ok {
		t.Error("atom should be ordered first")
	}
}

// TestContextCancelsEvaluation cancels an FO evaluation whose universal
// quantifiers force repeated active-domain enumeration: the cross product
// R × R × ∀-checks over a few hundred tuples is large enough that the
// deadline fires mid-evaluation.
func TestContextCancelsEvaluation(t *testing.T) {
	r := relation.NewRelation(relation.NewSchema("R", "x", "y"))
	for i := int64(0); i < 400; i++ {
		r.Insert(relation.Ints(i, (i*7)%400))
	}
	db := relation.NewDatabase().Add(r)
	q, err := parse.Query("Q(x, y, u, v) :- R(x, y), R(u, v), forall a (forall b (not R(a, b) or a >= 0))")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	start := time.Now()
	if _, err := EvaluateContext(ctx, q, db); err != context.DeadlineExceeded {
		t.Fatalf("err = %v, want DeadlineExceeded", err)
	}
	if time.Since(start) > 5*time.Second {
		t.Error("cancellation did not stop evaluation promptly")
	}

	// A background context evaluates to completion and matches Evaluate.
	small, err := parse.Query("Q(x, y) :- R(x, y), x < 5")
	if err != nil {
		t.Fatal(err)
	}
	res, err := EvaluateContext(context.Background(), small, db)
	if err != nil {
		t.Fatal(err)
	}
	if want := Evaluate(small, db); len(res) != len(want) {
		t.Errorf("context variant found %d answers, legacy %d", len(res), len(want))
	}
}

// TestEvaluateKeepsAnswersSplitAtSeparator: two answers whose string fields
// join to the same bytes around 0x1f are two answers of Q(D).
func TestEvaluateKeepsAnswersSplitAtSeparator(t *testing.T) {
	str := func(s string) relation.Tuple { return relation.Tuple{value.Str(s)} }
	r := relation.NewRelation(relation.NewSchema("R", "x"))
	r.InsertAll(str("a\x1fsb"), str("a"))
	s := relation.NewRelation(relation.NewSchema("S", "y"))
	s.InsertAll(str("c"), str("b\x1fsc"))
	got := results(t, "Q(x, y) :- R(x), S(y)", relation.NewDatabase().Add(r).Add(s))
	pair := func(x, y string) relation.Tuple { return relation.Tuple{value.Str(x), value.Str(y)} }
	wantTuples(t, got, pair("a", "b\x1fsc"), pair("a", "c"), pair("a\x1fsb", "b\x1fsc"), pair("a\x1fsb", "c"))
}

// TestComparisonsOrderNaNLast: comparisons follow value.Compare's total
// order, in which NaN equals only NaN and orders after every other number.
func TestComparisonsOrderNaNLast(t *testing.T) {
	r := relation.NewRelation(relation.NewSchema("R", "x"))
	r.InsertAll(relation.Tuple{value.Float(math.NaN())}, relation.Ints(5), relation.Ints(7))
	db := relation.NewDatabase().Add(r)
	for _, c := range []struct{ src, want string }{
		{"Q(x) :- R(x), x = 5", "i5"},
		{"Q(x) :- R(x), x <= 6", "i5"},
		{"Q(x) :- R(x), x != 5", "i7 fNaN"},
		{"Q(x) :- R(x), x > 6", "i7 fNaN"},
	} {
		var keys []string
		for _, a := range results(t, c.src, db) {
			keys = append(keys, a.Key())
		}
		if got := strings.Join(keys, " "); got != c.want {
			t.Errorf("%s: answers %q, want %q", c.src, got, c.want)
		}
	}
}

// TestResultMatchesRelationRecipe: Result returns what collecting the
// stream in a relation and sorting it returns — the same tuples, kind and
// bits included, in the same order, over values whose order once tied
// different keys (NaN, Int and Float 1e16, −0).
func TestResultMatchesRelationRecipe(t *testing.T) {
	vals := []value.Value{
		value.Int(1), value.Float(1), value.Float(math.NaN()), value.Int(1e16), value.Float(1e16),
		value.Int(5), value.Float(2.5), value.Str("a"), value.Bool(true), value.Float(math.Copysign(0, -1)), value.Int(0),
	}
	srcs := []string{
		"Q(a, b) :- R(a, b)",
		"Q(a) :- R(a, b)",
		"Q(a, c) :- R(a, b), R(b, c)",
		"Q(x) :- exists y (R(x, y)) or exists y (R(y, x))",
	}
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 100; trial++ {
		r := relation.NewRelation(relation.NewSchema("R", "a", "b"))
		for i := 0; i < rng.Intn(40); i++ {
			r.Insert(relation.Tuple{vals[rng.Intn(len(vals))], vals[rng.Intn(len(vals))]})
		}
		db := relation.NewDatabase().Add(r)
		for _, src := range srcs {
			q := parse.MustQuery(src)
			rec := relation.NewRelation(relation.NewSchema(q.Name, q.Head...))
			New(q, db).Stream(func(t relation.Tuple) bool {
				if !rec.Insert(t) {
					panic("Stream yielded a duplicate")
				}
				return true
			})
			want := rec.Sorted()
			got := New(q, db).Result()
			if len(got) != len(want) {
				t.Fatalf("%s: %d answers, recipe %d answers", src, len(got), len(want))
			}
			for i := range want {
				for j := range want[i] {
					g, w := got[i][j], want[i][j]
					if g.Kind() != w.Kind() || math.Float64bits(g.AsFloat()) != math.Float64bits(w.AsFloat()) || g.AsString() != w.AsString() {
						t.Fatalf("%s: answer %d = %v, recipe %v", src, i, got[i], want[i])
					}
				}
			}
		}
	}
}
