package eval

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"repro/internal/query"
	"repro/internal/relation"
	"repro/internal/value"
)

// randomJoinDB builds relations R(a,b), S(b,c), T(c) with random integer
// data in a small domain so joins hit and miss.
func randomJoinDB(rng *rand.Rand, n, dom int) *relation.Database {
	db := relation.NewDatabase()
	r := relation.NewRelation(relation.NewSchema("R", "a", "b"))
	s := relation.NewRelation(relation.NewSchema("S", "b", "c"))
	tt := relation.NewRelation(relation.NewSchema("T", "c"))
	for i := 0; i < n; i++ {
		r.Insert(relation.Tuple{value.Int(int64(rng.Intn(dom))), value.Int(int64(rng.Intn(dom)))})
		s.Insert(relation.Tuple{value.Int(int64(rng.Intn(dom))), value.Int(int64(rng.Intn(dom)))})
		tt.Insert(relation.Tuple{value.Int(int64(rng.Intn(dom)))})
	}
	return db.Add(r).Add(s).Add(tt)
}

// randomQuery produces one of several shapes exercising joins, filters,
// disjunction, negation and quantifiers.
func randomQuery(rng *rand.Rand) *query.Query {
	c := int64(rng.Intn(6))
	switch rng.Intn(6) {
	case 0: // chain join
		return query.MustNew("Q", []string{"a", "c"}, &query.And{Fs: []query.Formula{
			&query.Atom{Rel: "R", Args: []query.Term{query.V("a"), query.V("b")}},
			&query.Atom{Rel: "S", Args: []query.Term{query.V("b"), query.V("c")}},
		}})
	case 1: // join with comparison filter
		return query.MustNew("Q", []string{"a"}, &query.And{Fs: []query.Formula{
			&query.Atom{Rel: "R", Args: []query.Term{query.V("a"), query.V("b")}},
			&query.Cmp{Op: query.LE, L: query.V("b"), R: query.CInt(c)},
		}})
	case 2: // triangle-ish with constant
		return query.MustNew("Q", []string{"b"}, &query.And{Fs: []query.Formula{
			&query.Atom{Rel: "R", Args: []query.Term{query.CInt(c), query.V("b")}},
			&query.Atom{Rel: "S", Args: []query.Term{query.V("b"), query.V("c")}},
			&query.Atom{Rel: "T", Args: []query.Term{query.V("c")}},
		}})
	case 3: // union
		return query.MustNew("Q", []string{"x"}, &query.Or{Fs: []query.Formula{
			&query.Exists{Vars: []string{"y"}, F: &query.Atom{Rel: "R", Args: []query.Term{query.V("x"), query.V("y")}}},
			&query.Atom{Rel: "T", Args: []query.Term{query.V("x")}},
		}})
	case 4: // negation (FO)
		return query.MustNew("Q", []string{"a", "b"}, &query.And{Fs: []query.Formula{
			&query.Atom{Rel: "R", Args: []query.Term{query.V("a"), query.V("b")}},
			&query.Not{F: &query.Atom{Rel: "S", Args: []query.Term{query.V("a"), query.V("b")}}},
		}})
	default: // universal guard (FO)
		return query.MustNew("Q", []string{"a"}, &query.And{Fs: []query.Formula{
			&query.Atom{Rel: "R", Args: []query.Term{query.V("a"), query.V("b")}},
			&query.ForAll{Vars: []string{"z"}, F: &query.Not{F: &query.And{Fs: []query.Formula{
				&query.Atom{Rel: "T", Args: []query.Term{query.V("z")}},
				&query.Cmp{Op: query.EQ, L: query.V("z"), R: query.V("a")},
			}}}},
		}})
	}
}

// TestOptimizerEquivalence is the optimizer's safety property: for random
// databases and query shapes, the fully optimized evaluator, the
// index-only, the reorder-only and the naive evaluator produce identical
// answer sets.
func TestOptimizerEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	configs := []Options{
		{},
		{NoIndex: true},
		{NoReorder: true},
		{NoIndex: true, NoReorder: true},
	}
	for trial := 0; trial < 60; trial++ {
		db := randomJoinDB(rng, 4+rng.Intn(24), 2+rng.Intn(6))
		q := randomQuery(rng)
		var baseline []relation.Tuple
		for ci, opts := range configs {
			got, _ := NewWithOptions(q, db, opts).Result()
			if ci == 0 {
				baseline = got
				continue
			}
			if len(got) != len(baseline) {
				t.Fatalf("trial %d config %+v: %d answers, baseline %d (query %s)",
					trial, opts, len(got), len(baseline), q)
			}
			for i := range got {
				if !got[i].Equal(baseline[i]) {
					t.Fatalf("trial %d config %+v: answer %d differs: %v vs %v",
						trial, opts, i, got[i], baseline[i])
				}
			}
		}
	}
}

// probePastBuild probes the atom until its bound columns have answered
// the evaluator's scans, then returns the first probe the index answers.
func probePastBuild(e *Evaluator, a *query.Atom, rel *relation.Relation) []relation.Tuple {
	for i := 0; i < e.buildAfter; i++ {
		e.probe(a, rel)
	}
	return e.probe(a, rel)
}

// indexBuilt reports whether the evaluator holds an index on (rel, col).
func indexBuilt(e *Evaluator, rel string, col int) bool {
	return e.columns[indexKey{rel, col}].index != nil
}

// evaluatorKinds are the two evaluators: full evaluation's, which indexes
// a bound column at its first probe, and Delta's, which scans first.
var evaluatorKinds = []struct {
	name string
	mk   func(*query.Query, *relation.Database) *Evaluator
}{{"full", New}, {"delta", newEvaluator}}

func TestIndexProbeUsesSmallestBucket(t *testing.T) {
	for _, kind := range evaluatorKinds {
		t.Run(kind.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(7))
			db := randomJoinDB(rng, 200, 4)
			e := kind.mk(query.IdentityQueryNamed("R", []string{"a", "b"}), db)
			rel := db.Relation("R")
			a := &query.Atom{Rel: "R", Args: []query.Term{query.V("x"), query.V("y")}}
			// Unbound: full scan.
			if got := e.probe(a, rel); len(got) != rel.Len() {
				t.Errorf("unbound probe = %d tuples, want full %d", len(got), rel.Len())
			}
			// Bound first column, once its index is built: only that bucket.
			bindVar(e, "x", value.Int(1))
			bucket := probePastBuild(e, a, rel)
			if len(bucket) == 0 || len(bucket) >= rel.Len() {
				t.Fatalf("bound probe = %d of %d", len(bucket), rel.Len())
			}
			for _, tp := range bucket {
				if !value.Equal(tp[0], value.Int(1)) {
					t.Errorf("bucket tuple %v does not match binding", tp)
				}
			}
			// A constant argument probes the same column's index.
			ac := &query.Atom{Rel: "R", Args: []query.Term{query.CInt(2), query.V("y")}}
			unbindVar(e, "x")
			for _, tp := range e.probe(ac, rel) {
				if !value.Equal(tp[0], value.Int(2)) {
					t.Errorf("constant probe leaked %v", tp)
				}
			}
			// With both columns bound and indexed, the smaller bucket wins.
			bindVar(e, "x", value.Int(1))
			bindVar(e, "y", value.Int(3))
			both := probePastBuild(e, a, rel)
			bx := e.columns[indexKey{"R", 0}].index.bucket([]byte(value.Int(1).Key()))
			by := e.columns[indexKey{"R", 1}].index.bucket([]byte(value.Int(3).Key()))
			if want := min(len(bx), len(by)); len(both) != want {
				t.Errorf("two-column probe = %d tuples, want the smaller bucket's %d", len(both), want)
			}
		})
	}
}

func TestIndexMissYieldsEmpty(t *testing.T) {
	for _, kind := range evaluatorKinds {
		rng := rand.New(rand.NewSource(8))
		db := randomJoinDB(rng, 10, 3)
		e := kind.mk(query.IdentityQueryNamed("R", []string{"a", "b"}), db)
		a := &query.Atom{Rel: "R", Args: []query.Term{query.V("x"), query.V("y")}}
		bindVar(e, "x", value.Int(999))
		if got := probePastBuild(e, a, db.Relation("R")); len(got) != 0 {
			t.Errorf("%s: missing key returned %d tuples", kind.name, len(got))
		}
	}
}

// TestFullEvaluationIndexesAtFirstProbe: full evaluation probes a joined
// column once per outer binding, so its first probe builds the index.
func TestFullEvaluationIndexesAtFirstProbe(t *testing.T) {
	db := randomJoinDB(rand.New(rand.NewSource(10)), 40, 5)
	e := New(query.IdentityQueryNamed("R", []string{"a", "b"}), db)
	rel := db.Relation("R")
	a := &query.Atom{Rel: "R", Args: []query.Term{query.V("x"), query.V("y")}}
	bindVar(e, "x", value.Int(2))
	if got := e.probe(a, rel); len(got) >= rel.Len() || !indexBuilt(e, "R", 0) {
		t.Errorf("first probe = %d of %d tuples, index built %v; want a bucket", len(got), rel.Len(), indexBuilt(e, "R", 0))
	}
}

// TestProbeScansBeforeBuild pins the scan-first rule of Delta's
// evaluator: a bound column answers scansPerBuild probes with the whole
// relation, which satisfyAtom filters by key, and only the next probe
// builds its index.
func TestProbeScansBeforeBuild(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	db := randomJoinDB(rng, 40, 5)
	e := newEvaluator(query.IdentityQueryNamed("R", []string{"a", "b"}), db)
	rel := db.Relation("R")
	a := &query.Atom{Rel: "R", Args: []query.Term{query.V("x"), query.V("y")}}
	bindVar(e, "x", value.Int(2))
	for i := 0; i < scansPerBuild; i++ {
		got := e.probe(a, rel)
		if len(got) != rel.Len() || &got[0] != &rel.Tuples()[0] {
			t.Fatalf("probe %d before the build = %d tuples, want the relation's %d", i+1, len(got), rel.Len())
		}
		if indexBuilt(e, "R", 0) {
			t.Fatalf("index built after %d probes, want after %d", i+1, scansPerBuild)
		}
	}
	if got := e.probe(a, rel); len(got) >= rel.Len() || !indexBuilt(e, "R", 0) {
		t.Errorf("probe %d = %d of %d tuples, index built %v; want a bucket from a new index",
			scansPerBuild+1, len(got), rel.Len(), indexBuilt(e, "R", 0))
	}
	if indexBuilt(e, "R", 1) {
		t.Error("an unbound column was indexed")
	}
}

// TestSatisfySameOrderAcrossBuild: a bound atom yields the same tuples in
// the same order whether its probe scans the relation or reads a bucket,
// so the build point cannot move enumeration or stream order.
func TestSatisfySameOrderAcrossBuild(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	db := randomJoinDB(rng, 60, 4)
	e := newEvaluator(query.IdentityQueryNamed("R", []string{"a", "b"}), db)
	a := &query.Atom{Rel: "R", Args: []query.Term{query.V("x"), query.V("y")}}
	bindVar(e, "x", value.Int(1))
	run := func() []relation.Tuple {
		var out []relation.Tuple
		e.satisfyAtom(a, func() bool {
			out = append(out, relation.Tuple{e.vals[e.slots["x"]], e.vals[e.slots["y"]]})
			return true
		})
		return out
	}
	first := run()
	if len(first) == 0 {
		t.Fatal("no tuple matched the binding")
	}
	for i := 1; i <= scansPerBuild+2; i++ {
		got := run()
		if len(got) != len(first) {
			t.Fatalf("satisfy %d yielded %d tuples, first yielded %d", i+1, len(got), len(first))
		}
		for j := range got {
			if !got[j].Equal(first[j]) {
				t.Fatalf("satisfy %d tuple %d = %v, first had %v", i+1, j, got[j], first[j])
			}
		}
	}
	if !indexBuilt(e, "R", 0) {
		t.Error("the runs never reached the build point")
	}
}

// TestJoinMatchesByKeyAcrossBuild: a join over values value.Equal finds
// equal but whose keys differ (NaN, an int and a float of 1e16) answers the
// same whether a probe scans or reads an index, in both evaluators and
// without indexes: arguments match by key throughout.
func TestJoinMatchesByKeyAcrossBuild(t *testing.T) {
	r := relation.NewRelation(relation.NewSchema("R", "x"))
	s := relation.NewRelation(relation.NewSchema("S", "x"))
	r.InsertAll(relation.Tuple{value.Int(1e16)}, relation.Tuple{value.Float(math.NaN())}, relation.Ints(5), relation.Ints(7))
	s.InsertAll(relation.Tuple{value.Float(1e16)}, relation.Ints(5), relation.Tuple{value.Float(7)}, relation.Tuple{value.Float(math.NaN())})
	db := relation.NewDatabase().Add(r).Add(s)
	q := query.MustNew("Q", []string{"x"}, &query.And{Fs: []query.Formula{
		&query.Atom{Rel: "R", Args: []query.Term{query.V("x")}},
		&query.Atom{Rel: "S", Args: []query.Term{query.V("x")}},
	}})
	keys := func(e *Evaluator) string {
		answers, _ := e.Result()
		var ks []string
		for _, t := range answers {
			ks = append(ks, t.Key())
		}
		sort.Strings(ks)
		return strings.Join(ks, " ")
	}
	const want = "fNaN i5 i7"
	if got := keys(NewWithOptions(q, db, Options{NoIndex: true})); got != want {
		t.Errorf("unindexed answers %q, want %q", got, want)
	}
	if got := keys(New(q, db)); got != want {
		t.Errorf("full evaluation answers %q, want %q", got, want)
	}
	e := newEvaluator(q, db)
	for run := 1; run <= scansPerBuild/r.Len()+2; run++ {
		if got := keys(e); got != want {
			t.Errorf("Delta's evaluator, run %d: answers %q, want %q", run, got, want)
		}
	}
	if !indexBuilt(e, "R", 0) && !indexBuilt(e, "S", 0) {
		t.Error("the runs never reached the build point")
	}
}

// TestMemberBuildsNoIndex: a single membership check on a join in Delta's
// evaluator probes each bound column once, which never pays for an index.
func TestMemberBuildsNoIndex(t *testing.T) {
	r := relation.NewRelation(relation.NewSchema("R", "a", "b"))
	s := relation.NewRelation(relation.NewSchema("S", "b", "c"))
	for i := int64(0); i < 200; i++ {
		r.Insert(relation.Ints(i, i+1))
		s.Insert(relation.Ints(i+1, i+2))
	}
	db := relation.NewDatabase().Add(r).Add(s)
	q := query.MustNew("Q", []string{"a", "c"}, &query.And{Fs: []query.Formula{
		&query.Atom{Rel: "R", Args: []query.Term{query.V("a"), query.V("b")}},
		&query.Atom{Rel: "S", Args: []query.Term{query.V("b"), query.V("c")}},
	}})
	e := newEvaluator(q, db)
	if !e.Member(relation.Ints(70, 72)) {
		t.Fatal("Member(70, 72) = false for an answer")
	}
	for k, c := range e.columns {
		if c.index != nil {
			t.Errorf("Member built an index on %v", k)
		}
	}
}

func TestConjunctCostOrdersFiltersFirst(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	db := randomJoinDB(rng, 50, 4)
	e := New(query.IdentityQueryNamed("R", []string{"a", "b"}), db)
	boundCmp := &query.Cmp{Op: query.LT, L: query.V("x"), R: query.CInt(3)}
	atom := &query.Atom{Rel: "R", Args: []query.Term{query.V("x"), query.V("y")}}
	bindVar(e, "x", value.Int(1))
	if e.conjunctCost(boundCmp) >= e.conjunctCost(atom) {
		t.Error("bound comparison should cost less than an atom scan")
	}
	// Unbound comparisons are domain enumerations: dead last.
	unboundCmp := &query.Cmp{Op: query.LT, L: query.V("w"), R: query.CInt(3)}
	if e.conjunctCost(unboundCmp) <= e.conjunctCost(atom) {
		t.Error("unbound comparison should cost more than an atom scan")
	}
	fs := []query.Formula{unboundCmp, atom, boundCmp}
	sim := map[int]bool{e.slot("x"): true}
	if i := e.nextConjunct(fs, make([]bool, 3), sim); i != 2 {
		t.Errorf("nextConjunct picked %d, want the bound filter (2)", i)
	}
	// The memoized planner must produce the same order on repeat visits.
	and := &query.And{Fs: fs}
	first := e.plan(and)
	second := e.plan(and)
	if len(first) != 3 || &first[0] == nil || len(second) != 3 {
		t.Fatal("planner broke")
	}
	for i := range first {
		if first[i] != second[i] {
			t.Error("plan not memoized deterministically")
		}
	}
	if first[0] != query.Formula(boundCmp) {
		t.Errorf("plan starts with %T, want the bound filter", first[0])
	}
}

func TestNewWithOptionsDisables(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	db := randomJoinDB(rng, 20, 4)
	q := query.IdentityQueryNamed("R", []string{"a", "b"})
	e := NewWithOptions(q, db, Options{NoIndex: true, NoReorder: true})
	if !e.noIndex || !e.noReorder {
		t.Error("options not applied")
	}
	// probe must fall back to a full scan.
	a := &query.Atom{Rel: "R", Args: []query.Term{query.V("x"), query.V("y")}}
	bindVar(e, "x", value.Int(1))
	if got := e.probe(a, db.Relation("R")); len(got) != db.Relation("R").Len() {
		t.Error("NoIndex probe should scan fully")
	}
}

// TestIndexedJoinMatchesNestedLoopOnChain pins a concrete join: R ⋈ S on b.
func TestIndexedJoinMatchesNestedLoopOnChain(t *testing.T) {
	db := relation.NewDatabase()
	r := relation.NewRelation(relation.NewSchema("R", "a", "b"))
	s := relation.NewRelation(relation.NewSchema("S", "b", "c"))
	for i := int64(0); i < 5; i++ {
		r.Insert(relation.Tuple{value.Int(i), value.Int(i % 3)})
		s.Insert(relation.Tuple{value.Int(i % 3), value.Int(10 + i)})
	}
	db.Add(r).Add(s)
	q := query.MustNew("Q", []string{"a", "c"}, &query.And{Fs: []query.Formula{
		&query.Atom{Rel: "R", Args: []query.Term{query.V("a"), query.V("b")}},
		&query.Atom{Rel: "S", Args: []query.Term{query.V("b"), query.V("c")}},
	}})
	want := make(map[string]bool)
	for _, rt := range r.Tuples() {
		for _, st := range s.Tuples() {
			if value.Equal(rt[1], st[0]) {
				want[fmt.Sprintf("%v|%v", rt[0], st[1])] = true
			}
		}
	}
	got, _ := Evaluate(q, db)
	if len(got) != len(want) {
		t.Fatalf("join produced %d tuples, want %d", len(got), len(want))
	}
	for _, tp := range got {
		if !want[fmt.Sprintf("%v|%v", tp[0], tp[1])] {
			t.Errorf("unexpected join tuple %v", tp)
		}
	}
}

// bindVar pins a variable to a constant in the evaluator's slot table,
// interning the name if needed (test helper).
func bindVar(e *Evaluator, name string, v value.Value) {
	s := e.slot(name)
	e.vals[s] = v
	e.bound[s] = true
}

// unbindVar clears a variable's binding (test helper).
func unbindVar(e *Evaluator, name string) {
	if s, ok := e.slots[name]; ok {
		e.bound[s] = false
	}
}

// BenchmarkColumnIndex prices the two ways a probe can answer a bound
// column of a 24,000-row relation shaped like the write-mix history
// (item, buyer, rating): building the column's hash index, and scanning
// the relation with the column bound. Their ratio sets scansPerBuild.
func BenchmarkColumnIndex(b *testing.B) {
	db := relation.NewDatabase()
	h := relation.NewRelation(relation.NewSchema("history", "item", "buyer", "rating"))
	rng := rand.New(rand.NewSource(1))
	for h.Len() < 24_000 {
		h.Insert(relation.Tuple{
			value.Str(fmt.Sprintf("w%05d", rng.Intn(6_000))),
			value.Str(fmt.Sprintf("u%03d", rng.Intn(500))),
			value.Int(int64(rng.Intn(5))),
		})
	}
	db.Add(h)
	q := query.IdentityQueryNamed("history", []string{"i", "b", "r"})
	a := &query.Atom{Rel: "history", Args: []query.Term{query.V("i"), query.V("b"), query.V("r")}}
	item := h.Tuples()[0][0]
	b.Run("build", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			e := newEvaluator(q, db)
			e.buildAfter = 0
			if e.index(h, 0) == nil {
				b.Fatal("no index built")
			}
		}
	})
	b.Run("scan", func(b *testing.B) {
		e := NewWithOptions(q, db, Options{NoIndex: true})
		bindVar(e, "i", item)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			n := 0
			e.satisfyAtom(a, func() bool { n++; return true })
			if n == 0 {
				b.Fatal("scan found nothing")
			}
		}
	})
}
