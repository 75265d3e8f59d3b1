package eval

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
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
			got := NewWithOptions(q, db, opts).Result()
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

// probeRun returns the tuples a probe of the atom yields under the
// evaluator's binding: the run's rows, or the whole relation when the
// probe reads no index.
func probeRun(e *Evaluator, a *query.Atom, rel *relation.Relation) []relation.Tuple {
	run, ok := e.probe(a, rel)
	if !ok {
		return rel.Tuples()
	}
	out := make([]relation.Tuple, len(run))
	for i := range run {
		out[i] = rel.Tuples()[run.Pos(i)]
	}
	return out
}

// TestIndexProbeUsesSmallestBucket: a probe with one bound argument reads
// that column's run, a constant argument probes like a bound one, and with
// two indexed columns bound the shorter run wins. The "full" case probes
// indexes built over the loaded relation, as a full evaluation finds them;
// "delta" probes them after inserts and deletes have maintained them, as a
// delta refresh finds them.
func TestIndexProbeUsesSmallestBucket(t *testing.T) {
	for _, name := range []string{"full", "delta"} {
		t.Run(name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(7))
			db := randomJoinDB(rng, 200, 4)
			e := New(query.IdentityQueryNamed("R", []string{"a", "b"}), db)
			rel := db.Relation("R")
			a := &query.Atom{Rel: "R", Args: []query.Term{query.V("x"), query.V("y")}}
			// Unbound: full scan, no index.
			if got := probeRun(e, a, rel); len(got) != rel.Len() || len(rel.Indexed()) != 0 {
				t.Errorf("unbound probe = %d tuples, indexes %v; want the full %d and none", len(got), rel.Indexed(), rel.Len())
			}
			bindVar(e, "y", value.Int(3))
			probeRun(e, a, rel) // builds the index on column 1
			unbindVar(e, "y")
			if name == "delta" {
				for i := 0; i < 40; i++ {
					rel.Insert(relation.Ints(int64(rng.Intn(4)), int64(rng.Intn(4)+i%3)))
					if i%2 == 0 {
						ts := rel.Tuples()
						rel.Delete(ts[rng.Intn(len(ts))])
					}
				}
			}
			// Bound first column: only its tuples.
			bindVar(e, "x", value.Int(1))
			bucket := probeRun(e, a, rel)
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
			for _, tp := range probeRun(e, ac, rel) {
				if !value.Equal(tp[0], value.Int(2)) {
					t.Errorf("constant probe leaked %v", tp)
				}
			}
			// With both columns bound and indexed, the smaller run wins.
			bindVar(e, "x", value.Int(1))
			bindVar(e, "y", value.Int(3))
			both := probeRun(e, a, rel)
			bx := rel.Probe([]int{0}, []value.Value{value.Int(1)})
			by := rel.Probe([]int{1}, []value.Value{value.Int(3)})
			if want := min(len(bx), len(by)); len(both) != want {
				t.Errorf("two-column probe = %d tuples, want the smaller run's %d", len(both), want)
			}
			if got := rel.Indexed(); !slices.Equal(got, []int{0, 1}) {
				t.Errorf("indexed columns %v, want [0 1]", got)
			}
		})
	}
}

func TestIndexMissYieldsEmpty(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	db := randomJoinDB(rng, 10, 3)
	e := New(query.IdentityQueryNamed("R", []string{"a", "b"}), db)
	a := &query.Atom{Rel: "R", Args: []query.Term{query.V("x"), query.V("y")}}
	bindVar(e, "x", value.Int(999))
	for probe := 1; probe <= 2; probe++ { // the build, then the built index
		if got := probeRun(e, a, db.Relation("R")); len(got) != 0 {
			t.Errorf("probe %d: missing key returned %d tuples", probe, len(got))
		}
	}
}

// TestFullEvaluationIndexesAtFirstProbe: full evaluation probes a joined
// column once per outer binding, so its first probe builds the index, on
// the relation, where later evaluations find it.
func TestFullEvaluationIndexesAtFirstProbe(t *testing.T) {
	db := randomJoinDB(rand.New(rand.NewSource(10)), 40, 5)
	e := New(query.IdentityQueryNamed("R", []string{"a", "b"}), db)
	rel := db.Relation("R")
	a := &query.Atom{Rel: "R", Args: []query.Term{query.V("x"), query.V("y")}}
	bindVar(e, "x", value.Int(2))
	if got := probeRun(e, a, rel); len(got) >= rel.Len() || !slices.Equal(rel.Indexed(), []int{0}) {
		t.Errorf("first probe = %d of %d tuples, indexes %v; want a run from column 0's index", len(got), rel.Len(), rel.Indexed())
	}
	q := query.MustNew("Q", []string{"a", "c"}, &query.And{Fs: []query.Formula{
		&query.Atom{Rel: "R", Args: []query.Term{query.V("a"), query.V("b")}},
		&query.Atom{Rel: "S", Args: []query.Term{query.V("b"), query.V("c")}},
	}})
	Evaluate(q, db)
	if got := db.Relation("S").Indexed(); !slices.Equal(got, []int{0}) {
		t.Errorf("after a join, S indexes %v, want its joined column [0]", got)
	}
}

// TestSatisfySameOrderAcrossBuild: a bound atom yields the same tuples in
// the same order whether it scans the relation or reads an index, before
// and after inserts and deletes maintain the index, so indexing cannot
// move enumeration or stream order.
func TestSatisfySameOrderAcrossBuild(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	db := randomJoinDB(rng, 60, 4)
	rel := db.Relation("R")
	q := query.IdentityQueryNamed("R", []string{"a", "b"})
	a := &query.Atom{Rel: "R", Args: []query.Term{query.V("x"), query.V("y")}}
	run := func(e *Evaluator) []relation.Tuple {
		bindVar(e, "x", value.Int(1))
		var out []relation.Tuple
		e.satisfyAtom(a, func() bool {
			out = append(out, relation.Tuple{e.vals[e.slots["x"]], e.vals[e.slots["y"]]})
			return true
		})
		return out
	}
	for step := 0; step < 30; step++ {
		scanned := run(NewWithOptions(q, db, Options{NoIndex: true}))
		indexed := run(New(q, db))
		if len(scanned) == 0 && step == 0 {
			t.Fatal("no tuple matched the binding")
		}
		if len(indexed) != len(scanned) {
			t.Fatalf("step %d: index yielded %d tuples, scan %d", step, len(indexed), len(scanned))
		}
		for j := range scanned {
			if !indexed[j].Equal(scanned[j]) {
				t.Fatalf("step %d: tuple %d = %v through the index, %v by scan", step, j, indexed[j], scanned[j])
			}
		}
		rel.Insert(relation.Ints(int64(rng.Intn(3)), int64(100+step)))
		ts := rel.Tuples()
		rel.Delete(ts[rng.Intn(len(ts))])
	}
	if !slices.Equal(rel.Indexed(), []int{0}) {
		t.Errorf("indexed columns %v, want [0]", rel.Indexed())
	}
}

// TestJoinMatchesByKeyAcrossBuild: a join over values whose order once
// tied different keys (NaN, an int and a float of 1e16) answers the same
// without indexes, through indexes built by the evaluation, and through
// indexes an earlier evaluation left: arguments match equal values, which
// share a key, throughout.
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
		answers := e.Result()
		var ks []string
		for _, t := range answers {
			ks = append(ks, t.Key())
		}
		sort.Strings(ks)
		return strings.Join(ks, " ")
	}
	const want = "fNaN i10000000000000000 i5 i7"
	if got := keys(NewWithOptions(q, db, Options{NoIndex: true})); got != want {
		t.Errorf("unindexed answers %q, want %q", got, want)
	}
	for run := 1; run <= 2; run++ {
		if got := keys(New(q, db)); got != want {
			t.Errorf("run %d: answers %q, want %q", run, got, want)
		}
	}
	if len(r.Indexed())+len(s.Indexed()) == 0 {
		t.Error("the join built no index")
	}
}

// TestMemberBuildsNoIndex: the column indexes live in the relations, so a
// membership check after another one — as each delta refresh makes — finds
// the indexes the first built and builds none, and the first built only
// the first bound column of each atom it probed.
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
	if !New(q, db).Member(relation.Ints(70, 72)) {
		t.Fatal("Member(70, 72) = false for an answer")
	}
	ri, si := r.Indexed(), s.Indexed()
	if !slices.Equal(ri, []int{0}) || !slices.Equal(si, []int{0}) {
		t.Fatalf("first Member indexed R %v, S %v; want [0] and [0]", ri, si)
	}
	e := New(q, db)
	if e.Member(relation.Ints(70, 73)) || !e.Member(relation.Ints(10, 12)) {
		t.Fatal("second evaluator's Member answers wrongly")
	}
	if !slices.Equal(r.Indexed(), ri) || !slices.Equal(s.Indexed(), si) {
		t.Errorf("second Member built an index: R %v, S %v", r.Indexed(), s.Indexed())
	}
	if e.examined > 4 {
		t.Errorf("two membership checks examined %d tuples, want runs of at most one row per atom", e.examined)
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
	if _, ok := e.probe(a, db.Relation("R")); ok || len(db.Relation("R").Indexed()) != 0 {
		t.Error("NoIndex probe should scan fully and build no index")
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
	got := Evaluate(q, db)
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
