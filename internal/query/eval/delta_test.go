package eval

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/query"
	"repro/internal/query/parse"
	"repro/internal/relation"
	"repro/internal/value"
)

func TestDeltaCapable(t *testing.T) {
	cases := []struct {
		src  string
		want bool
	}{
		{"Q(x, y) :- R(x, y)", true},
		{"Q(x) :- R(x, y), S(y)", true},
		{"Q(x) :- R(x, y), y >= 2", true},
		{"Q(x) :- R(x, y) or R(y, x)", true},
		{"Q(x) :- exists y (R(x, y), S(y))", true},
		// Negation: not monotone.
		{"Q(x) :- R(x, y), not S(x)", false},
		// Universal quantification: not monotone.
		{"Q(x) :- S(x), forall y (not R(x, y) or y >= 0)", false},
		// Comparison-only variable: answer depends on the active domain.
		{"Q(x) :- S(y), x >= y", false},
		// A disjunct that leaves a variable to the domain.
		{"Q(x) :- R(x, y) or x = 5", false},
		// Quantified variable constrained only by a comparison.
		{"Q(x) :- S(x), exists y (y >= x)", false},
	}
	for _, c := range cases {
		q := parse.MustQuery(c.src)
		if got := DeltaCapable(q); got != c.want {
			t.Errorf("DeltaCapable(%s) = %v, want %v", c.src, got, c.want)
		}
	}
}

// applyDelta merges a DeltaResult into a sorted answer set as a prepared
// handle does: the removed answers, found by binary search, drop out and
// the additions merge in, so a delta checked against a full evaluation is
// checked in the order a refresh serves.
func applyDelta(old []relation.Tuple, d DeltaResult) []relation.Tuple {
	dead := make([]int, len(d.Removed))
	for i, t := range d.Removed {
		dead[i], _ = relation.Search(old, t)
	}
	merged, _ := relation.Merge(old, dead, d.Added)
	return merged
}

// checkDelta asserts that Delta across the journal suffix reproduces a full
// re-evaluation exactly.
func checkDelta(t *testing.T, src string, db *relation.Database, old []relation.Tuple, gen uint64) DeltaResult {
	t.Helper()
	q := parse.MustQuery(src)
	changes, ok := db.ChangesSince(gen)
	if !ok {
		t.Fatal("journal does not cover the test span")
	}
	d, ok, err := Delta(context.Background(), q, db, changes, old)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatalf("Delta refused a capable query %s", src)
	}
	got := applyDelta(old, d)
	want := Evaluate(q, db)
	if !sameKeys(got, want) {
		t.Fatalf("delta answers = %v, full eval = %v", got, want)
	}
	if scanned := NewWithOptions(q, db, Options{NoIndex: true}).Result(); !sameKeys(got, scanned) {
		t.Fatalf("delta answers = %v, unindexed eval = %v", got, scanned)
	}
	return d
}

// sameKeys reports whether two answer lists hold the same tuple keys in
// the same order: a delta must order answers as a cold evaluation does.
func sameKeys(got, want []relation.Tuple) bool {
	return slices.EqualFunc(got, want, func(g, w relation.Tuple) bool { return g.Key() == w.Key() })
}

func TestDeltaInsertIdentity(t *testing.T) {
	db := testDB()
	src := "Q(x, y) :- R(x, y)"
	old := results(t, src, db)
	gen := db.Generation()
	db.Relation("R").Insert(relation.Ints(9, 9))
	d := checkDelta(t, src, db, old, gen)
	if len(d.Added) != 1 || len(d.Removed) != 0 {
		t.Errorf("delta = +%d/-%d, want +1/-0", len(d.Added), len(d.Removed))
	}
}

func TestDeltaInsertJoinBothSides(t *testing.T) {
	db := testDB()
	src := "Q(x, y) :- R(x, z), R(z, y)"
	old := results(t, src, db)
	gen := db.Generation()
	// (4,5) extends the chain on both atom positions: new answers (3,5)
	// via R(3,4),R(4,5) — the inserted tuple matching the second atom.
	db.Relation("R").Insert(relation.Ints(4, 5))
	d := checkDelta(t, src, db, old, gen)
	if len(d.Added) == 0 {
		t.Error("expected join answers from the inserted tuple")
	}
}

func TestDeltaInsertIrrelevantRelation(t *testing.T) {
	db := testDB()
	src := "Q(x) :- S(x)"
	old := results(t, src, db)
	gen := db.Generation()
	db.Relation("R").Insert(relation.Ints(7, 7)) // not mentioned by Q
	d := checkDelta(t, src, db, old, gen)
	if len(d.Added) != 0 || len(d.Removed) != 0 || d.Rechecked != 0 {
		t.Errorf("irrelevant insert produced work: %+v", d)
	}
}

func TestDeltaDeleteRemovesAnswers(t *testing.T) {
	db := testDB()
	src := "Q(x) :- R(x, y), S(y)"
	old := results(t, src, db) // (1) via S(2), (2) via... R(2,3) S(3)? no: S={2,4}; (1,2)->S(2) yes; (3,4)->S(4) yes
	gen := db.Generation()
	db.Relation("S").Delete(relation.Ints(2))
	d := checkDelta(t, src, db, old, gen)
	if len(d.Removed) == 0 {
		t.Error("expected the delete to remove answers")
	}
	// S(y) binds no head variable, so every cached answer is suspect.
	if d.Rechecked != len(old) {
		t.Errorf("Rechecked = %d, want %d", d.Rechecked, len(old))
	}
}

// TestDeltaDeleteRechecksSuspectsOnly: on a join, a delete batch
// re-verifies only the cached answers that agree with some deleted tuple
// where an atom over its relation binds a head variable.
func TestDeltaDeleteRechecksSuspectsOnly(t *testing.T) {
	for _, batch := range []int{1, 10} {
		db := relation.NewDatabase()
		r := relation.NewRelation(relation.NewSchema("R", "x", "y"))
		db.Add(r)
		rng := rand.New(rand.NewSource(3))
		for r.Len() < 60 {
			r.Insert(relation.Ints(rng.Int63n(12), rng.Int63n(12)))
		}
		src := "Q(x, z) :- R(x, y), R(y, z)"
		old := results(t, src, db)
		gen := db.Generation()
		var dels []relation.Tuple
		for _, i := range rng.Perm(r.Len())[:batch] {
			dels = append(dels, r.Tuples()[i])
		}
		for _, del := range dels {
			r.Delete(del)
		}
		d := checkDelta(t, src, db, old, gen)
		// R(x, y) fixes head position 0 to del[0]; R(y, z) fixes position
		// 1 to del[1].
		want := 0
		for _, u := range old {
			for _, del := range dels {
				if u[0].AsInt() == del[0].AsInt() || u[1].AsInt() == del[1].AsInt() {
					want++
					break
				}
			}
		}
		if d.Rechecked != want || want == len(old) {
			t.Errorf("%d deletes: Rechecked = %d, want the %d of %d answers sharing a deleted tuple's head values", batch, d.Rechecked, want, len(old))
		}
	}
}

// TestDeltaQuantifierShadowsHeadVariable: the inner y is not the head's y.
// Forcing the quantified atom to an inserted tuple must not pin the outer
// variable sharing its name, or the seminaive step misses answers.
func TestDeltaQuantifierShadowsHeadVariable(t *testing.T) {
	db := testDB()
	src := "Q(x, y) :- R(x, y), exists y (R(y, x))"
	old := results(t, src, db)
	gen := db.Generation()
	db.Relation("R").Insert(relation.Ints(5, 1)) // R(1, 2) now has a predecessor
	d := checkDelta(t, src, db, old, gen)
	if len(d.Added) != 1 || !d.Added[0].Equal(relation.Ints(1, 2)) {
		t.Errorf("Added = %v, want [(1, 2)]", d.Added)
	}
}

// TestDeltaKeyEdgeValuesMatchFullEval: values whose order once tied
// different keys — NaN, and an int and a float of 1e16 — join exactly when
// they are equal (NaN with NaN, the int 1e16 with the float 1e16), in
// Delta's few scanned probes as in full evaluation's index probes, so a
// refresh matches a cold evaluation.
func TestDeltaKeyEdgeValuesMatchFullEval(t *testing.T) {
	db := relation.NewDatabase()
	r := relation.NewRelation(relation.NewSchema("R", "x"))
	s := relation.NewRelation(relation.NewSchema("S", "x"))
	db.Add(r).Add(s)
	r.InsertAll(relation.Tuple{value.Int(1e16)}, relation.Ints(5))
	src := "Q(x) :- R(x), S(x)"
	old := results(t, src, db)
	steps := []func(){
		func() { s.Insert(relation.Tuple{value.Float(1e16)}); s.Insert(relation.Tuple{value.Float(math.NaN())}) },
		func() { r.Insert(relation.Tuple{value.Float(math.NaN())}); s.Insert(relation.Tuple{value.Float(5)}) },
		func() { s.Delete(relation.Tuple{value.Float(math.NaN())}) },
	}
	wantLen := []int{1, 3, 2}
	for i, step := range steps {
		gen := db.Generation()
		step()
		checkDelta(t, src, db, old, gen)
		old = results(t, src, db)
		if len(old) != wantLen[i] {
			t.Errorf("step %d: %d answers %v, want %d", i, len(old), old, wantLen[i])
		}
	}
}

func TestDeltaDeleteKeepsAlternateDerivations(t *testing.T) {
	db := testDB()
	// Q(y) over two derivations for y=2: R(1,2) and S(2). (The unbound
	// side of the disjunction is quantified so each disjunct binds every
	// free variable — the range-safety the delta path demands.)
	src := "Q(y) :- exists x (R(x, y)) or S(y)"
	old := results(t, src, db)
	gen := db.Generation()
	db.Relation("R").Delete(relation.Ints(1, 2)) // S(2) still derives y=2
	d := checkDelta(t, src, db, old, gen)
	for _, r := range d.Removed {
		if r[0].AsInt() == 2 {
			t.Error("answer 2 still has a derivation through S and must not be removed")
		}
	}
}

func TestDeltaMixedBatch(t *testing.T) {
	db := testDB()
	src := "Q(x, y) :- R(x, y)"
	old := results(t, src, db)
	gen := db.Generation()
	r := db.Relation("R")
	r.Insert(relation.Ints(5, 6))
	r.Delete(relation.Ints(1, 2))
	r.Insert(relation.Ints(6, 7))
	r.Delete(relation.Ints(5, 6)) // inserted then deleted within the batch
	checkDelta(t, src, db, old, gen)
}

func TestDeltaRefusesNonMonotone(t *testing.T) {
	db := testDB()
	q := parse.MustQuery("Q(x) :- R(x, y), not S(x)")
	gen := db.Generation()
	db.Relation("R").Insert(relation.Ints(8, 8))
	changes, _ := db.ChangesSince(gen)
	_, ok, err := Delta(context.Background(), q, db, changes, nil)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Error("Delta must refuse non-monotone queries")
	}
}

func TestDeltaExistentialAndConstants(t *testing.T) {
	db := testDB()
	src := "Q(x) :- exists y (R(x, y), S(y)), x >= 1"
	old := results(t, src, db)
	gen := db.Generation()
	db.Relation("S").Insert(relation.Ints(3)) // R(2,3) now derives x=2
	d := checkDelta(t, src, db, old, gen)
	if len(d.Added) != 1 || d.Added[0][0].AsInt() != 2 {
		t.Errorf("Added = %v, want [(2)]", d.Added)
	}
}

// TestDeltaRandomizedAgainstFullEval drives long sequences of random
// insert/delete batches through a set of capable queries, one database per
// sequence so the relations' column indexes live across refreshes, and
// checks every delta against a full re-evaluation and an unindexed one —
// the differential property the incremental path must hold.
func TestDeltaRandomizedAgainstFullEval(t *testing.T) {
	queries := []string{
		"Q(x, y) :- R(x, y)",
		"Q(x) :- R(x, y), S(y)",
		"Q(x, y) :- R(x, z), R(z, y)",
		"Q(y) :- exists x (R(x, y)) or S(y)",
		"Q(x) :- exists y (R(x, y), S(y)), x >= 0",
		"Q(x, y) :- R(x, y), exists y (R(y, x))",
		"Q(x) :- R(x, x)",
		"Q(y) :- R(3, y)",
		"Q(x, y) :- R(x, y) or (S(x), S(y))",
		"Q(x, y) :- R(x, y), R(y, x)",
	}
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 40; trial++ {
		db := relation.NewDatabase()
		r := relation.NewRelation(relation.NewSchema("R", "x", "y"))
		s := relation.NewRelation(relation.NewSchema("S", "x"))
		db.Add(r).Add(s)
		for i := 0; i < 15; i++ {
			r.Insert(relation.Ints(rng.Int63n(8), rng.Int63n(8)))
			s.Insert(relation.Ints(rng.Int63n(8)))
		}
		src := queries[trial%len(queries)]
		old := results(t, src, db)
		for step := 0; step < 30; step++ {
			gen := db.Generation()
			for i := rng.Intn(6); i >= 0; i-- {
				switch rng.Intn(4) {
				case 0:
					r.Insert(relation.Ints(rng.Int63n(10), rng.Int63n(10)))
				case 1:
					s.Insert(relation.Ints(rng.Int63n(10)))
				case 2:
					if ts := r.Tuples(); len(ts) > 0 {
						r.Delete(ts[rng.Intn(len(ts))])
					}
				default:
					if ts := s.Tuples(); len(ts) > 0 {
						s.Delete(ts[rng.Intn(len(ts))])
					}
				}
			}
			old = applyDelta(old, checkDelta(t, src, db, old, gen))
		}
	}
}

// TestDeltaWriteMixStepExaminesFew: one write step on the write-mix shape
// (6,000 catalog rows, 24,000 history rows, about 4,700 answers), once a
// full evaluation has run, reads at most 64 relation tuples: every bound
// atom reads a run of a column index the relations keep, instead of
// scanning history and catalog whole.
func TestDeltaWriteMixStepExaminesFew(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	catalog := relation.NewRelation(relation.NewSchema("catalog", "item", "type", "price", "stock"))
	history := relation.NewRelation(relation.NewSchema("history", "item", "buyer", "rating"))
	db := relation.NewDatabase().Add(catalog).Add(history)
	str := func(format string, n int) value.Value { return value.Str(fmt.Sprintf(format, n)) }
	for i := 0; i < 6_000; i++ {
		catalog.Insert(relation.Tuple{str("w%05d", i), str("t%02d", rng.Intn(40)), value.Int(int64(1 + rng.Intn(500))), value.Int(int64(rng.Intn(20)))})
	}
	var bought []relation.Tuple
	for history.Len() < 24_000 {
		tu := relation.Tuple{str("w%05d", rng.Intn(6_000)), str("u%03d", rng.Intn(500)), value.Int(int64(rng.Intn(5)))}
		if history.Insert(tu) && tu[2].AsInt() == 4 {
			bought = append(bought, tu)
		}
	}
	src := "Q(i, t, p, b) :- catalog(i, t, p, s), history(i, b, r), r >= 4"
	old := results(t, src, db)
	for step := 0; step < 3; step++ {
		gen := db.Generation()
		item := str("x%06d", step)
		catalog.Insert(relation.Tuple{item, str("t%02d", rng.Intn(40)), value.Int(int64(1 + rng.Intn(500))), value.Int(int64(rng.Intn(20)))})
		history.Insert(relation.Tuple{item, str("u%03d", rng.Intn(500)), value.Int(4)})
		if !history.Delete(bought[rng.Intn(len(bought))]) {
			t.Fatal("the deleted purchase was absent")
		}
		changes, _ := db.ChangesSince(gen)
		d, ok, err := Delta(context.Background(), parse.MustQuery(src), db, changes, old)
		if err != nil || !ok {
			t.Fatalf("Delta: ok %v, err %v", ok, err)
		}
		if want := results(t, src, db); !sameKeys(applyDelta(old, d), want) {
			t.Fatalf("step %d: delta answers differ from a full evaluation", step)
		}
		if d.Examined > 64 {
			t.Errorf("step %d examined %d tuples, want at most 64", step, d.Examined)
		}
		if len(d.Added) != 1 {
			t.Errorf("step %d added %d answers, want the new purchase", step, len(d.Added))
		}
		old = applyDelta(old, d)
	}
}

func TestDeltaCancellation(t *testing.T) {
	db := testDB()
	q := parse.MustQuery("Q(x, y) :- R(x, y)")
	gen := db.Generation()
	db.Relation("R").Insert(relation.Ints(11, 11))
	changes, _ := db.ChangesSince(gen)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, _, err := Delta(ctx, q, db, changes, []relation.Tuple{relation.Ints(1, 2)})
	// A pre-cancelled context may or may not be observed on a tiny
	// instance (the poller is throttled); what matters is that an error,
	// when reported, is the context's.
	if err != nil && err != context.Canceled {
		t.Errorf("err = %v, want context.Canceled or nil", err)
	}
}

// keySuspects is the delete suspect filter as it was before suspects
// searched runs: it files each deleted tuple's head-pair key string under
// every atom that could have matched it and looks every cached answer's
// key up under each such atom. FuzzDeltaDeletes holds Rechecked and Removed
// to it.
func keySuspects(atomsByRel map[string][]atomScope, deletes []relation.Change) func(relation.Tuple) bool {
	type filed struct {
		head [][2]int
		keys map[string]bool
	}
	byAtom := make(map[*query.Atom]*filed)
	var atoms []*filed
	var buf []byte
	for _, c := range deletes {
		for _, sc := range atomsByRel[c.Rel] {
			if !sc.canMatch(c.Tuple) {
				continue
			}
			if len(sc.head) == 0 {
				return func(relation.Tuple) bool { return true }
			}
			f := byAtom[sc.atom]
			if f == nil {
				f = &filed{head: sc.head, keys: make(map[string]bool)}
				byAtom[sc.atom] = f
				atoms = append(atoms, f)
			}
			buf = pairKey(buf[:0], sc.head, c.Tuple, 0)
			f.keys[string(buf)] = true
		}
	}
	return func(u relation.Tuple) bool {
		for _, f := range atoms {
			buf = pairKey(buf[:0], f.head, u, 1)
			if f.keys[string(buf)] {
				return true
			}
		}
		return false
	}
}

// pairKey appends the keys of t's fields at one side of the head pairs (0
// the argument positions, 1 the head positions), separated as in
// Tuple.Key.
func pairKey(dst []byte, head [][2]int, t relation.Tuple, side int) []byte {
	for i, p := range head {
		if i > 0 {
			dst = append(dst, 0x1f)
		}
		dst = t[p[side]].AppendKey(dst)
	}
	return dst
}

// deltaFuzzQueries are FuzzDeltaDeletes' statements, one per way suspects
// finds an atom's suspects: atoms pairing head position 0 (searched by
// run), R(y, z) and S(x) below pairing only other positions (filed by
// hash), R(x, x) pairing position 0 twice, a quantified argument, and S(y)
// binding no head variable (every answer suspect).
var deltaFuzzQueries = []string{
	"Q(x, y) :- R(x, y)",
	"Q(x, z) :- R(x, y), R(y, z)",
	"Q(x) :- R(x, x)",
	"Q(x, y) :- R(x, y), exists y (R(y, x))",
	"Q(x) :- R(x, y), S(y)",
	"Q(y, x) :- R(x, y), S(x)",
	"Q(y) :- exists x (R(x, y)) or S(y)",
	"Q(x, y) :- R(x, y), R(y, x)",
}

// deltaFuzzValues are the values FuzzDeltaDeletes builds rows from: NaN,
// ±0 beside Int 0, Int 5 beside Float 5, and strings holding the key
// separator 0x1f and its escape 0x1e.
var deltaFuzzValues = []value.Value{
	value.Int(5), value.Float(5), value.Float(math.NaN()), value.Float(0), value.Float(math.Copysign(0, -1)),
	value.Int(0), value.Str("a\x1eb"), value.Str("a\x1fb"), value.Str("a"), value.Str("a\x1f"), value.Int(1), value.Float(1.5),
}

// FuzzDeltaDeletes holds Delta across batches of 1 to 64 deletes (and a
// few inserts, which may derive a removed answer again) to a full
// evaluation, step after step, and its Rechecked count and Removed answers
// to keySuspects, the key-string filter suspects replaced. data builds R
// and S from deltaFuzzValues and then the steps; shape picks the statement.
func FuzzDeltaDeletes(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte, shape uint8) {
		next := func() int {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return int(b)
		}
		val := func() value.Value { return deltaFuzzValues[next()%len(deltaFuzzValues)] }
		r := relation.NewRelation(relation.NewSchema("R", "x", "y"))
		s := relation.NewRelation(relation.NewSchema("S", "x"))
		db := relation.NewDatabase().Add(r).Add(s)
		for n := 8 + next()%64; n > 0; n-- {
			r.Insert(relation.Tuple{val(), val()})
		}
		for n := next() % 12; n > 0; n-- {
			s.Insert(relation.Tuple{val()})
		}
		src := deltaFuzzQueries[int(shape)%len(deltaFuzzQueries)]
		q := parse.MustQuery(src)
		atomsByRel := scopeAtoms(q)
		old := Evaluate(q, db)
		for step := 0; step < 4 && len(data) > 0; step++ {
			gen := db.Generation()
			for n := 1 + next()%64; n > 0; n-- {
				b := next()
				rel := r
				if b&1 == 1 {
					rel = s
				}
				if ts := rel.Tuples(); len(ts) > 0 {
					rel.Delete(ts[(b>>1)%len(ts)])
				}
			}
			for n := next() % 4; n > 0; n-- {
				if next()&1 == 0 {
					r.Insert(relation.Tuple{val(), val()})
				} else {
					s.Insert(relation.Tuple{val()})
				}
			}
			changes, ok := db.ChangesSince(gen)
			if !ok {
				t.Fatal("journal does not cover the step")
			}
			d, ok, err := Delta(context.Background(), q, db, changes, old)
			if err != nil || !ok {
				t.Fatalf("%s step %d: Delta ok %v, err %v", src, step, ok, err)
			}
			var deletes []relation.Change
			for _, c := range changes {
				if c.Op == relation.OpDelete {
					deletes = append(deletes, c)
				}
			}
			var rechecked int
			var removed []relation.Tuple
			if len(deletes) > 0 {
				suspect, e := keySuspects(atomsByRel, deletes), New(q, db)
				for _, u := range old {
					if suspect(u) {
						rechecked++
						if !e.Member(u) {
							removed = append(removed, u)
						}
					}
				}
			}
			if d.Rechecked != rechecked {
				t.Fatalf("%s step %d: Rechecked %d, the key filter %d", src, step, d.Rechecked, rechecked)
			}
			if !sameKeys(d.Removed, removed) {
				t.Fatalf("%s step %d: Removed %v, the key filter %v", src, step, d.Removed, removed)
			}
			got, want := applyDelta(old, d), Evaluate(q, db)
			if !sameKeys(got, want) {
				t.Fatalf("%s step %d: delta answers %v, full evaluation %v", src, step, got, want)
			}
			old = got
		}
	})
}
