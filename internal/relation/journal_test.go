package relation

import (
	"math/rand"
	"testing"
)

func TestDeleteRemovesAndReindexes(t *testing.T) {
	r := NewRelation(NewSchema("R", "x"))
	for i := int64(0); i < 5; i++ {
		r.Insert(Ints(i))
	}
	if !r.Delete(Ints(2)) {
		t.Fatal("Delete of a present tuple must report true")
	}
	if r.Delete(Ints(2)) {
		t.Error("Delete of an absent tuple must report false")
	}
	if r.Len() != 4 || r.Contains(Ints(2)) {
		t.Fatalf("after delete: len=%d contains(2)=%v", r.Len(), r.Contains(Ints(2)))
	}
	// Insertion order of the survivors is preserved and the index still
	// answers membership for every one of them.
	want := []int64{0, 1, 3, 4}
	for i, tu := range r.Tuples() {
		if tu[0].AsInt() != want[i] {
			t.Errorf("tuple %d = %v, want %d", i, tu, want[i])
		}
		if !r.Contains(tu) {
			t.Errorf("index lost tuple %v after delete", tu)
		}
	}
	// Re-inserting the deleted tuple works (appends at the end).
	if !r.Insert(Ints(2)) {
		t.Error("re-insert after delete must succeed")
	}
}

func TestJournalRecordsInsertsAndDeletes(t *testing.T) {
	db := NewDatabase()
	r := NewRelation(NewSchema("R", "x"))
	db.Add(r)
	g0 := db.Generation()
	r.Insert(Ints(1))
	r.Insert(Ints(2))
	r.Delete(Ints(1))
	changes, ok := db.ChangesSince(g0)
	if !ok {
		t.Fatal("journal must cover the span since registration")
	}
	if len(changes) != 3 {
		t.Fatalf("got %d changes, want 3", len(changes))
	}
	wantOps := []Op{OpInsert, OpInsert, OpDelete}
	wantVals := []int64{1, 2, 1}
	for i, c := range changes {
		if c.Op != wantOps[i] || c.Rel != "R" || c.Tuple[0].AsInt() != wantVals[i] {
			t.Errorf("change %d = {%s %s %v}, want {%s R (%d)}", i, c.Op, c.Rel, c.Tuple, wantOps[i], wantVals[i])
		}
		if c.Gen != g0+uint64(i)+1 {
			t.Errorf("change %d Gen = %d, want %d", i, c.Gen, g0+uint64(i)+1)
		}
	}
	// A watermark at the head yields an empty, covered delta.
	if cs, ok := db.ChangesSince(db.Generation()); !ok || len(cs) != 0 {
		t.Errorf("ChangesSince(head) = %v, %v; want empty, true", cs, ok)
	}
	// Partial suffix.
	if cs, ok := db.ChangesSince(g0 + 2); !ok || len(cs) != 1 || cs[0].Op != OpDelete {
		t.Errorf("ChangesSince(g0+2) = %v, %v; want the delete only", cs, ok)
	}
}

func TestJournalTruncatedByAdd(t *testing.T) {
	db := NewDatabase()
	r := NewRelation(NewSchema("R", "x"))
	db.Add(r)
	g0 := db.Generation()
	r.Insert(Ints(1))
	// A structural change (registering another relation, possibly
	// pre-populated) cannot be expressed as tuple deltas: consumers with
	// older watermarks must rebuild.
	s := NewRelation(NewSchema("S", "y"))
	s.Insert(Ints(9)) // pre-registration insert: not journaled anywhere
	db.Add(s)
	if _, ok := db.ChangesSince(g0); ok {
		t.Error("ChangesSince across an Add must report not-covered")
	}
	// But the new watermark is serviceable again.
	g1 := db.Generation()
	s.Insert(Ints(10))
	if cs, ok := db.ChangesSince(g1); !ok || len(cs) != 1 || cs[0].Rel != "S" {
		t.Errorf("ChangesSince(g1) = %v, %v; want the S insert", cs, ok)
	}
}

func TestJournalCompactionBound(t *testing.T) {
	db := NewDatabase()
	r := NewRelation(NewSchema("R", "x"))
	db.Add(r)
	db.SetJournalBound(8)
	g0 := db.Generation()
	for i := int64(0); i < 100; i++ {
		r.Insert(Ints(i))
	}
	// Memory is O(bound), not O(history).
	if db.JournalLen() != 8 {
		t.Fatalf("JournalLen = %d, want the bound 8", db.JournalLen())
	}
	if _, ok := db.ChangesSince(g0); ok {
		t.Error("a compacted-away watermark must report not-covered")
	}
	// The retained window is exactly the last 8 mutations.
	head := db.Generation()
	if cs, ok := db.ChangesSince(head - 8); !ok || len(cs) != 8 {
		t.Fatalf("ChangesSince(head-8) = %d changes, %v; want 8, true", len(cs), ok)
	}
	if cs, ok := db.ChangesSince(head - 9); ok {
		t.Errorf("ChangesSince(head-9) = %d changes, covered; want not-covered", len(cs))
	}
	if cs, ok := db.ChangesSince(head - 3); !ok || len(cs) != 3 {
		t.Errorf("ChangesSince(head-3) = %d changes, %v; want 3, true", len(cs), ok)
	}
	// Shrinking the bound compacts immediately.
	db.SetJournalBound(2)
	if db.JournalLen() != 2 {
		t.Errorf("JournalLen after shrink = %d, want 2", db.JournalLen())
	}
	if cs, ok := db.ChangesSince(head - 2); !ok || len(cs) != 2 {
		t.Errorf("after shrink ChangesSince(head-2) = %d changes, %v; want 2, true", len(cs), ok)
	}
}

// TestJournalMatchesSliceModel drives random records, truncations and
// bound changes through a database's journal and through a plain slice
// that keeps the newest bound entries, comparing length, coverage and
// every suffix after each step. Entries the window has dropped must be
// zeroed so they pin no tuples, and the backing array must stay within
// twice the largest bound.
func TestJournalMatchesSliceModel(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	db := NewDatabase()
	bound, maxBound := 1+rng.Intn(12), 8
	db.SetJournalBound(bound)
	var model []Change
	var floor uint64
	keep := func() {
		if over := len(model) - bound; over > 0 {
			floor = model[over-1].Gen
			model = model[over:]
		}
	}
	for step := 0; step < 20_000; step++ {
		switch r := rng.Intn(100); {
		case r < 90:
			db.record(Op(rng.Intn(2)), "R", Ints(int64(step)))
			model = append(model, db.log.entries[len(db.log.entries)-1])
			keep()
		case r < 93:
			db.RestoreGeneration(db.Generation() + 1)
			model, floor = nil, db.Generation()
		default:
			n := rng.Intn(14) - 1
			db.SetJournalBound(n)
			bound = n
			if n <= 0 {
				bound = DefaultJournalBound
			}
			maxBound = max(maxBound, bound)
			keep()
		}
		if db.JournalLen() != len(model) {
			t.Fatalf("step %d: JournalLen = %d, model holds %d", step, db.JournalLen(), len(model))
		}
		head := db.Generation()
		for g := max(floor, 2) - 2; g <= head+1; g++ {
			got, ok := db.ChangesSince(g)
			if ok != (g >= floor) {
				t.Fatalf("step %d: ChangesSince(%d) ok = %v with floor %d", step, g, ok, floor)
			}
			if !ok {
				continue
			}
			var want []Change
			for _, c := range model {
				if c.Gen > g {
					want = append(want, c)
				}
			}
			if len(got) != len(want) {
				t.Fatalf("step %d: ChangesSince(%d) = %d changes, want %d", step, g, len(got), len(want))
			}
			for i := range want {
				if got[i].Gen != want[i].Gen || got[i].Op != want[i].Op || !got[i].Tuple.Equal(want[i].Tuple) {
					t.Fatalf("step %d: ChangesSince(%d)[%d] = %+v, want %+v", step, g, i, got[i], want[i])
				}
			}
		}
		live := 0
		for _, c := range db.log.buf {
			if c.Tuple != nil {
				live++
			}
		}
		if live != len(model) {
			t.Fatalf("step %d: backing array holds %d tuples, the window %d", step, live, len(model))
		}
		if len(db.log.buf) > 2*maxBound {
			t.Fatalf("step %d: backing array of %d entries for bound %d", step, len(db.log.buf), maxBound)
		}
	}
}

func TestJournalDeltaReplayReconstructs(t *testing.T) {
	// Property: replaying ChangesSince(g) over a clone taken at g
	// reconstructs the current relation contents exactly.
	db := NewDatabase()
	r := NewRelation(NewSchema("R", "x", "y"))
	db.Add(r)
	r.Insert(Ints(1, 1))
	r.Insert(Ints(2, 2))
	snapshot := r.Clone()
	g := db.Generation()
	r.Insert(Ints(3, 3))
	r.Delete(Ints(1, 1))
	r.Insert(Ints(4, 4))
	r.Delete(Ints(4, 4))
	changes, ok := db.ChangesSince(g)
	if !ok {
		t.Fatal("journal must cover the span")
	}
	for _, c := range changes {
		if c.Rel != "R" {
			t.Fatalf("unexpected relation %q", c.Rel)
		}
		switch c.Op {
		case OpInsert:
			snapshot.Insert(c.Tuple)
		case OpDelete:
			snapshot.Delete(c.Tuple)
		}
	}
	if snapshot.String() != r.String() {
		t.Errorf("replay mismatch:\n  replayed %s\n  actual   %s", snapshot, r)
	}
}

func TestOpString(t *testing.T) {
	if OpInsert.String() != "insert" || OpDelete.String() != "delete" {
		t.Errorf("Op rendering: %q, %q", OpInsert, OpDelete)
	}
}
