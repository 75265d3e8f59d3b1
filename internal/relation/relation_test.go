package relation

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/value"
)

func TestTupleKeyUniqueness(t *testing.T) {
	a := Ints(1, 2, 3)
	b := Ints(1, 2, 3)
	c := Ints(1, 2, 4)
	if a.Key() != b.Key() {
		t.Error("equal tuples must share keys")
	}
	if a.Key() == c.Key() {
		t.Error("distinct tuples must have distinct keys")
	}
}

func TestTupleKeyNoSeparatorCollision(t *testing.T) {
	// (12, 3) vs (1, 23): naive concatenation would collide.
	a := Ints(12, 3)
	b := Ints(1, 23)
	if a.Key() == b.Key() {
		t.Error("separator failed to prevent collision")
	}
	// ("a", "b") vs ("ab",): arity differences must matter too.
	c := Tuple{value.Str("a"), value.Str("b")}
	d := Tuple{value.Str("ab")}
	if c.Key() == d.Key() {
		t.Error("arity-differing tuples collided")
	}
}

func TestTupleEqualAndCompare(t *testing.T) {
	a, b := Ints(1, 2), Ints(1, 3)
	if !a.Equal(Ints(1, 2)) || a.Equal(b) || a.Equal(Ints(1)) {
		t.Error("Equal misbehaves")
	}
	if a.Compare(b) != -1 || b.Compare(a) != 1 || a.Compare(Ints(1, 2)) != 0 {
		t.Error("Compare misbehaves")
	}
	if Ints(1).Compare(Ints(1, 0)) != -1 {
		t.Error("shorter tuple should order first on shared prefix")
	}
}

func TestTupleCloneIndependence(t *testing.T) {
	a := Ints(1, 2)
	c := a.Clone()
	c[0] = value.Int(99)
	if a[0].AsInt() != 1 {
		t.Error("Clone should be independent")
	}
}

func TestTupleString(t *testing.T) {
	got := Tuple{value.Int(1), value.Str("x")}.String()
	if got != "(1, x)" {
		t.Errorf("String() = %q", got)
	}
}

func TestSchemaBasics(t *testing.T) {
	s := NewSchema("R", "a", "b", "c")
	if s.Arity() != 3 {
		t.Errorf("Arity = %d", s.Arity())
	}
	if s.AttrIndex("b") != 1 || s.AttrIndex("z") != -1 {
		t.Error("AttrIndex misbehaves")
	}
	if s.String() != "R(a, b, c)" {
		t.Errorf("String() = %q", s.String())
	}
}

func TestSchemaRejectsDuplicateAttrs(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for duplicate attribute")
		}
	}()
	NewSchema("R", "a", "a")
}

func TestRelationSetSemantics(t *testing.T) {
	r := NewRelation(NewSchema("R", "x", "y"))
	if !r.Insert(Ints(1, 2)) {
		t.Error("first insert should be new")
	}
	if r.Insert(Ints(1, 2)) {
		t.Error("duplicate insert should be ignored")
	}
	if r.Len() != 1 {
		t.Errorf("Len = %d, want 1", r.Len())
	}
	if !r.Contains(Ints(1, 2)) || r.Contains(Ints(2, 1)) {
		t.Error("Contains misbehaves")
	}
}

func TestRelationArityCheck(t *testing.T) {
	r := NewRelation(NewSchema("R", "x"))
	defer func() {
		if recover() == nil {
			t.Error("expected panic for wrong arity")
		}
	}()
	r.Insert(Ints(1, 2))
}

func TestRelationInsertAllAndSorted(t *testing.T) {
	r := NewRelation(NewSchema("R", "x"))
	n := r.InsertAll(Ints(3), Ints(1), Ints(2), Ints(1))
	if n != 3 {
		t.Errorf("InsertAll = %d, want 3", n)
	}
	s := r.Sorted()
	for i, want := range []int64{1, 2, 3} {
		if s[i][0].AsInt() != want {
			t.Errorf("Sorted[%d] = %v, want %d", i, s[i], want)
		}
	}
}

func TestRelationCloneIndependence(t *testing.T) {
	r := NewRelation(NewSchema("R", "x"))
	r.Insert(Ints(1))
	c := r.Clone()
	c.Insert(Ints(2))
	if r.Len() != 1 || c.Len() != 2 {
		t.Error("Clone not independent")
	}
}

func TestDatabaseBasics(t *testing.T) {
	d := NewDatabase()
	r1 := NewRelation(NewSchema("R", "x"))
	r1.Insert(Ints(1))
	r2 := NewRelation(NewSchema("S", "y", "z"))
	r2.InsertAll(Ints(2, 3), Ints(4, 5))
	d.Add(r1).Add(r2)

	if d.Relation("R") != r1 || d.Relation("S") != r2 || d.Relation("T") != nil {
		t.Error("Relation lookup misbehaves")
	}
	names := d.Names()
	if len(names) != 2 || names[0] != "R" || names[1] != "S" {
		t.Errorf("Names = %v", names)
	}
	if d.Size() != 3 {
		t.Errorf("Size = %d, want 3", d.Size())
	}
}

func TestDatabaseActiveDomain(t *testing.T) {
	d := NewDatabase()
	r := NewRelation(NewSchema("R", "x", "y"))
	r.InsertAll(Ints(3, 1), Ints(1, 2))
	d.Add(r)
	dom := d.ActiveDomain()
	if len(dom) != 3 {
		t.Fatalf("ActiveDomain size = %d, want 3", len(dom))
	}
	for i, want := range []int64{1, 2, 3} {
		if dom[i].AsInt() != want {
			t.Errorf("dom[%d] = %v, want %d", i, dom[i], want)
		}
	}
}

func TestDatabaseReplaceKeepsOrder(t *testing.T) {
	d := NewDatabase()
	d.Add(NewRelation(NewSchema("A", "x")))
	d.Add(NewRelation(NewSchema("B", "x")))
	repl := NewRelation(NewSchema("A", "x"))
	repl.Insert(Ints(7))
	d.Add(repl)
	if got := d.Names(); len(got) != 2 || got[0] != "A" {
		t.Errorf("Names after replace = %v", got)
	}
	if d.Relation("A").Len() != 1 {
		t.Error("replacement instance not installed")
	}
}

func TestDatabaseCloneIsDeep(t *testing.T) {
	d := NewDatabase()
	r := NewRelation(NewSchema("R", "x"))
	r.Insert(Ints(1))
	d.Add(r)
	c := d.Clone()
	c.Relation("R").Insert(Ints(2))
	if d.Relation("R").Len() != 1 {
		t.Error("Clone should deep-copy relations")
	}
}

// Property: tuple Key is injective, on integer tuples of equal arity and on
// string tuples of any arity over an alphabet holding the separator 0x1f
// and its escape 0x1e.
func TestTupleKeyInjectiveProperty(t *testing.T) {
	f := func(a, b [3]int64) bool {
		ta := Ints(a[0], a[1], a[2])
		tb := Ints(b[0], b[1], b[2])
		return (ta.Key() == tb.Key()) == ta.Equal(tb)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	const alphabet = "as\x1e\x1f"
	rng := rand.New(rand.NewSource(33))
	seen := map[string]Tuple{}
	for i := 0; i < 20000; i++ {
		tu := make(Tuple, 1+rng.Intn(3))
		for c := range tu {
			b := make([]byte, rng.Intn(5))
			for j := range b {
				b[j] = alphabet[rng.Intn(len(alphabet))]
			}
			tu[c] = value.Str(string(b))
		}
		if prev, ok := seen[tu.Key()]; ok && !prev.Equal(tu) {
			t.Fatalf("%q and %q share the key %q", prev, tu, tu.Key())
		}
		seen[tu.Key()] = tu
	}
}

// TestRelationKeepsTuplesSplitAtSeparator: two string tuples whose fields
// join to the same bytes around 0x1f are two rows, each found and deleted
// on its own.
func TestRelationKeepsTuplesSplitAtSeparator(t *testing.T) {
	a := Tuple{value.Str("a\x1fsb"), value.Str("c")}
	b := Tuple{value.Str("a"), value.Str("b\x1fsc")}
	r := NewRelation(NewSchema("R", "x", "y"))
	if !r.Insert(a) || !r.Insert(b) || r.Len() != 2 {
		t.Fatalf("inserting both left Len %d", r.Len())
	}
	for _, tu := range []Tuple{a, b} {
		if !r.Contains(tu) {
			t.Fatalf("%q not found", tu)
		}
	}
	if !r.Delete(a) || !r.Contains(b) || r.Contains(a) {
		t.Fatalf("deleting %q: contains a %v, b %v", a, r.Contains(a), r.Contains(b))
	}
	if !r.Delete(b) || r.Len() != 0 {
		t.Fatalf("deleting %q left Len %d", b, r.Len())
	}
}

// Property: Compare defines a total order consistent with Equal.
func TestTupleCompareConsistencyProperty(t *testing.T) {
	f := func(a, b [2]int64) bool {
		ta, tb := Ints(a[0], a[1]), Ints(b[0], b[1])
		c := ta.Compare(tb)
		return c == -tb.Compare(ta) && (c == 0) == ta.Equal(tb)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: inserting the same multiset of tuples in any two orders yields
// relations with identical sorted contents and Len.
func TestRelationOrderInsensitivityProperty(t *testing.T) {
	f := func(xs []int64) bool {
		fwd := NewRelation(NewSchema("R", "x"))
		rev := NewRelation(NewSchema("R", "x"))
		for _, x := range xs {
			fwd.Insert(Ints(x))
		}
		for i := len(xs) - 1; i >= 0; i-- {
			rev.Insert(Ints(xs[i]))
		}
		if fwd.Len() != rev.Len() {
			return false
		}
		fs, rs := fwd.Sorted(), rev.Sorted()
		for i := range fs {
			if !fs[i].Equal(rs[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDatabaseGeneration(t *testing.T) {
	db := NewDatabase()
	g0 := db.Generation()
	r := NewRelation(NewSchema("R", "x"))
	db.Add(r)
	g1 := db.Generation()
	if g1 == g0 {
		t.Error("Add must advance the generation")
	}
	// Inserts through a registered relation advance it too.
	r.Insert(Ints(1))
	g2 := db.Generation()
	if g2 == g1 {
		t.Error("Insert into a registered relation must advance the generation")
	}
	// Duplicate inserts are no-ops and must not advance it.
	r.Insert(Ints(1))
	if db.Generation() != g2 {
		t.Error("duplicate Insert must not advance the generation")
	}
	// A cloned database gets its own counter wired to its own relations.
	c := db.Clone()
	cg := c.Generation()
	c.Relation("R").Insert(Ints(2))
	if c.Generation() == cg {
		t.Error("clone's relations must advance the clone's generation")
	}
	if db.Generation() != g2 {
		t.Error("clone mutations must not advance the original's generation")
	}
}

// TestSearchAndMergeModel: over random sorted answer sets of mixed numeric
// kinds, Search finds exactly the members, and Merge's output is the
// survivors and the additions in canonical order, each with its
// provenance.
func TestSearchAndMergeModel(t *testing.T) {
	// Distinct values in ascending order, so the tuples built from them in
	// loop order are sorted.
	pool := []value.Value{
		value.Int(-3), value.Int(0), value.Float(0.5), value.Int(1), value.Float(2), value.Int(1 << 53),
		value.Int(1<<53 + 1), value.Float(1<<53 + 2), value.Float(1e16), value.Float(math.Inf(1)), value.Float(math.NaN()),
	}
	rng := rand.New(rand.NewSource(24))
	for trial := 0; trial < 300; trial++ {
		var sorted, added []Tuple
		for _, a := range pool {
			for _, b := range pool[:4] {
				switch tu := (Tuple{a, b}); rng.Intn(3) {
				case 0:
					sorted = append(sorted, tu)
				case 1:
					added = append(added, tu)
				}
			}
		}
		var dead []int
		for i, tu := range sorted {
			if pos, ok := Search(sorted, tu); !ok || pos != i {
				t.Fatalf("Search(%v) = %d, %v; want %d", tu, pos, ok, i)
			}
			if rng.Intn(3) == 0 {
				dead = append(dead, i)
			}
		}
		for _, tu := range added {
			if _, ok := Search(sorted, tu); ok {
				t.Fatalf("Search found %v, which is not in the set", tu)
			}
		}
		merged, from := Merge(sorted, dead, added)
		want := slices.Clone(added)
		for i, tu := range sorted {
			if !slices.Contains(dead, i) {
				want = append(want, tu)
			}
		}
		slices.SortFunc(want, Tuple.Compare)
		if len(merged) != len(want) || len(from) != len(want) {
			t.Fatalf("merged %d tuples and %d provenances, want %d", len(merged), len(from), len(want))
		}
		for i := range want {
			if merged[i].Compare(want[i]) != 0 {
				t.Fatalf("merged[%d] = %v, want %v", i, merged[i], want[i])
			}
			if o := from[i]; (o < 0) != slices.ContainsFunc(added, func(a Tuple) bool { return a.Compare(merged[i]) == 0 }) || (o >= 0 && sorted[o].Compare(merged[i]) != 0) {
				t.Fatalf("from[%d] = %d for %v", i, o, merged[i])
			}
		}
	}
}

// mergeElementwise is Merge as it was before it copied runs: every
// survivor is compared with the next added tuple. It is the reference
// TestMergeMatchesElementwise holds Merge to.
func mergeElementwise(sorted []Tuple, dead []int, added []Tuple) (merged []Tuple, from []int) {
	j := 0
	for i, t := range sorted {
		if len(dead) > 0 && dead[0] == i {
			dead = dead[1:]
			continue
		}
		for ; j < len(added) && added[j].Compare(t) < 0; j++ {
			merged, from = append(merged, added[j]), append(from, -1)
		}
		merged, from = append(merged, t), append(from, i)
	}
	for ; j < len(added); j++ {
		merged, from = append(merged, added[j]), append(from, -1)
	}
	return merged, from
}

// TestMergeMatchesElementwise holds Merge to the elementwise merge it
// replaced, tuple for tuple (the same stored tuple, not an equal one) and
// provenance for provenance, over random sorted, dead and added inputs:
// added tuples equal to dead ones (a delta re-adds an answer it removed),
// no added tuples, every position dead, and added tuples before the first
// survivor and after the last.
func TestMergeMatchesElementwise(t *testing.T) {
	pool := make([]Tuple, 0, 60)
	for a := int64(0); a < 20; a++ {
		for _, b := range []value.Value{value.Int(0), value.Float(0.5), value.Str("s")} {
			pool = append(pool, Tuple{value.Int(a), b}) // ascending
		}
	}
	check := func(label string, sorted []Tuple, dead []int, added []Tuple) {
		t.Helper()
		got, gotFrom := Merge(sorted, dead, added)
		want, wantFrom := mergeElementwise(sorted, dead, added)
		if len(got) != len(want) || !slices.Equal(gotFrom, wantFrom) {
			t.Fatalf("%s: from = %v, want %v", label, gotFrom, wantFrom)
		}
		for i := range want {
			if &got[i][0] != &want[i][0] {
				t.Fatalf("%s: merged[%d] = %v, want %v", label, i, got[i], want[i])
			}
		}
	}
	// fresh copies a tuple, so an added tuple equal to a dead one is a
	// different tuple and the identity check tells them apart.
	fresh := func(ts ...Tuple) []Tuple {
		out := make([]Tuple, len(ts))
		for i, tu := range ts {
			out[i] = tu.Clone()
		}
		return out
	}
	mid := pool[20:40]
	all := make([]int, len(mid))
	for i := range all {
		all[i] = i
	}
	check("no added", mid, []int{0, 5, 19}, nil)
	check("nothing dead", mid, nil, fresh(pool[0], pool[59]))
	check("every position dead", mid, all, fresh(pool[0], mid[3], pool[45]))
	check("empty sorted", nil, nil, fresh(pool[1], pool[2]))
	check("around the survivors", mid, []int{1}, fresh(pool[:3]...))
	check("after the survivors", mid, []int{19}, fresh(mid[19], pool[40], pool[59]))
	check("re-added dead", mid, []int{0, 7, 8, 19}, fresh(mid[0], mid[8], mid[19]))

	rng := rand.New(rand.NewSource(29))
	for trial := 0; trial < 2000; trial++ {
		pSorted, pDead, pAdded := rng.Float64(), rng.Float64(), rng.Float64()/2
		var sorted, added []Tuple
		var dead []int
		for _, tu := range pool {
			if rng.Float64() >= pSorted {
				if rng.Float64() < pAdded {
					added = append(added, tu.Clone())
				}
				continue
			}
			if rng.Float64() < pDead {
				dead = append(dead, len(sorted))
				if rng.Intn(2) == 0 {
					added = append(added, tu.Clone())
				}
			}
			sorted = append(sorted, tu)
		}
		check(fmt.Sprintf("trial %d", trial), sorted, dead, added)
	}
}

// TestRelationHashTableModel drives random inserts, deletes and lookups
// over few distinct rows, so probe runs interleave and deletes move
// entries back, against a slice model: the same answers, and the same rows
// in insertion order. Fields mix ints with equal floats, which must be one
// row.
func TestRelationHashTableModel(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	field := func() value.Value {
		n := rng.Intn(6)
		if rng.Intn(2) == 0 {
			return value.Float(float64(n))
		}
		return value.Int(int64(n))
	}
	for trial := 0; trial < 20; trial++ {
		r := NewRelation(NewSchema("R", "a", "b"))
		var model []Tuple
		at := func(u Tuple) int {
			return slices.IndexFunc(model, func(m Tuple) bool { return m.Equal(u) })
		}
		for op := 0; op < 400; op++ {
			u := Tuple{field(), field()}
			switch rng.Intn(3) {
			case 0:
				if got, want := r.Insert(u), at(u) < 0; got != want {
					t.Fatalf("trial %d op %d: Insert(%v) = %v, model %v", trial, op, u, got, want)
				}
				if at(u) < 0 {
					model = append(model, u)
				}
			case 1:
				i := at(u)
				if got := r.Delete(u); got != (i >= 0) {
					t.Fatalf("trial %d op %d: Delete(%v) = %v, model %v", trial, op, u, got, i >= 0)
				}
				if i >= 0 {
					model = slices.Delete(model, i, i+1)
				}
			default:
				if got := r.Contains(u); got != (at(u) >= 0) {
					t.Fatalf("trial %d op %d: Contains(%v) = %v", trial, op, u, got)
				}
			}
			if !slices.EqualFunc(r.Tuples(), model, Tuple.Equal) {
				t.Fatalf("trial %d op %d: rows %v, model %v", trial, op, r.Tuples(), model)
			}
		}
	}
}

// TestRelationHashCollision: two different rows whose 32-bit hashes
// collide are both kept, found and deleted apart, since a lookup checks a
// matching hash with Tuple.Equal.
func TestRelationHashCollision(t *testing.T) {
	seen := make(map[uint32]int64)
	var a, b Tuple
	for i := int64(0); a == nil; i++ {
		h := tupleHash(Ints(i))
		if j, ok := seen[h]; ok {
			a, b = Ints(j), Ints(i)
		}
		seen[h] = i
	}
	r := NewRelation(NewSchema("R", "x"))
	if !r.Insert(a) || !r.Insert(b) || r.Insert(a.Clone()) || r.Len() != 2 {
		t.Fatalf("inserting %v and %v, which share a hash: %v", a, b, r.Tuples())
	}
	if !r.Delete(a) || r.Contains(a) || !r.Contains(b) || !r.Delete(b) || r.Len() != 0 {
		t.Fatalf("deleting %v then %v: %v", a, b, r.Tuples())
	}
}

// TestRelationRenumbersOrdinals: once inserts reach the last 32-bit
// ordinal, the rows are numbered afresh and every lookup still finds its
// row.
func TestRelationRenumbersOrdinals(t *testing.T) {
	r := NewRelation(NewSchema("R", "x"))
	r.next = math.MaxUint32 - 3
	for i := int64(0); i < 10; i++ {
		r.Insert(Ints(i))
		if i%3 == 0 {
			r.Delete(Ints(i / 2))
		}
	}
	if r.next >= math.MaxUint32-3 {
		t.Fatalf("next ordinal %d: no renumbering", r.next)
	}
	for _, u := range slices.Clone(r.Tuples()) {
		if !r.Contains(u) || !r.Delete(u) {
			t.Fatalf("row %v not found after renumbering", u)
		}
	}
}
