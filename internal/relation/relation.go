// Package relation implements the relational substrate of the paper's model:
// named relation schemas over fixed attribute lists, set-semantics relation
// instances, and databases D = (R1, ..., Rn) with an active domain. Query
// evaluation, diversification and the lower-bound gadget constructions all
// operate on these types.
package relation

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"
	"sync"

	"repro/internal/value"
)

// Tuple is an ordered list of constants. Tuples compare lexicographically
// (Compare, the canonical order of answer sets), field by field in
// value.Compare's total order; a tuple's Key canonically encodes it for set
// membership.
type Tuple []value.Value

// Key returns a canonical encoding of the tuple, unique per tuple content.
func (t Tuple) Key() string {
	var buf [64]byte
	return string(t.AppendKey(buf[:0]))
}

// AppendKey appends t's Key to dst and returns the extended slice.
func (t Tuple) AppendKey(dst []byte) []byte {
	for i, v := range t {
		if i > 0 {
			dst = append(dst, 0x1f) // unit separator: string payloads escape it
		}
		dst = v.AppendKey(dst)
	}
	return dst
}

// Equal reports whether t and u have the same arity and equal fields.
func (t Tuple) Equal(u Tuple) bool {
	if len(t) != len(u) {
		return false
	}
	for i := range t {
		if !value.Equal(t[i], u[i]) {
			return false
		}
	}
	return true
}

// Compare lexicographically orders tuples; shorter tuples order first on a
// shared prefix.
func (t Tuple) Compare(u Tuple) int {
	n := len(t)
	if len(u) < n {
		n = len(u)
	}
	for i := 0; i < n; i++ {
		if c := value.Compare(t[i], u[i]); c != 0 {
			return c
		}
	}
	switch {
	case len(t) < len(u):
		return -1
	case len(t) > len(u):
		return 1
	default:
		return 0
	}
}

// Search finds t in sorted, a slice in canonical order (Tuple.Compare):
// its position and true, or where it would go and false. Tuples compare
// equal exactly when their fields have the same Keys, so sorted answers
// are their own index.
func Search(sorted []Tuple, t Tuple) (int, bool) {
	return slices.BinarySearchFunc(sorted, t, Tuple.Compare)
}

// Merge returns sorted without the positions dead lists, merged with added,
// in canonical order, and for each merged tuple its position in sorted, or
// -1 for a tuple of added. sorted and added must be in canonical order,
// dead ascending, and added disjoint from the tuples that stay; an added
// tuple equal to a dead one goes where the dead one was. Every
// incrementally maintained answer set merges through it, so the merge
// order is decided here alone.
//
// Cost: one binary search per added tuple, for the first tuple of sorted
// above it, and the survivors between two such points are copied as one
// run, so no survivor is compared: O(|added| · log |sorted|) comparisons.
// What stays linear is the copy, O(|sorted|) moves of slice headers and
// positions.
func Merge(sorted []Tuple, dead []int, added []Tuple) (merged []Tuple, from []int) {
	n := len(sorted) - len(dead) + len(added)
	merged, from = make([]Tuple, 0, n), make([]int, 0, n)
	i := 0 // sorted[:i] is merged
	// run appends sorted[i:end] and its positions.
	run := func(end int) {
		merged = append(merged, sorted[i:end]...)
		for ; i < end; i++ {
			from = append(from, i)
		}
	}
	// survivors appends the runs up to end, skipping dead positions.
	survivors := func(end int) {
		for ; len(dead) > 0 && dead[0] < end; dead = dead[1:] {
			run(dead[0])
			i++
		}
		run(end)
	}
	for _, t := range added {
		rest := sorted[i:]
		survivors(i + sort.Search(len(rest), func(p int) bool { return rest[p].Compare(t) > 0 }))
		merged, from = append(merged, t), append(from, -1)
	}
	survivors(len(sorted))
	return merged, from
}

// Clone returns an independent copy of the tuple.
func (t Tuple) Clone() Tuple {
	c := make(Tuple, len(t))
	copy(c, t)
	return c
}

// String renders the tuple as (v1, v2, ...).
func (t Tuple) String() string {
	parts := make([]string, len(t))
	for i, v := range t {
		parts[i] = v.String()
	}
	return "(" + strings.Join(parts, ", ") + ")"
}

// Ints builds a tuple of integer values; a convenience heavily used by the
// Boolean gadget constructions, where tuples encode truth assignments.
func Ints(xs ...int64) Tuple {
	t := make(Tuple, len(xs))
	for i, x := range xs {
		t[i] = value.Int(x)
	}
	return t
}

// Schema names a relation and its attributes.
type Schema struct {
	Name  string
	Attrs []string
}

// NewSchema constructs a schema. Attribute names must be distinct.
func NewSchema(name string, attrs ...string) Schema {
	s, err := CheckSchema(name, attrs...)
	if err != nil {
		panic(err.Error())
	}
	return s
}

// CheckSchema is NewSchema for attribute lists from untrusted input: a
// repeated attribute name is an error instead of a panic.
func CheckSchema(name string, attrs ...string) (Schema, error) {
	seen := make(map[string]bool, len(attrs))
	for _, a := range attrs {
		if seen[a] {
			return Schema{}, fmt.Errorf("relation: schema %s repeats attribute %q", name, a)
		}
		seen[a] = true
	}
	return Schema{Name: name, Attrs: append([]string(nil), attrs...)}, nil
}

// Arity returns the number of attributes.
func (s Schema) Arity() int { return len(s.Attrs) }

// AttrIndex returns the position of the named attribute, or -1.
func (s Schema) AttrIndex(name string) int {
	for i, a := range s.Attrs {
		if a == name {
			return i
		}
	}
	return -1
}

// String renders the schema as Name(attr1, attr2, ...).
func (s Schema) String() string {
	return s.Name + "(" + strings.Join(s.Attrs, ", ") + ")"
}

// Relation is a set of tuples under a schema. Insertion order is preserved
// for deterministic iteration; duplicates are ignored (set semantics).
//
// Stored tuples are immutable: Insert stores a clone of its argument,
// Delete moves slice headers only, and nothing writes a stored tuple's
// fields afterwards. Tuples, the change journal and query answers hand
// out the stored tuples themselves, so none of their holders may write
// into one either.
type Relation struct {
	schema Schema
	tuples []Tuple
	// ords holds each row's insertion ordinal, parallel to tuples. Ordinals
	// grow along tuples, so a binary search finds a row's position from its
	// ordinal, which Delete does not change.
	ords []uint32
	next uint32 // the ordinal of the next insert; ordinals start at 1
	// set is the rows' hash table, open-addressed with linear probing and
	// at most four fifths full: a used slot packs the hash of a row's
	// fields (tupleHash) above the row's ordinal, and 0 marks a free slot.
	// A lookup checks a row whose hash matches with Tuple.Equal, so rows
	// keep no key strings.
	set []uint64

	// mu serializes probes, which build and merge column indexes while
	// the caller holds only a reader's lock (index.go). Insert and Delete
	// keep the built indexes exact; like the tuples, they rely on the
	// caller to keep them apart from every reader.
	mu   sync.Mutex
	cols []*colIndex // per column, nil until a probe needs it

	// onMutate, when set, is invoked after every successful Insert or
	// Delete with the stored tuple. The owning Database installs it so that
	// tuple-level mutations advance the database generation counter and are
	// recorded in its change journal; a relation belongs to at most one
	// database at a time.
	onMutate func(op Op, t Tuple)
}

// NewRelation creates an empty relation instance of the schema.
func NewRelation(schema Schema) *Relation {
	return &Relation{schema: schema, next: 1, set: make([]uint64, 8)}
}

// Schema returns the relation's schema.
func (r *Relation) Schema() Schema { return r.schema }

// Len reports the number of tuples.
func (r *Relation) Len() int { return len(r.tuples) }

// tupleHash hashes t's field keys (value.KeyHash) into 32 bits, so Equal
// tuples hash alike.
func tupleHash(t Tuple) uint32 {
	var h uint64
	for _, v := range t {
		h = (h ^ v.KeyHash()) * 0x9E3779B97F4A7C15
	}
	return uint32(h >> 32)
}

// find looks t, whose tupleHash is h, up in the hash table: its slot and
// position and true, or the free slot where it would go and false.
func (r *Relation) find(t Tuple, h uint32) (slot, pos int, ok bool) {
	mask := len(r.set) - 1
	for i := int(h) & mask; ; i = (i + 1) & mask {
		e := r.set[i]
		if e == 0 {
			return i, -1, false
		}
		if uint32(e>>32) == h {
			if pos := r.position(uint32(e)); r.tuples[pos].Equal(t) {
				return i, pos, true
			}
		}
	}
}

// position returns the position of the row with insertion ordinal ord.
func (r *Relation) position(ord uint32) int {
	pos, _ := slices.BinarySearch(r.ords, ord)
	return pos
}

// place files a hash table entry at the first free slot from its home.
func (r *Relation) place(e uint64) {
	mask := len(r.set) - 1
	i := int(e>>32) & mask
	for r.set[i] != 0 {
		i = (i + 1) & mask
	}
	r.set[i] = e
}

// unset frees slot i and moves back each later entry of its probe run
// whose home does not lie between the hole and the entry, so a lookup
// meets no free slot before the entry it seeks.
func (r *Relation) unset(i int) {
	mask := len(r.set) - 1
	for j := (i + 1) & mask; r.set[j] != 0; j = (j + 1) & mask {
		if home := int(r.set[j]>>32) & mask; (j-home)&mask >= (j-i)&mask {
			r.set[i], i = r.set[j], j
		}
	}
	r.set[i] = 0
}

// reserve sizes the hash table for n rows.
func (r *Relation) reserve(n int) {
	size := len(r.set)
	for 5*n > 4*size {
		size *= 2
	}
	if size == len(r.set) {
		return
	}
	old := r.set
	r.set = make([]uint64, size)
	for _, e := range old {
		if e != 0 {
			r.place(e)
		}
	}
}

// renumber gives the rows the ordinals 1..n again, once inserts have used
// up the 32-bit ordinals.
func (r *Relation) renumber() {
	clear(r.set)
	for pos, t := range r.tuples {
		r.ords[pos] = uint32(pos + 1)
		r.place(uint64(tupleHash(t))<<32 | uint64(pos+1))
	}
	r.next = uint32(len(r.tuples) + 1)
}

// Insert adds a tuple, ignoring duplicates. It reports whether the tuple was
// new. Inserting a tuple of the wrong arity is a programming error. The
// relation stores a clone of t, which it never writes again.
func (r *Relation) Insert(t Tuple) bool {
	if len(t) != r.schema.Arity() {
		panic(fmt.Sprintf("relation: tuple arity %d does not match schema %s", len(t), r.schema))
	}
	h := tupleHash(t)
	if _, _, ok := r.find(t, h); ok {
		return false
	}
	if r.next == math.MaxUint32 {
		r.renumber()
	}
	r.reserve(len(r.tuples) + 1)
	r.place(uint64(h)<<32 | uint64(r.next))
	r.ords = append(r.ords, r.next)
	r.next++
	stored := t.Clone()
	r.tuples = append(r.tuples, stored)
	for c, ix := range r.cols {
		if ix != nil {
			ix.pending = append(ix.pending, entry(stored[c], len(r.tuples)-1))
		}
	}
	if r.onMutate != nil {
		r.onMutate(OpInsert, stored)
	}
	return true
}

// Grow makes room for n more tuples, so a batch of inserts does not rehash
// the relation's hash table or move its rows as it grows.
func (r *Relation) Grow(n int) {
	r.reserve(len(r.tuples) + n)
	r.tuples = slices.Grow(r.tuples, n)
	r.ords = slices.Grow(r.ords, n)
}

// Delete removes a tuple, reporting whether it was present. Later tuples
// keep their relative (insertion) order: finding the row is a hash lookup
// and a binary search of the ordinals, and removing it moves the tuples
// after it down one slot and lowers their positions in each column index.
func (r *Relation) Delete(t Tuple) bool {
	slot, pos, ok := r.find(t, tupleHash(t))
	if !ok {
		return false
	}
	r.unset(slot)
	stored := r.tuples[pos]
	copy(r.tuples[pos:], r.tuples[pos+1:])
	r.tuples[len(r.tuples)-1] = nil
	r.tuples = r.tuples[:len(r.tuples)-1]
	r.ords = slices.Delete(r.ords, pos, pos+1)
	for c, ix := range r.cols {
		if ix != nil {
			ix.remove(stored[c], pos)
		}
	}
	if r.onMutate != nil {
		r.onMutate(OpDelete, stored)
	}
	return true
}

// InsertAll inserts every tuple, returning the count of new tuples.
func (r *Relation) InsertAll(ts ...Tuple) int {
	n := 0
	for _, t := range ts {
		if r.Insert(t) {
			n++
		}
	}
	return n
}

// Contains reports membership of t.
func (r *Relation) Contains(t Tuple) bool {
	_, _, ok := r.find(t, tupleHash(t))
	return ok
}

// Tuples returns the stored tuples in insertion order. The slice and the
// tuples are shared; callers must not mutate either.
func (r *Relation) Tuples() []Tuple { return r.tuples }

// Sorted returns the tuples in lexicographic order (a fresh slice).
func (r *Relation) Sorted() []Tuple {
	out := append([]Tuple(nil), r.tuples...)
	sort.Slice(out, func(i, j int) bool { return out[i].Compare(out[j]) < 0 })
	return out
}

// Clone returns a deep copy of the relation.
func (r *Relation) Clone() *Relation {
	c := NewRelation(r.schema)
	for _, t := range r.tuples {
		c.Insert(t)
	}
	return c
}

// String renders the relation with its schema header and sorted tuples.
func (r *Relation) String() string {
	var b strings.Builder
	b.WriteString(r.schema.String())
	b.WriteString(" {")
	for i, t := range r.Sorted() {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(t.String())
	}
	b.WriteString("}")
	return b.String()
}

// Tap observes every committed mutation of a Database, for durability
// layers that persist the relational state: TapChange fires after each
// journaled tuple insert or delete, TapAdd after each structural relation
// Add. Both are invoked synchronously inside the mutation, before it
// returns to the caller — a write-ahead log implementing Tap therefore has
// the entry on its buffer before the mutation is acknowledged. A tap must
// not mutate the database reentrantly, and must not retain the *Relation
// passed to TapAdd beyond the call.
type Tap interface {
	TapChange(c Change)
	TapAdd(gen uint64, r *Relation)
}

// Database is a named collection of relations, the D in Q(D).
type Database struct {
	relations map[string]*Relation
	order     []string
	gen       uint64
	log       journal
	tap       Tap
}

// NewDatabase creates an empty database.
func NewDatabase() *Database {
	return &Database{relations: make(map[string]*Relation)}
}

// Add registers a relation instance. Re-adding a name replaces the instance
// but keeps its position. Adding advances the database generation and — as
// a structural change the journal cannot express tuple-by-tuple (the
// relation may arrive pre-populated) — truncates the change journal, so
// every consumer with an older watermark rebuilds. The relation is hooked
// so that subsequent tuple inserts and deletes are journaled.
func (d *Database) Add(r *Relation) *Database {
	name := r.Schema().Name
	if _, ok := d.relations[name]; !ok {
		d.order = append(d.order, name)
	}
	d.relations[name] = r
	r.onMutate = func(op Op, t Tuple) { d.record(op, name, t) }
	d.gen++
	d.log.truncate(d.gen)
	if d.tap != nil {
		d.tap.TapAdd(d.gen, r)
	}
	return d
}

// SetTap installs (or, with nil, removes) the mutation observer. The tap
// sees every subsequent mutation; installing one does not replay history —
// durability layers snapshot the current state first, then tap the stream.
func (d *Database) SetTap(t Tap) { d.tap = t }

// RestoreGeneration force-sets the generation counter and resets the change
// journal to an empty window at that generation. It exists for recovery: a
// database reconstructed from a snapshot must resume the exact generation
// sequence the snapshot was taken at, so that replaying the log's
// per-generation entries lands every consumer watermark where it was.
func (d *Database) RestoreGeneration(gen uint64) {
	d.gen = gen
	d.log.truncate(gen)
}

// Generation returns a counter that advances on every mutation of the
// database — CreateTable-style Adds and tuple Inserts/Deletes on registered
// relations alike. Callers that cache derived state (materialized answer
// sets, prepared plans) compare generations to detect staleness, and ask
// ChangesSince for the delta between their watermark and the present.
func (d *Database) Generation() uint64 { return d.gen }

// record advances the generation for one tuple-level mutation and journals
// it, keeping the invariant that every generation step above the journal
// floor has exactly one entry.
func (d *Database) record(op Op, rel string, t Tuple) {
	d.gen++
	c := Change{Gen: d.gen, Op: op, Rel: rel, Tuple: t}
	d.log.record(c)
	if d.tap != nil {
		d.tap.TapChange(c)
	}
}

// Relation returns the named relation, or nil.
func (d *Database) Relation(name string) *Relation { return d.relations[name] }

// Names lists relation names in registration order.
func (d *Database) Names() []string { return append([]string(nil), d.order...) }

// Size returns the total number of tuples across all relations.
func (d *Database) Size() int {
	n := 0
	for _, r := range d.relations {
		n += r.Len()
	}
	return n
}

// ActiveDomain returns the distinct constants appearing anywhere in the
// database, in deterministic (sorted) order. Queries with quantifiers are
// evaluated under active-domain semantics over this set (plus the query's
// own constants).
func (d *Database) ActiveDomain() []value.Value {
	seen := make(map[string]value.Value)
	for _, name := range d.order {
		for _, t := range d.relations[name].Tuples() {
			for _, v := range t {
				seen[v.Key()] = v
			}
		}
	}
	out := make([]value.Value, 0, len(seen))
	for _, v := range seen {
		out = append(out, v)
	}
	sort.Slice(out, func(i, j int) bool { return value.Less(out[i], out[j]) })
	return out
}

// Clone deep-copies the database.
func (d *Database) Clone() *Database {
	c := NewDatabase()
	for _, name := range d.order {
		c.Add(d.relations[name].Clone())
	}
	return c
}
