// Column indexes. A relation keeps a hash index on each column a probe has
// bound first, built at that probe and kept exact by every Insert and
// Delete, so every evaluation over the relation — full evaluation, delta
// refreshes, membership checks — shares one index per probed column for as
// long as the data lives.
//
// An index is one sorted []uint64: each entry packs a 32-bit hash of a row's
// value key (value.KeyHash) above the row's position in Tuples(). That is 8
// bytes a row with no pointer for the garbage collector to scan, a build is
// one pass and one sort, and a lookup is two binary searches returning the
// positions in relation order. Keys that collide in 32 bits share a run, so
// callers filter a run by value.Equal, exactly as they filter a scan.
package relation

import (
	"slices"
	"sort"

	"repro/internal/value"
)

// colIndex is the index of one column.
type colIndex struct {
	entries []uint64 // sorted hash<<32 | position
	// pending holds the entries of rows inserted since the last lookup, in
	// insertion order: a batch of inserts is filed by one merge, not by an
	// O(n) insertion each.
	pending []uint64
}

// entry packs the index entry of value v at position pos.
func entry(v value.Value, pos int) uint64 {
	return v.KeyHash()&^0xffffffff | uint64(uint32(pos))
}

// Run lists the positions in Tuples() of the rows a Probe found, ascending.
type Run []uint64

// Pos returns the position of the run's i-th row.
func (r Run) Pos(i int) int { return int(uint32(r[i])) }

// buildIndex indexes column col of tuples.
func buildIndex(tuples []Tuple, col int) *colIndex {
	entries := make([]uint64, len(tuples))
	for i, t := range tuples {
		entries[i] = entry(t[col], i)
	}
	slices.Sort(entries)
	return &colIndex{entries: entries}
}

// merge files the pending entries: one sort of the pending entries, then,
// from the largest down, a binary search of the entries not yet moved and
// one block copy of those above the pending entry, in place when the
// capacity allows.
func (ix *colIndex) merge() {
	if len(ix.pending) == 0 {
		return
	}
	slices.Sort(ix.pending)
	n, p := len(ix.entries), len(ix.pending)
	e := slices.Grow(ix.entries, p)[:n+p]
	hi := n // e[:hi] have not moved
	for j := p - 1; j >= 0; j-- {
		x := ix.pending[j]
		lo, _ := slices.BinarySearch(e[:hi], x)
		copy(e[lo+j+1:], e[lo:hi])
		e[lo+j] = x
		hi = lo
	}
	ix.entries = e
	ix.pending = ix.pending[:0]
}

// run returns the entries whose hash is v's.
func (ix *colIndex) run(v value.Value) Run {
	h := v.KeyHash() >> 32
	e := ix.entries
	lo := sort.Search(len(e), func(i int) bool { return e[i]>>32 >= h })
	hi := lo + sort.Search(len(e)-lo, func(i int) bool { return e[lo+i]>>32 > h })
	return Run(e[lo:hi:hi])
}

// remove drops the entry of value v at position pos and lowers every
// position above pos, in one pass.
func (ix *colIndex) remove(v value.Value, pos int) {
	ix.merge()
	gone, p := entry(v, pos), uint32(pos)
	w := 0
	for _, x := range ix.entries {
		if x == gone {
			continue
		}
		if uint32(x) > p {
			x--
		}
		ix.entries[w] = x
		w++
	}
	if w != len(ix.entries)-1 {
		panic("relation: column index out of step with its relation")
	}
	ix.entries = ix.entries[:w]
}

// Indexed lists the columns that have an index, ascending.
func (r *Relation) Indexed() []int {
	r.mu.Lock()
	defer r.mu.Unlock()
	var cols []int
	for c, ix := range r.cols {
		if ix != nil {
			cols = append(cols, c)
		}
	}
	return cols
}

// Probe returns the rows that may hold vals[i] at column cols[i] for every
// i, as a run of one column's index. The run holds every row whose cell in
// that column equals its value (value.Equal), possibly with rows whose keys
// collide with it, so callers filter it as they would a scan. Probe reads
// the shortest run among the listed columns that have an index; when none
// has one it builds the index of cols[0], so a relation indexes only a
// column some probe bound first. cols must not be empty.
//
// Probe is safe for concurrent callers, which may race to build an index:
// one builds it and the others use it. Insert and Delete must not run
// concurrently with it.
func (r *Relation) Probe(cols []int, vals []value.Value) Run {
	r.mu.Lock()
	defer r.mu.Unlock()
	var best Run
	found := false
	for i, c := range cols {
		if r.cols == nil || r.cols[c] == nil {
			continue
		}
		ix := r.cols[c]
		ix.merge()
		if run := ix.run(vals[i]); !found || len(run) < len(best) {
			best, found = run, true
		}
		if len(best) == 0 {
			break
		}
	}
	if found {
		return best
	}
	if r.cols == nil {
		r.cols = make([]*colIndex, r.schema.Arity())
	}
	ix := buildIndex(r.tuples, cols[0])
	r.cols[cols[0]] = ix
	return ix.run(vals[0])
}
