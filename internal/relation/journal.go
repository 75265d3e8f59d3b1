// The change journal: instead of a bare generation counter that only says
// "something changed", the database keeps a bounded log of tuple-level
// mutations, each stamped with the generation it produced. Consumers that
// cache state derived from the database (materialized answer sets, score
// planes) record the generation their cache was built at and later ask
// "what changed since?" — receiving either the exact delta to apply
// incrementally, or a refusal when the journal no longer covers their
// watermark (compacted away, or a structural change occurred), in which
// case they rebuild from scratch. The journal is bounded: memory stays
// O(delta bound), never O(mutation history).
package relation

// Op is the kind of a journaled mutation.
type Op uint8

const (
	// OpInsert records a tuple added to a registered relation.
	OpInsert Op = iota
	// OpDelete records a tuple removed from a registered relation.
	OpDelete
)

// String returns "insert" or "delete".
func (op Op) String() string {
	if op == OpDelete {
		return "delete"
	}
	return "insert"
}

// Change is one journaled mutation: the generation it advanced the database
// to, the relation it touched, and the tuple inserted or deleted. The tuple
// is the relation's own (cloned-on-insert) copy; consumers must not mutate
// it.
type Change struct {
	Gen   uint64
	Op    Op
	Rel   string
	Tuple Tuple
}

// DefaultJournalBound is the default maximum number of retained journal
// entries. When the journal grows past the bound it compacts from the old
// end: consumers whose watermark predates the retained window fall back to
// a full rebuild. The bound keeps journal memory O(bound) regardless of how
// many mutations the database has ever seen.
const DefaultJournalBound = 4096

// journal is the bounded mutation log owned by a Database.
type journal struct {
	// entries is the retained window: ascending Gen, contiguous (one entry
	// per generation step). It slides forward through buf as the bound
	// drops old entries, so a record moves no other entry; once the window
	// reaches buf's end it is copied back to the front, at most once per
	// len(buf)/2 records.
	entries []Change
	buf     []Change // backing array, at most twice the largest bound set
	bound   int      // max retained entries; <= 0 means DefaultJournalBound
	// floor is the newest generation NOT covered by the journal: every
	// mutation with Gen > floor is present in entries. A consumer whose
	// watermark g satisfies g >= floor can be served the exact suffix; one
	// with g < floor has lost history and must rebuild.
	floor uint64
}

func (j *journal) cap() int {
	if j.bound <= 0 {
		return DefaultJournalBound
	}
	return j.bound
}

// record appends a journaled mutation, compacting from the old end when the
// bound is exceeded. Compaction advances floor past the dropped entries.
func (j *journal) record(c Change) {
	if len(j.entries) == cap(j.entries) {
		j.makeRoom()
	}
	j.entries = append(j.entries, c)
	j.trim()
}

// makeRoom frees a slot after the full window: it slides the window back
// to the front of buf when that leaves half of buf free, and otherwise
// moves it into a new buf twice its length.
func (j *journal) makeRoom() {
	n := len(j.entries)
	if j.buf == nil || 2*n > len(j.buf) {
		j.buf = make([]Change, max(2*n, 8))
	}
	copy(j.buf, j.entries)
	clear(j.buf[n:])
	j.entries = j.buf[:n]
}

// trim drops the oldest entries beyond the bound, advancing floor past
// them and zeroing them so they pin no tuples.
func (j *journal) trim() {
	over := len(j.entries) - j.cap()
	if over <= 0 {
		return
	}
	j.floor = j.entries[over-1].Gen
	clear(j.entries[:over])
	j.entries = j.entries[over:]
}

// truncate discards the whole journal after a structural (non-journalable)
// change at generation gen: every consumer with an older watermark must
// rebuild.
func (j *journal) truncate(gen uint64) {
	clear(j.entries)
	j.entries = j.buf[:0]
	j.floor = gen
}

// since returns the entries with Gen > g, and whether the journal covers
// that span. ok is false when g predates the retained window; the returned
// slice aliases the journal and is invalidated by the next mutation —
// callers consume it immediately (or copy).
func (j *journal) since(g uint64) ([]Change, bool) {
	if g < j.floor {
		return nil, false
	}
	// Entries are contiguous in Gen, so the suffix starts len-(gen-g) from
	// the end; guard against a watermark from the future.
	if len(j.entries) == 0 {
		return nil, true
	}
	last := j.entries[len(j.entries)-1].Gen
	if g >= last {
		return nil, true
	}
	start := len(j.entries) - int(last-g)
	if start < 0 {
		start = 0
	}
	return j.entries[start:], true
}

// SetJournalBound caps the retained journal entries (minimum 1; values <= 0
// restore DefaultJournalBound). Shrinking the bound compacts immediately.
func (d *Database) SetJournalBound(n int) {
	d.log.bound = n
	d.log.trim()
}

// JournalLen reports the number of retained journal entries (for tests and
// memory accounting).
func (d *Database) JournalLen() int { return len(d.log.entries) }

// ChangesSince returns the tuple-level mutations that advanced the database
// from generation g to Generation(), oldest first, and whether the journal
// still covers that span. ok is false when g predates the retained window
// (compacted away) or a structural change — Add of a whole relation —
// occurred after g; the caller must then rebuild derived state from
// scratch. The returned slice aliases the journal: it is valid until the
// next mutation.
func (d *Database) ChangesSince(g uint64) (changes []Change, ok bool) {
	return d.log.since(g)
}
