// Hash indexes and conjunct ordering for the evaluator. A relation atom
// with an argument bound by the current assignment probes a hash index on
// that column — at once in full evaluation, and in Delta's evaluator only
// once the column has answered about one index build's worth of scans
// (satisfyAtom filters a scanned relation by the same equality the index
// groups by); conjunctions evaluate their most-bound, cheapest conjunct
// first. Both are pure optimizations: results are identical with or without
// them (a property the tests check), only the join order and per-atom cost
// change. A bucket lists its tuples in relation order, so a probe yields
// the tuples a filtered scan would, in the same order.
package eval

import (
	"repro/internal/query"
	"repro/internal/relation"
)

// colIndex groups a column's tuples by value key: the tuples of slot b are
// rows[start[b]:start[b+1]], in relation order.
type colIndex struct {
	slots map[string]int // value key → slot
	start []int
	rows  []relation.Tuple
}

// bucket returns the tuples whose column value has the given key.
func (ix *colIndex) bucket(key []byte) []relation.Tuple {
	b, ok := ix.slots[string(key)]
	if !ok {
		return nil
	}
	return ix.rows[ix.start[b]:ix.start[b+1]]
}

// indexKey identifies a (relation, column) index.
type indexKey struct {
	rel string
	col int
}

// column is the evaluator's state for one (relation, column): the probes
// it has answered by scanning, then its hash index.
type column struct {
	scans int
	index *colIndex
}

// scansPerBuild is how many probes a bound column of Delta's evaluator
// answers by scanning the relation before the index is built. A build keys
// every row and files it in its bucket, a scan makes one key comparison per
// row; BenchmarkColumnIndex measures a build over a 24,000-row relation
// shaped like the write-mix history at about 5 scans of it (2.8–4.0 ms
// against 0.60–0.68 ms, 2 vCPU Xeon, go1.24.0). So a column probed once,
// as by a lone Member check or seminaive step, never pays for an index,
// and a column probed often pays at most about twice what building its
// index up front would have cost. Indexing at the first probe instead
// makes BenchmarkIncrementalRefresh/join/delta 2.3x slower (14.8 ms
// against 6.2 ms a step), so Delta keeps scanning first. Full evaluation
// builds at the first probe (buildAfter 0): it probes a joined column once
// per outer binding, so the scans would only add to the build.
const scansPerBuild = 5

// index returns the hash index for the column, or nil while scanning is
// still the cheaper answer: the first buildAfter calls count a scan, the
// next builds and caches the index. The build makes two passes over the
// relation: the first keys each row in keyBuf, gives each new key a slot
// and counts the rows per slot, the second files the rows slot by slot in
// relation order. So it allocates one key string per distinct value, not
// per row. Every later probe is O(1) plus the matching bucket.
func (e *Evaluator) index(rel *relation.Relation, col int) *colIndex {
	if e.columns == nil {
		e.columns = make(map[indexKey]column)
	}
	key := indexKey{rel.Schema().Name, col}
	c := e.columns[key]
	if c.index != nil {
		return c.index
	}
	if c.scans < e.buildAfter {
		c.scans++
		e.columns[key] = c
		return nil
	}
	tuples := rel.Tuples()
	ix := &colIndex{slots: make(map[string]int)}
	slotOf := make([]int, len(tuples))
	var count []int
	for i, t := range tuples {
		e.keyBuf = t[col].AppendKey(e.keyBuf[:0])
		b, ok := ix.slots[string(e.keyBuf)]
		if !ok {
			b = len(count)
			ix.slots[string(e.keyBuf)] = b
			count = append(count, 0)
		}
		slotOf[i] = b
		count[b]++
	}
	ix.start = make([]int, len(count)+1)
	for b, n := range count {
		ix.start[b+1] = ix.start[b] + n
		count[b] = ix.start[b] // from here on, slot b's fill position
	}
	ix.rows = make([]relation.Tuple, len(tuples))
	for i, t := range tuples {
		b := slotOf[i]
		ix.rows[count[b]] = t
		count[b]++
	}
	c.index = ix
	e.columns[key] = c
	return ix
}

// probe returns the scan list for an atom under the current binding: the
// smallest bucket among the bound columns that have an index, or the full
// relation when none has one yet.
func (e *Evaluator) probe(a *query.Atom, rel *relation.Relation) []relation.Tuple {
	best := rel.Tuples()
	if e.noIndex {
		return best
	}
	slots := e.argSlotsOf(a)
	for i, arg := range a.Args {
		s := slots[i]
		if s >= 0 && !e.bound[s] {
			continue
		}
		idx := e.index(rel, i)
		if idx == nil {
			continue
		}
		v := arg.Value
		if s >= 0 {
			v = e.vals[s]
		}
		e.keyBuf = v.AppendKey(e.keyBuf[:0])
		if bucket := idx.bucket(e.keyBuf); len(bucket) < len(best) {
			best = bucket
		}
		if len(best) == 0 {
			break
		}
	}
	return best
}

// conjunctCost estimates how constrained a conjunct is under the current
// binding; lower runs first. Fully bound filters are free prunes; relation
// atoms cost by expected scan size shrunk per bound argument; composites
// cost by their unbound variable count, after atoms.
func (e *Evaluator) conjunctCost(f query.Formula) float64 {
	sim := make(map[int]bool)
	for _, s := range e.freeSlotsOf(f) {
		if e.bound[s] {
			sim[s] = true
		}
	}
	return e.conjunctCostSim(f, sim)
}

// conjunctCostSim is conjunctCost against an explicit simulated bound-set,
// used by the planner to cost conjuncts under hypothetical bindings.
func (e *Evaluator) conjunctCostSim(f query.Formula, simBound map[int]bool) float64 {
	unbound := 0
	for _, s := range e.freeSlotsOf(f) {
		if !simBound[s] {
			unbound++
		}
	}
	switch n := f.(type) {
	case *query.Cmp:
		if unbound == 0 {
			return 0 // immediate filter
		}
		// An unbound comparison enumerates the domain: run it last.
		return 1e9 + float64(unbound)
	case *query.Not, *query.ForAll:
		if unbound == 0 {
			return 1 // cheap truth test
		}
		return 1e9 + float64(unbound)
	case *query.Atom:
		rel := e.db.Relation(n.Rel)
		if rel == nil {
			return 0 // empty: refutes instantly
		}
		size := float64(rel.Len())
		slots := e.argSlotsOf(n)
		for _, s := range slots {
			if s < 0 || simBound[s] {
				size /= 4
			}
		}
		return 2 + size
	default:
		// Composite generators (And/Or/Exists) after atoms of similar
		// breadth, ordered by how many variables they must produce.
		return 1e6 + float64(unbound)
	}
}

// nextConjunct picks the cheapest remaining conjunct under the simulated
// bound-set. The done slice marks consumed conjuncts.
func (e *Evaluator) nextConjunct(fs []query.Formula, done []bool, simBound map[int]bool) int {
	best, bestCost := -1, 0.0
	for i, f := range fs {
		if done[i] {
			continue
		}
		c := e.conjunctCostSim(f, simBound)
		if best == -1 || c < bestCost {
			best, bestCost = i, c
		}
	}
	return best
}

// plan returns the conjunct evaluation order for an And node under the
// current binding pattern, memoized per (node, pattern). The order is the
// greedy cheapest-first sequence assuming each chosen conjunct binds all
// its free variables — exactly what relation atoms do on success — so one
// plan serves every visit of the node under the same outer pattern.
func (e *Evaluator) plan(n *query.And) []query.Formula {
	slots := e.freeSlotsOf(n)
	key := make([]byte, len(slots))
	for i, s := range slots {
		if e.bound[s] {
			key[i] = '1'
		} else {
			key[i] = '0'
		}
	}
	if e.plans == nil {
		e.plans = make(map[*query.And]map[string][]query.Formula)
	}
	byPattern := e.plans[n]
	if byPattern == nil {
		byPattern = make(map[string][]query.Formula)
		e.plans[n] = byPattern
	}
	if order, ok := byPattern[string(key)]; ok {
		return order
	}
	simBound := make(map[int]bool, len(slots))
	for _, s := range slots {
		if e.bound[s] {
			simBound[s] = true
		}
	}
	done := make([]bool, len(n.Fs))
	order := make([]query.Formula, 0, len(n.Fs))
	for len(order) < len(n.Fs) {
		i := e.nextConjunct(n.Fs, done, simBound)
		done[i] = true
		order = append(order, n.Fs[i])
		for _, s := range e.freeSlotsOf(n.Fs[i]) {
			simBound[s] = true
		}
	}
	byPattern[string(key)] = order
	return order
}
