// Index probes and conjunct ordering for the evaluator. A relation atom
// with an argument bound by the current assignment reads a run of the
// relation's own column index (Relation.Probe), which every evaluation
// over the relation shares and the relation keeps exact across inserts and
// deletes; conjunctions evaluate their most-bound, cheapest conjunct
// first. Both are pure optimizations: results are identical with or
// without them (a property the tests check), only the join order and
// per-atom cost change. A run lists its rows in relation order and
// satisfyAtom filters it by the same equality a scan filters by, so a
// probe yields the tuples a filtered scan would, in the same order.
package eval

import (
	"repro/internal/query"
	"repro/internal/relation"
)

// probe returns the rows of rel an atom can match under the current
// binding: a run of rel's index on one of the atom's bound arguments, or ok
// false when no argument is bound or indexing is off, and the whole
// relation is the answer.
func (e *Evaluator) probe(a *query.Atom, rel *relation.Relation) (run relation.Run, ok bool) {
	if e.noIndex {
		return nil, false
	}
	slots := e.argSlotsOf(a)
	e.probeCols, e.probeVals = e.probeCols[:0], e.probeVals[:0]
	for i, arg := range a.Args {
		switch s := slots[i]; {
		case s < 0:
			e.probeCols, e.probeVals = append(e.probeCols, i), append(e.probeVals, arg.Value)
		case e.bound[s]:
			e.probeCols, e.probeVals = append(e.probeCols, i), append(e.probeVals, e.vals[s])
		}
	}
	if len(e.probeCols) == 0 {
		return nil, false
	}
	return rel.Probe(e.probeCols, e.probeVals), true
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
