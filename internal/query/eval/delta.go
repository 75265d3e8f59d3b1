// Delta evaluation: given the answer set Q(D) materialized at some database
// generation and the journal of tuple-level changes since, compute the
// added/removed answer tuples without re-evaluating the query from scratch.
//
// The incremental path applies to the monotone registered-relation case:
// positive queries (no negation or universal quantification — Identity, CQ,
// UCQ, ∃FO+) that are additionally range-safe, meaning every variable is
// bound by a relation atom so the active-domain fallback never determines
// an answer. For such queries the result is independent of the active
// domain beyond the tuples themselves, inserting base tuples can only add
// answers, and deleting base tuples can only remove them. Added answers
// come from seminaive evaluation — every new derivation must pass through
// at least one inserted tuple, so binding each query atom over a changed
// relation to each inserted tuple and satisfying the rest of the body
// enumerates all of them. Removed answers come from re-checking membership
// of the cached answers, which deletes can only have invalidated.
//
// Everything else — non-monotone queries, domain-dependent comparisons,
// structural changes — reports "not applicable" and the caller falls back
// to full re-evaluation.
package eval

import (
	"context"
	"slices"

	"repro/internal/query"
	"repro/internal/relation"
	"repro/internal/value"
)

// DeltaCapable reports whether q's answer set can be maintained
// incrementally from tuple-level change journals. It holds when the query
// is positive (no Not/ForAll anywhere) and range-safe: every variable is
// guaranteed a binding from a relation atom, in every disjunct and under
// every quantifier, so no answer depends on active-domain enumeration. The
// check is static — evaluate it once per prepared query.
func DeltaCapable(q *query.Query) bool {
	bound, ok := rangeSafe(q.Body)
	if !ok {
		return false
	}
	for _, v := range query.FreeVars(q.Body) {
		if !bound[v] {
			return false
		}
	}
	return true
}

// rangeSafe returns the set of variables guaranteed to be bound by relation
// atoms whenever the formula yields an assignment, and whether the formula
// is positive and never resorts to active-domain enumeration for a variable
// that could influence the result.
func rangeSafe(f query.Formula) (map[string]bool, bool) {
	switch n := f.(type) {
	case *query.Atom:
		bound := make(map[string]bool, len(n.Args))
		for _, a := range n.Args {
			if a.IsVar() {
				bound[a.Name] = true
			}
		}
		return bound, true
	case *query.Cmp:
		// Binds nothing itself; its variables must be covered by sibling
		// atoms, which the enclosing scope's free-variable check enforces.
		return map[string]bool{}, true
	case *query.And:
		bound := make(map[string]bool)
		for _, g := range n.Fs {
			gb, ok := rangeSafe(g)
			if !ok {
				return nil, false
			}
			for v := range gb {
				bound[v] = true
			}
		}
		// Every free variable of the conjunction — including those of Cmp
		// conjuncts — must be atom-bound by some conjunct.
		for _, v := range query.FreeVars(n) {
			if !bound[v] {
				return nil, false
			}
		}
		return bound, true
	case *query.Or:
		// Each disjunct must bind every free variable of the disjunction:
		// a variable one branch leaves to the domain makes the result
		// domain-dependent.
		free := query.FreeVars(n)
		var bound map[string]bool
		for _, g := range n.Fs {
			gb, ok := rangeSafe(g)
			if !ok {
				return nil, false
			}
			for _, v := range free {
				if !gb[v] {
					return nil, false
				}
			}
			if bound == nil {
				bound = make(map[string]bool, len(free))
				for _, v := range free {
					bound[v] = true
				}
			}
		}
		if bound == nil {
			bound = map[string]bool{}
		}
		return bound, true
	case *query.Exists:
		inner, ok := rangeSafe(n.F)
		if !ok {
			return nil, false
		}
		for _, v := range n.Vars {
			if !inner[v] {
				return nil, false
			}
		}
		bound := make(map[string]bool, len(inner))
		for v := range inner {
			bound[v] = true
		}
		for _, v := range n.Vars {
			delete(bound, v)
		}
		return bound, true
	default:
		// Not, ForAll, or an unknown node: not monotone.
		return nil, false
	}
}

// DeltaResult is the answer-set delta computed by Delta: tuples that joined
// Q(D) and cached tuples that left it, both in canonical order (Removed is
// in old's order, which is canonical). Added is disjoint from the cached
// tuples that stay, so relation.Merge(old, Removed's positions, Added) is
// the new answer set.
type DeltaResult struct {
	Added   []relation.Tuple
	Removed []relation.Tuple
	// Rechecked counts the cached answers whose membership deletes made
	// suspect and Delta re-verified, for cost accounting.
	Rechecked int
	// Examined counts the relation tuples the evaluation read, for cost
	// accounting.
	Examined int
}

// Delta computes the delta of Q(D) across the journaled changes, given the
// answer set old, in canonical order, materialized before them. It reports
// ok = false — and does no work — when the incremental path does not
// apply: the query is not DeltaCapable, or a change touches a relation in a
// way the seminaive step cannot handle. On ok, applying the delta to old
// yields exactly the current Q(D): old − Removed + Added.
//
// Cost: O(Σ per-insert restricted evaluations) for inserts — each binds one
// atom to the inserted tuple and joins the rest of the body, so selective
// queries pay far less than a full re-evaluation, and each answer it
// derives is looked up in old and Removed by binary search — plus, for
// deletes, finding the suspect answers and one membership re-check per
// suspect. An answer is suspect when it agrees with a deleted tuple on
// every head-variable argument of an atom that could have matched it. When
// such an atom binds head position 0, the suspects are found by binary
// search on old, whose canonical order keeps the answers that share field
// 0 together: O(|deletes| · log |old| + run lengths), not O(|old|). Other
// atoms cost one scan of old with a hashed lookup per answer, and an atom
// binding no head variable makes every cached answer suspect (see
// suspects). The evaluator never computes the active domain (range-safe
// queries do not enumerate it), and a bound argument reads a run of the
// relation's column index, which full evaluation and earlier refreshes
// have usually built already.
func Delta(ctx context.Context, q *query.Query, db *relation.Database, changes []relation.Change, old []relation.Tuple) (DeltaResult, bool, error) {
	var res DeltaResult
	if !DeltaCapable(q) {
		return res, false, nil
	}
	atomsByRel := scopeAtoms(q)
	// Partition the journal. Inserts into relations the query never
	// mentions cannot create answers (range-safety makes the result
	// domain-independent), and deletes there cannot remove any.
	var inserts, deletes []relation.Change
	for _, c := range changes {
		if len(atomsByRel[c.Rel]) == 0 {
			continue
		}
		switch c.Op {
		case relation.OpInsert:
			inserts = append(inserts, c)
		case relation.OpDelete:
			deletes = append(deletes, c)
		default:
			return res, false, nil
		}
	}

	e := New(q, db).WithContext(ctx)

	// Removals: deletes can only shrink a monotone answer set, and only a
	// suspect answer can have lost its last derivation — re-verify those.
	if len(deletes) > 0 {
		pos, all := suspects(atomsByRel, deletes, old)
		n := len(pos)
		if all {
			n = len(old)
		}
		for j := 0; j < n; j++ {
			t := old[j]
			if !all {
				t = old[pos[j]]
			}
			res.Rechecked++
			if !e.Member(t) {
				if err := e.Err(); err != nil {
					return DeltaResult{}, false, err
				}
				res.Removed = append(res.Removed, t)
			}
		}
		if err := e.Err(); err != nil {
			return DeltaResult{}, false, err
		}
	}

	// Additions: seminaive step. Any answer new since the watermark has a
	// derivation through at least one inserted tuple; force each atom over
	// the tuple's relation to that tuple and enumerate the rest.
	for _, c := range inserts {
		for _, sc := range atomsByRel[c.Rel] {
			ok := e.bindAtom(sc, c.Tuple, func(t relation.Tuple) bool {
				if _, cached := relation.Search(old, t); cached {
					if _, removed := relation.Search(res.Removed, t); !removed {
						return true
					}
				}
				res.Added = append(res.Added, t)
				return true
			})
			if !ok {
				if err := e.Err(); err != nil {
					return DeltaResult{}, false, err
				}
			}
		}
	}
	slices.SortFunc(res.Added, relation.Tuple.Compare)
	res.Added = slices.CompactFunc(res.Added, func(a, b relation.Tuple) bool { return a.Compare(b) == 0 })
	res.Examined = e.examined
	return res, true, nil
}

// atomScope is what the body's quantifier structure fixes about one
// relation atom. An argument an enclosing quantifier re-binds names the
// quantified variable there, not an outer one of the same name. Every
// other head-variable argument carries, in any derivation through the
// atom, the answer's value at that head position.
type atomScope struct {
	atom       *query.Atom
	quantified []bool   // per argument: re-bound by an enclosing quantifier
	head       [][2]int // (argument position, head position) pairs
}

// scopeAtoms walks the body once, tracking quantified names, and groups
// the scope of every relation atom by relation name.
func scopeAtoms(q *query.Query) map[string][]atomScope {
	headPos := make(map[string]int, len(q.Head))
	for i, h := range q.Head {
		headPos[h] = i
	}
	out := make(map[string][]atomScope)
	var walk func(f query.Formula, quantified map[string]bool)
	walk = func(f query.Formula, quantified map[string]bool) {
		switch n := f.(type) {
		case *query.Atom:
			sc := atomScope{atom: n, quantified: make([]bool, len(n.Args))}
			for i, a := range n.Args {
				if !a.IsVar() {
					continue
				}
				if quantified[a.Name] {
					sc.quantified[i] = true
				} else if h, ok := headPos[a.Name]; ok {
					sc.head = append(sc.head, [2]int{i, h})
				}
			}
			out[n.Rel] = append(out[n.Rel], sc)
		case *query.And:
			for _, g := range n.Fs {
				walk(g, quantified)
			}
		case *query.Or:
			for _, g := range n.Fs {
				walk(g, quantified)
			}
		case *query.Not:
			walk(n.F, quantified)
		case *query.Exists:
			walk(n.F, withVars(quantified, n.Vars))
		case *query.ForAll:
			walk(n.F, withVars(quantified, n.Vars))
		}
	}
	walk(q.Body, nil)
	return out
}

// withVars returns a copy of set extended with vars.
func withVars(set map[string]bool, vars []string) map[string]bool {
	out := make(map[string]bool, len(set)+len(vars))
	for v := range set {
		out[v] = true
	}
	for _, v := range vars {
		out[v] = true
	}
	return out
}

// canMatch reports whether the atom could have matched t: the arities
// agree and every constant argument equals t's field.
func (sc atomScope) canMatch(t relation.Tuple) bool {
	if len(sc.atom.Args) != len(t) {
		return false
	}
	for i, a := range sc.atom.Args {
		if !a.IsVar() && !value.Equal(a.Value, t[i]) {
			return false
		}
	}
	return true
}

// suspects returns the positions in old, ascending and each once, of the
// cached answers that deletes may have cost their last derivation, or all =
// true when every cached answer is suspect. Such an answer was derived
// through a deleted tuple d and an atom over d's relation that matched it,
// so at each of that atom's head pairs it carries d's value: an equal one,
// since atoms match equal values (value.Equal). suspects keeps exactly the
// answers that agree with a deleted tuple at every pair of such an atom,
// found one of two ways per atom:
//
//   - An atom with a pair at head position 0 reads runs. old is in
//     canonical order, and Tuple.Compare orders by field 0 first, so the
//     answers agreeing with d at position 0 form one contiguous run. A binary
//     search finds it, and value.Equal checks the atom's other pairs inside
//     it: O(log |old| + run length) per deleted tuple. Every atom of an
//     identity or a write-mix statement is of this kind.
//   - Any other atom, such as R(y, z) in Q(x, z) :- R(x, y), R(y, z), files
//     each deleted tuple under the combined KeyHash of its pair values
//     (equal values hash alike) and scans old once, checking each hash hit
//     with value.Equal: O(|old|), building no key.
//
// An atom that could have matched a deleted tuple but binds no head
// variable makes every answer suspect.
func suspects(atomsByRel map[string][]atomScope, deletes []relation.Change, old []relation.Tuple) (pos []int, all bool) {
	type filed struct {
		head [][2]int
		dels []relation.Tuple
	}
	byAtom := make(map[*query.Atom]*filed)
	var atoms []*filed
	for _, c := range deletes {
		for _, sc := range atomsByRel[c.Rel] {
			if !sc.canMatch(c.Tuple) {
				continue
			}
			if len(sc.head) == 0 {
				return nil, true
			}
			f := byAtom[sc.atom]
			if f == nil {
				f = &filed{head: sc.head}
				byAtom[sc.atom] = f
				atoms = append(atoms, f)
			}
			f.dels = append(f.dels, c.Tuple)
		}
	}
	for _, f := range atoms {
		if p := slices.IndexFunc(f.head, func(p [2]int) bool { return p[1] == 0 }); p >= 0 {
			pos = appendRuns(pos, old, f.head, f.head[p][0], f.dels)
		} else {
			pos = appendHashed(pos, old, f.head, f.dels)
		}
	}
	slices.Sort(pos)
	return slices.Compact(pos), false
}

// appendRuns appends the positions of the answers in old that agree with
// a deleted tuple at every head pair, searching the run of answers whose
// field 0 equals the tuple's argument arg.
func appendRuns(pos []int, old []relation.Tuple, head [][2]int, arg int, dels []relation.Tuple) []int {
	for _, d := range dels {
		v := d[arg]
		i, _ := slices.BinarySearchFunc(old, v, func(u relation.Tuple, v value.Value) int { return value.Compare(u[0], v) })
		for ; i < len(old) && value.Equal(old[i][0], v); i++ {
			if agrees(head, d, old[i]) {
				pos = append(pos, i)
			}
		}
	}
	return pos
}

// appendHashed appends, in ascending order, the positions of the answers in
// old that agree with a deleted tuple at every head pair, looking each
// answer's pair values up by their combined KeyHash.
func appendHashed(pos []int, old []relation.Tuple, head [][2]int, dels []relation.Tuple) []int {
	byHash := make(map[uint64][]relation.Tuple, len(dels))
	for _, d := range dels {
		h := pairHash(head, d, 0)
		byHash[h] = append(byHash[h], d)
	}
	for i, u := range old {
		for _, d := range byHash[pairHash(head, u, 1)] {
			if agrees(head, d, u) {
				pos = append(pos, i)
				break
			}
		}
	}
	return pos
}

// agrees reports whether answer u carries deleted tuple d's value at every
// head pair.
func agrees(head [][2]int, d, u relation.Tuple) bool {
	for _, p := range head {
		if !value.Equal(d[p[0]], u[p[1]]) {
			return false
		}
	}
	return true
}

// pairHash combines the KeyHashes of t's fields at one side of the head
// pairs (0 the argument positions, 1 the head positions), so a deleted
// tuple and an answer that agree at every pair hash alike.
func pairHash(head [][2]int, t relation.Tuple, side int) uint64 {
	var h uint64
	for _, p := range head {
		h = (h ^ t[p[side]].KeyHash()) * 0x9E3779B97F4A7C15
	}
	return h
}

// bindAtom pre-binds the atom's variable arguments to tuple t's fields and
// enumerates satisfying assignments of the whole query body under that
// restriction, emitting the head tuple of each. Constant or already-bound
// arguments that mismatch t make the restriction unsatisfiable (no
// derivation routes t through the atom) and emit nothing. Arguments an
// enclosing quantifier re-binds stay unbound: binding one would pin the
// outer variable sharing its name (its slot) to the inner value. The
// restriction may then under-constrain inside the quantifier — the
// enumeration yields a superset of the derivations through (atom, t), which
// is sound: every yield satisfies the body. An atom that covers the head
// (satisfyAtom) and no quantifier re-binds makes t itself the answer of
// every yield, the journaled stored tuple rather than a copy. It reports
// whether enumeration ran to completion.
func (e *Evaluator) bindAtom(sc atomScope, t relation.Tuple, emit func(relation.Tuple) bool) bool {
	if len(sc.atom.Args) != len(t) {
		return true
	}
	slots := e.argSlotsOf(sc.atom)
	if e.covers(slots) && !slices.Contains(sc.quantified, true) {
		outer := e.cover
		e.cover = t
		defer func() { e.cover = outer }()
	}
	var newly []int
	defer func() {
		for _, s := range newly {
			e.bound[s] = false
		}
	}()
	for i, arg := range sc.atom.Args {
		s := slots[i]
		switch {
		case sc.quantified[i]:
			continue
		case s < 0:
			if !value.Equal(arg.Value, t[i]) {
				return true
			}
			continue
		case e.bound[s]:
			if !value.Equal(e.vals[s], t[i]) {
				return true
			}
			continue
		}
		e.vals[s] = t[i]
		e.bound[s] = true
		newly = append(newly, s)
	}
	return e.satisfy(e.q.Body, func() bool {
		return emit(e.headTuple())
	})
}
