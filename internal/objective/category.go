// The category plane: a score plane whose δdis is a CategoryDistance stores
// no pairs at all. Every answer carries a category ID, and each category
// keeps its answers ordered best first. The n(n−1)/2 distance pairs
// factorise through the m categories (as FDB stores repeated structure
// once), so a distance is two int loads, a Fmono row sum is
// n − |category|, and the greedy procedures need only each category's
// best remaining answers.
package objective

import (
	"cmp"
	"context"
	"maps"
	"math"
	"slices"

	"repro/internal/ctxpoll"
	"repro/internal/relation"
	"repro/internal/value"
)

// CategoryDistance is the 0/1 distance on one column: δdis(s, t) is 0 when s
// and t hold the same value at Col and 1 otherwise. Values are the same when
// they have the same kind and the same payload, with floats compared by ==:
// every NaN differs from everything, −0 equals +0, and the int 1 differs
// from the float 1.0. A Col outside a tuple reads as a missing value, equal
// only to another missing one, so a negative Col is the zero distance.
//
// The plane recognises this type: under RegimeAuto it serves it from
// per-category lists (RegimeCategory) instead of a matrix or an index.
type CategoryDistance struct{ Col int }

// Dis reports whether s and t disagree on Col.
func (d CategoryDistance) Dis(s, t relation.Tuple) float64 {
	a, aok := d.cell(s)
	b, bok := d.cell(t)
	if aok != bok || (aok && !sameValue(a, b)) {
		return 1
	}
	return 0
}

// cell returns t's value at Col, ok false when t has no such column.
func (d CategoryDistance) cell(t relation.Tuple) (value.Value, bool) {
	if d.Col < 0 || d.Col >= len(t) {
		return value.Value{}, false
	}
	return t[d.Col], true
}

// sameValue is CategoryDistance's equality: same kind, same payload.
func sameValue(a, b value.Value) bool {
	if a.Kind() != b.Kind() {
		return false
	}
	switch a.Kind() {
	case value.KindInt:
		return a.AsInt() == b.AsInt()
	case value.KindFloat:
		return a.AsFloat() == b.AsFloat()
	case value.KindBool:
		return a.AsBool() == b.AsBool()
	default:
		return a.AsString() == b.AsString()
	}
}

// categoryKey is the map key grouping values by sameValue. NaNs never
// reach the map and −0 is stored as +0.
type categoryKey struct {
	missing bool
	kind    value.Kind
	i       int64
	f       float64
	s       string
}

// Categories is the category plane's store: the category of every answer
// ID and, per category, its IDs ordered by δrel descending, then by ID
// ascending.
type Categories struct {
	of     []int32 // category of each ID
	start  []int32 // category c lists ids[start[c]:start[c+1]]
	ids    []int32
	finite bool // every δrel is finite
	// byKey maps each shared grouping key to its category, so a rebase
	// files an added answer without re-keying the others.
	byKey map[categoryKey]int32
}

// buildCategories groups answers by d's column and orders each group by
// rel. Category IDs follow first appearance in ID order.
func buildCategories(ctx context.Context, d CategoryDistance, answers []relation.Tuple, rel []float64) (*Categories, error) {
	n := len(answers)
	cs := &Categories{of: make([]int32, n), ids: make([]int32, n), byKey: make(map[categoryKey]int32)}
	poll := ctxpoll.New(ctx)
	var sizes []int32
	for id, t := range answers {
		if poll.Stop() {
			return nil, poll.Err()
		}
		k, shared := keyOf(d, t)
		c, ok := cs.byKey[k]
		if !shared || !ok {
			c = int32(len(sizes))
			sizes = append(sizes, 0)
			if shared {
				cs.byKey[k] = c
			}
		}
		cs.of[id] = c
		sizes[c]++
	}
	next := cs.layout(sizes, rel)
	for id, c := range cs.of {
		cs.ids[next[c]] = int32(id)
		next[c]++
	}
	better := byRel(rel)
	for c := range sizes {
		if poll.Stop() {
			return nil, poll.Err()
		}
		slices.SortFunc(cs.List(c), better)
	}
	return cs, nil
}

// layout sets start from the category sizes and finite from rel, and
// returns each category's first slot in ids.
func (cs *Categories) layout(sizes []int32, rel []float64) []int32 {
	cs.start = make([]int32, len(sizes)+1)
	for c, size := range sizes {
		cs.start[c+1] = cs.start[c] + size
	}
	cs.finite = true
	for _, r := range rel {
		if math.IsNaN(r) || math.IsInf(r, 0) {
			cs.finite = false
			break
		}
	}
	return slices.Clone(cs.start[:len(sizes)])
}

// byRel is the list order: δrel descending (cmp.Compare's order, NaN
// lowest), then ID ascending.
func byRel(rel []float64) func(a, b int32) int {
	return func(a, b int32) int {
		if c := cmp.Compare(rel[b], rel[a]); c != 0 {
			return c
		}
		return cmp.Compare(a, b)
	}
}

// rebase derives the store of a rebased plane from cs, the store of the
// plane it was rebased from, instead of grouping and sorting every answer
// again. fromOld maps each new ID to its old ID, or -1 for an added answer;
// rel and answers are the new plane's. The ID renumbering is monotone and
// survivors carry their δrel, so survivors keep their category and their
// order in it; added answers are keyed through byKey and merged into their
// lists. Categories are renumbered by first appearance in ID order and an
// emptied one vanishes, so the result equals buildCategories over the new
// answers field for field.
func (cs *Categories) rebase(ctx context.Context, d CategoryDistance, answers []relation.Tuple, rel []float64, fromOld []int) (*Categories, error) {
	m := len(fromOld)
	poll := ctxpoll.New(ctx)
	out := &Categories{of: make([]int32, m), ids: make([]int32, m), byKey: maps.Clone(cs.byKey)}
	// Old categories keep their numbers for now; new keys get numbers past
	// them.
	fresh := int32(cs.Count())
	var added []int32
	old2new := make([]int32, len(cs.of))
	for i := range old2new {
		old2new[i] = -1
	}
	for id, o := range fromOld {
		if poll.Stop() {
			return nil, poll.Err()
		}
		if o >= 0 {
			out.of[id] = cs.of[o]
			old2new[o] = int32(id)
			continue
		}
		added = append(added, int32(id))
		k, shared := keyOf(d, answers[id])
		c, ok := out.byKey[k]
		if !shared || !ok {
			c = fresh
			fresh++
			if shared {
				out.byKey[k] = c
			}
		}
		out.of[id] = c
	}
	// Renumber by first appearance in ID order, as a cold build numbers.
	renum := make([]int32, fresh)
	for i := range renum {
		renum[i] = -1
	}
	var sizes []int32
	for id, c := range out.of {
		if renum[c] < 0 {
			renum[c] = int32(len(sizes))
			sizes = append(sizes, 0)
		}
		out.of[id] = renum[c]
		sizes[renum[c]]++
	}
	for k, c := range out.byKey {
		if renum[c] < 0 {
			delete(out.byKey, k)
		} else {
			out.byKey[k] = renum[c]
		}
	}
	next := out.layout(sizes, rel)
	// Survivors in their old order, then each category's added answers
	// merged in from the back.
	for c := range cs.Count() {
		nc := renum[c]
		if nc < 0 {
			continue
		}
		for _, o := range cs.List(c) {
			if id := old2new[o]; id >= 0 {
				out.ids[next[nc]] = id
				next[nc]++
			}
		}
	}
	better := byRel(rel)
	slices.SortFunc(added, func(a, b int32) int {
		if c := cmp.Compare(out.of[a], out.of[b]); c != 0 {
			return c
		}
		return better(a, b)
	})
	for lo := 0; lo < len(added); {
		if poll.Stop() {
			return nil, poll.Err()
		}
		c := out.of[added[lo]]
		hi := lo + 1
		for hi < len(added) && out.of[added[hi]] == c {
			hi++
		}
		list := out.List(int(c))
		i, j := int(next[c]-out.start[c])-1, hi-1
		for w := len(list) - 1; j >= lo; w-- {
			if i >= 0 && better(list[i], added[j]) > 0 {
				list[w] = list[i]
				i--
			} else {
				list[w] = added[j]
				j--
			}
		}
		lo = hi
	}
	return out, nil
}

// keyOf is t's grouping key under d. shared is false for a NaN cell, which
// is a category of its own.
func keyOf(d CategoryDistance, t relation.Tuple) (k categoryKey, shared bool) {
	v, ok := d.cell(t)
	if !ok {
		return categoryKey{missing: true}, true
	}
	k.kind = v.Kind()
	switch v.Kind() {
	case value.KindInt:
		k.i = v.AsInt()
	case value.KindFloat:
		k.f = v.AsFloat()
		if math.IsNaN(k.f) {
			return k, false
		}
		if k.f == 0 {
			k.f = 0 // −0 joins +0
		}
	case value.KindBool:
		if v.AsBool() {
			k.i = 1
		}
	default:
		k.s = v.AsString()
	}
	return k, true
}

// Count reports the number of categories.
func (cs *Categories) Count() int { return len(cs.start) - 1 }

// Of returns the category of the answer interned as id.
func (cs *Categories) Of(id int) int { return int(cs.of[id]) }

// List returns category c's IDs, best first (shared; do not mutate).
func (cs *Categories) List(c int) []int32 { return cs.ids[cs.start[c]:cs.start[c+1]] }

// Finite reports whether every δrel is finite. The greedy procedures walk
// the lists only then: NaN and ±Inf relevance keep the flat scans.
func (cs *Categories) Finite() bool { return cs.finite }

// dis is δdis between two interned answers: 0 within a category, else 1.
func (cs *Categories) dis(i, j int) float64 {
	if cs.of[i] == cs.of[j] {
		return 0
	}
	return 1
}

// rowSums is Σ_j δdis(i, j) for every i: the answers outside i's
// category. Adding that many ones in any order is exact, so this equals
// the flat ascending scan bit for bit.
func (cs *Categories) rowSums() []float64 {
	sums := make([]float64, len(cs.of))
	for i, c := range cs.of {
		sums[i] = float64(len(cs.of) - int(cs.start[c+1]-cs.start[c]))
	}
	return sums
}

// bytes estimates the store's resident size.
func (cs *Categories) bytes() int64 {
	return int64(len(cs.of)+len(cs.ids)+len(cs.start)) * 4
}
