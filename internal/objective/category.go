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
}

// buildCategories groups answers by d's column and orders each group by
// rel. Category IDs follow first appearance in ID order.
func buildCategories(ctx context.Context, d CategoryDistance, answers []relation.Tuple, rel []float64) (*Categories, error) {
	n := len(answers)
	cs := &Categories{of: make([]int32, n), ids: make([]int32, n), finite: true}
	poll := ctxpoll.New(ctx)
	seen := make(map[categoryKey]int32)
	var sizes []int32
	for id, t := range answers {
		if poll.Stop() {
			return nil, poll.Err()
		}
		k, shared := keyOf(d, t)
		c, ok := seen[k]
		if !shared || !ok {
			c = int32(len(sizes))
			sizes = append(sizes, 0)
			if shared {
				seen[k] = c
			}
		}
		cs.of[id] = c
		sizes[c]++
		if math.IsNaN(rel[id]) || math.IsInf(rel[id], 0) {
			cs.finite = false
		}
	}
	cs.start = make([]int32, len(sizes)+1)
	for c, size := range sizes {
		cs.start[c+1] = cs.start[c] + size
	}
	next := slices.Clone(cs.start[:len(sizes)])
	for id, c := range cs.of {
		cs.ids[next[c]] = int32(id)
		next[c]++
	}
	better := func(a, b int32) int {
		if c := cmp.Compare(rel[b], rel[a]); c != 0 {
			return c
		}
		return cmp.Compare(a, b)
	}
	for c := range sizes {
		if poll.Stop() {
			return nil, poll.Err()
		}
		slices.SortFunc(cs.List(c), better)
	}
	return cs, nil
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
