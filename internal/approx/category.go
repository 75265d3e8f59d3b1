// Category-plane variants of the greedy heuristics. On a category plane
// δdis is 0 within a category and 1 across, so every unpicked answer of one
// category sees the same distance terms, and its score rises with δrel
// alone. Scores therefore never increase along a category's list (δrel
// descending, ID ascending), and a round only looks at each category's
// best unpicked answers. Rounding can give different relevances the same
// score, so the flat scans' pick in a category is the lowest ID among the
// unpicked answers that score the same as its first one.
//
// The walk keeps that set per category across rounds, as a frontier: the
// run, the unpicked answers from the first one through the last that
// scores the same, and the breaker, the next answer, which scores lower.
// Its state is sized to the categories and k, never to |Q(D)|: an answer
// is picked only if its category has picks and it is among the ≤ k picked
// IDs, so no flag is kept per answer. A pick moves the scores of a
// category's unpicked answers all alike: the same addition of λ·2 (FMS,
// every category but the pick's) or the same drop of the min distance from
// 1 to 0 (FMM, the pick's category on its first pick). Rounding is
// monotone, so an addition keeps scores non-increasing along a list and
// equal scores equal: a run never splits, and only the breaker can join
// it, after which the next answer is the breaker. So FMS adds λ·2 to two
// scores per category and pick, FMM rescores one category on its first
// pick (its scores drop unevenly, so its frontier is rebuilt), a pick
// leaves its run, and a round compares one candidate per category.
//
// Every score is the flat loop's expression with its additions in the flat
// loop's order, so selections and values are bit-identical;
// category_diff_test.go pins that. Steps counts what a rescan of every
// frontier would score: each run and breaker once per round.
// GreedyMaxSumContext and GreedyMaxMinContext walk the lists only when
// every δrel is finite.
package approx

import (
	"math"

	"repro/internal/core"
	"repro/internal/ctxpoll"
	"repro/internal/objective"
)

// frontier is one category's part of a walk. The run is the unpicked
// entries of the category's list[lo:hi], n of them, all scoring top; the
// breaker is list[hi], scoring brk < top, when hi < end. n is 0 only once
// every entry is picked.
type frontier struct {
	lo, hi, end int32
	n           int32
	cand        int32 // the run's lowest ID: the category's pick
	picks       int32 // answers picked in the category
	top, brk    float64
}

// categoryWalk is the state of one greedy run over a category plane: FMS
// when sum is set, FMM otherwise.
type categoryWalk struct {
	c      *ctxpoll.Poller
	p      *objective.Plane
	cs     *objective.Categories
	sum    bool
	lambda float64
	scale  float64 // FMS: the weight of δrel in a gain, (k−1)(1−λ)
	front  []frontier
	ids    []int
	res    Result
}

// greedyCategory is the flat greedy scan of GreedyMaxSum (FMS) or
// GreedyMaxMin (FMM) on a category plane.
//
// FMS: a pick adds λ·2 to the gain of every answer outside its category,
// one term at a time in the flat loop, so an answer's gain is its base gain
// plus λ·2 added once per pick outside its category, in the same order. The
// walk adds it to each other category's run and breaker, and scores an
// answer that joins a frontier later with every addition folded in.
//
// FMM: an answer's min distance to the chosen set is 1 while its category
// has no pick and 0 after, so only a category's first pick rescores it. The
// seed, the most relevant answer with the lowest ID, heads its category's
// list.
func greedyCategory(c *ctxpoll.Poller, in *core.Instance, p *objective.Plane, cs *objective.Categories) (Result, error) {
	o, k := in.Obj, in.K
	w := &categoryWalk{
		c: c, p: p, cs: cs,
		sum:    o.Kind == objective.MaxSum,
		lambda: o.Lambda,
		scale:  float64(k-1) * (1 - o.Lambda),
		front:  make([]frontier, cs.Count()),
		ids:    make([]int, 0, k),
	}
	if !w.sum {
		seed, seedRel := -1, math.Inf(-1)
		for cat := range w.front {
			w.res.Steps++
			id := int(cs.List(cat)[0])
			if r := p.Rel(id); r > seedRel || (r == seedRel && id < seed) {
				seed, seedRel = id, r
			}
		}
		w.take(seed)
	}
	for cat := range w.front {
		w.front[cat].end = int32(len(cs.List(cat)))
		w.load(cat)
	}
	for last := -1; len(w.ids) < k; {
		id, err := w.round(last)
		if err != nil {
			return w.res, err
		}
		if id < 0 {
			break
		}
		last = w.take(id)
	}
	w.res.Set = planeTuples(p, w.ids)
	w.res.Value = o.EvalIDs(p, w.ids)
	return w.res, nil
}

// score is the flat loop's score of id, an unpicked answer of cat.
func (w *categoryWalk) score(cat int, id int32) float64 {
	if !w.sum {
		minDis := 1.0
		if w.front[cat].picks > 0 {
			minDis = 0
		}
		return (1-w.lambda)*w.p.Rel(int(id)) + w.lambda*minDis
	}
	g := w.scale * w.p.Rel(int(id))
	for range len(w.ids) - int(w.front[cat].picks) {
		g += w.lambda * 2
	}
	return g
}

// take picks id and returns its category.
func (w *categoryWalk) take(id int) int {
	cat := w.cs.Of(id)
	w.front[cat].picks++
	w.ids = append(w.ids, id)
	return cat
}

// round applies the last pick, made in category last (−1 before the first
// round), to the frontiers and returns the answer a flat scan would pick
// next, or −1 when no answer scores above −∞. It counts each frontier's
// length as steps: what a rescan of the frontiers would score.
func (w *categoryWalk) round(last int) (int, error) {
	bestIdx, bestScore := -1, math.Inf(-1)
	for cat := range w.front {
		if w.c.Stop() {
			return -1, w.c.Err()
		}
		f := &w.front[cat]
		switch {
		case cat == last && !w.sum && f.picks == 1:
			w.load(cat)
		case cat == last:
			w.drop(cat)
		case last >= 0 && w.sum && f.n > 0:
			f.top += w.lambda * 2
			if f.hi < f.end {
				if f.brk += w.lambda * 2; f.brk == f.top {
					w.extend(cat)
				}
			}
		}
		if f.n == 0 {
			continue
		}
		w.res.Steps += int(f.n)
		if f.hi < f.end {
			w.res.Steps++
		}
		if cand := int(f.cand); f.top > bestScore || (f.top == bestScore && cand < bestIdx) {
			bestIdx, bestScore = cand, f.top
		}
	}
	return bestIdx, nil
}

// load rebuilds cat's frontier from the head of its list.
func (w *categoryWalk) load(cat int) {
	f := &w.front[cat]
	f.hi, f.n = w.unpicked(cat, 0), 0
	f.lo = f.hi
	if f.hi < f.end {
		f.brk = w.score(cat, w.cs.List(cat)[f.hi])
	}
	w.extend(cat)
}

// drop removes the just-picked candidate from cat's run: the run's lowest
// remaining ID becomes the candidate, or the breaker the run when none is
// left.
func (w *categoryWalk) drop(cat int) {
	f := &w.front[cat]
	if f.n--; f.n > 0 {
		list := w.cs.List(cat)
		f.lo = w.unpicked(cat, f.lo)
		f.cand = list[f.lo]
		for _, id := range list[f.lo+1 : f.hi] {
			if id < f.cand && !w.picked(cat, id) {
				f.cand = id
			}
		}
	}
	w.extend(cat)
}

// extend moves the breaker into cat's run while it scores the same, and
// makes it the whole run when the run is empty.
func (w *categoryWalk) extend(cat int) {
	f := &w.front[cat]
	list := w.cs.List(cat)
	for f.hi < f.end && (f.n == 0 || f.brk == f.top) {
		id := list[f.hi]
		if f.n == 0 {
			f.top, f.cand = f.brk, id
		}
		f.cand = min(f.cand, id)
		f.n++
		if f.hi = w.unpicked(cat, f.hi+1); f.hi < f.end {
			f.brk = w.score(cat, list[f.hi])
		}
	}
}

// unpicked returns the position of cat's first unpicked entry at or after
// pos, or the list's end.
func (w *categoryWalk) unpicked(cat int, pos int32) int32 {
	if w.front[cat].picks == 0 {
		return pos
	}
	list := w.cs.List(cat)
	for pos < int32(len(list)) && w.picked(cat, list[pos]) {
		pos++
	}
	return pos
}

// picked reports whether id, an answer of category cat, is picked.
func (w *categoryWalk) picked(cat int, id int32) bool {
	if w.front[cat].picks == 0 {
		return false
	}
	for _, p := range w.ids {
		if p == int(id) {
			return true
		}
	}
	return false
}
