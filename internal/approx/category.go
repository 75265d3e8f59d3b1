// Category-plane variants of the greedy heuristics. On a category plane
// δdis is 0 within a category and 1 across, so every unpicked answer of one
// category sees the same distance terms, and its score rises with δrel
// alone. Scores therefore never increase along a category's list (δrel
// descending, ID ascending), and a round only looks at each category's
// best unpicked answers. Rounding can give different relevances the same
// score, so the walk goes on while the score equals the first one and keeps
// the lowest ID: the flat scans' tie-break. Every score is the flat loop's
// expression in the flat loop's order, so selections and values are
// bit-identical; category_diff_test.go pins that. GreedyMaxSumContext and
// GreedyMaxMinContext walk the lists only when every δrel is finite.
package approx

import (
	"math"

	"repro/internal/core"
	"repro/internal/ctxpoll"
	"repro/internal/objective"
)

// categoryWalk is the state of one greedy run over a category plane.
type categoryWalk struct {
	c     *ctxpoll.Poller
	cs    *objective.Categories
	used  []bool
	head  []int // per category: position of the first unpicked list entry
	picks []int // per category: answers picked so far
	ids   []int
	res   Result
}

func newCategoryWalk(c *ctxpoll.Poller, p *objective.Plane, cs *objective.Categories, k int) *categoryWalk {
	m := cs.Count()
	return &categoryWalk{
		c:     c,
		cs:    cs,
		used:  make([]bool, p.Len()),
		head:  make([]int, m),
		picks: make([]int, m),
		ids:   make([]int, 0, k),
	}
}

// round returns the answer a flat scan would pick this round under score,
// or -1 when no answer scores above −∞. score(cat, id) must be the flat
// loop's score of the unpicked answer id of category cat.
func (w *categoryWalk) round(score func(cat, id int) float64) (int, error) {
	bestIdx, bestScore := -1, math.Inf(-1)
	for cat := range w.head {
		list := w.cs.List(cat)
		for w.head[cat] < len(list) && w.used[list[w.head[cat]]] {
			w.head[cat]++
		}
		cand, first := -1, 0.0
		for _, id32 := range list[w.head[cat]:] {
			id := int(id32)
			if w.used[id] {
				continue
			}
			if w.c.Stop() {
				return -1, w.c.Err()
			}
			w.res.Steps++
			s := score(cat, id)
			if cand < 0 {
				cand, first = id, s
				continue
			}
			if s != first {
				break
			}
			cand = min(cand, id)
		}
		if cand >= 0 && (first > bestScore || (first == bestScore && cand < bestIdx)) {
			bestIdx, bestScore = cand, first
		}
	}
	return bestIdx, nil
}

// take picks id.
func (w *categoryWalk) take(id int) {
	w.used[id] = true
	w.picks[w.cs.Of(id)]++
	w.ids = append(w.ids, id)
}

// result is the walk's selection, scored on the plane.
func (w *categoryWalk) result(in *core.Instance, p *objective.Plane) Result {
	w.res.Set = planeTuples(p, w.ids)
	w.res.Value = in.Obj.EvalIDs(p, w.ids)
	return w.res
}

// greedyMaxSumCategory is GreedyMaxSum's flat scan on a category plane. A
// pick adds λ·2 to the gain of every answer outside its category, one term
// at a time in the flat loop, so an answer's gain is its base gain plus λ·2
// added once per pick outside its category, in the same order.
func greedyMaxSumCategory(c *ctxpoll.Poller, in *core.Instance, p *objective.Plane, cs *objective.Categories) (Result, error) {
	o := in.Obj
	k := in.K
	scale := float64(k-1) * (1 - o.Lambda)
	w := newCategoryWalk(c, p, cs, k)
	for len(w.ids) < k {
		id, err := w.round(func(cat, id int) float64 {
			g := scale * p.Rel(id)
			for range len(w.ids) - w.picks[cat] {
				g += o.Lambda * 2
			}
			return g
		})
		if err != nil {
			return w.res, err
		}
		if id < 0 {
			break
		}
		w.take(id)
	}
	return w.result(in, p), nil
}

// greedyMaxMinCategory is GreedyMaxMin's flat scan on a category plane. An
// answer's min distance to the chosen set is 1 while its category has no
// pick and 0 after. The seed, the most relevant answer with the lowest ID,
// heads its category's list.
func greedyMaxMinCategory(c *ctxpoll.Poller, in *core.Instance, p *objective.Plane, cs *objective.Categories) (Result, error) {
	o := in.Obj
	k := in.K
	w := newCategoryWalk(c, p, cs, k)
	seed, seedRel := -1, math.Inf(-1)
	for cat := range cs.Count() {
		w.res.Steps++
		id := int(cs.List(cat)[0])
		if r := p.Rel(id); r > seedRel || (r == seedRel && id < seed) {
			seed, seedRel = id, r
		}
	}
	w.take(seed)
	for len(w.ids) < k {
		id, err := w.round(func(cat, id int) float64 {
			minDis := 1.0
			if w.picks[cat] > 0 {
				minDis = 0
			}
			return (1-o.Lambda)*p.Rel(id) + o.Lambda*minDis
		})
		if err != nil {
			return w.res, err
		}
		if id < 0 {
			break
		}
		w.take(id)
	}
	return w.result(in, p), nil
}
