// Indexed-regime variants of the greedy heuristics: the same selection
// loops as the flat plane scans in approx.go, with the O(n) per-round work
// routed through the plane's metric index instead of stored pairs. Both are
// engineered to reproduce the flat scans' results bit for bit — the index
// only skips work it can prove is a no-op (max-min) or cannot win the
// current round (max-sum), and every evaluation it does perform uses the
// identical expressions in the identical order. The differential tests in
// regime_diff_test.go pin that equivalence.
package approx

import (
	"math"

	"repro/internal/core"
	"repro/internal/ctxpoll"
	"repro/internal/objective"
)

// greedyMaxSumIndexed is GreedyMaxSum's flat scan with LAESA-style gain
// bounds: instead of updating every candidate's running gain after each
// pick (Θ(n·k) distance evaluations), candidates lag behind and each
// round's scan first asks the index for an upper bound on what a lagging
// candidate's gain could be; only candidates whose bound beats the round's
// incumbent are refined (replaying their missed updates in pick order, so
// refined gains are bit-identical to the flat loop's). Selection therefore
// matches the flat greedy's tie-break order exactly whenever the bounds are
// sound, which the pruneSlack margin guarantees up to ulp-level rounding.
func greedyMaxSumIndexed(c *ctxpoll.Poller, in *core.Instance, p *objective.Plane, ix *objective.MetricIndex) (Result, error) {
	var res Result
	o := in.Obj
	n := p.Len()
	k := in.K
	base := make([]float64, n)
	for i := range base {
		base[i] = float64(k-1) * (1 - o.Lambda) * p.Rel(i)
	}
	st := ix.NewMaxSumState(base, o.Lambda)
	used := make([]bool, n)
	ids := make([]int, 0, k)
	for len(ids) < k {
		bestIdx, bestGain := -1, math.Inf(-1)
		for i := 0; i < n; i++ {
			if used[i] {
				continue
			}
			if c.Stop() {
				return res, c.Err()
			}
			res.Steps++
			// A candidate whose upper bound cannot strictly beat the
			// incumbent cannot change bestIdx (the flat loop's comparison
			// is strict, so ties keep the earlier index): skip refining it.
			if bestIdx >= 0 && st.UpperBound(i) <= bestGain {
				continue
			}
			if g := st.Refine(i); g > bestGain {
				bestGain, bestIdx = g, i
			}
		}
		if bestIdx < 0 {
			break
		}
		used[bestIdx] = true
		ids = append(ids, bestIdx)
		st.Push(bestIdx)
	}
	res.Set = planeTuples(p, ids)
	res.Value = o.EvalIDs(p, ids)
	return res, nil
}

// greedyMaxMinIndexed is GreedyMaxMin's flat scan with the min-distance
// update routed through the vantage-point tree: Take folds the new center
// into every unchosen candidate's minDis, pruning subtrees the triangle
// inequality proves unaffected. The maintained minDis array — and with it
// every score, comparison and tie-break of the selection scan — is
// bit-identical to the flat variant's.
func greedyMaxMinIndexed(c *ctxpoll.Poller, in *core.Instance, p *objective.Plane, ix *objective.MetricIndex) (Result, error) {
	var res Result
	o := in.Obj
	n := p.Len()
	k := in.K
	used := make([]bool, n)
	seed, seedRel := -1, math.Inf(-1)
	for i := 0; i < n; i++ {
		res.Steps++
		if r := p.Rel(i); r > seedRel {
			seedRel, seed = r, i
		}
	}
	st := ix.NewMaxMinState()
	ids := make([]int, 0, k)
	take := func(idx int) {
		used[idx] = true
		ids = append(ids, idx)
		st.Take(idx)
	}
	take(seed)
	for len(ids) < k {
		bestIdx, bestScore := -1, math.Inf(-1)
		for i := 0; i < n; i++ {
			if used[i] {
				continue
			}
			if c.Stop() {
				return res, c.Err()
			}
			res.Steps++
			score := (1-o.Lambda)*p.Rel(i) + o.Lambda*st.MinDis[i]
			if score > bestScore {
				bestScore, bestIdx = score, i
			}
		}
		if bestIdx < 0 {
			break
		}
		take(bestIdx)
	}
	res.Set = planeTuples(p, ids)
	res.Value = o.EvalIDs(p, ids)
	return res, nil
}
