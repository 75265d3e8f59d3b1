// Package approx provides the heuristic and approximation algorithms that
// Section 10 of the paper calls for: since QRD is intractable for FMS and
// FMM even in data complexity, practical systems use polynomial heuristics.
// We implement the classical ones the diversification literature (Gollapudi
// & Sharma 2009; Vieira et al. 2011) builds on:
//
//   - GreedyMaxSum — the max-sum dispersion greedy: repeatedly add the tuple
//     with the largest marginal FMS gain. A 2-approximation for metric
//     distances on the dispersion core.
//   - GreedyMaxMin — Gonzalez-style farthest-point greedy for max-min
//     dispersion: start from the most relevant tuple and repeatedly add the
//     tuple maximizing the minimum weighted distance/relevance to the chosen
//     set (the Maximal Marginal Relevance trade-off rule). A
//     2-approximation for metric distances.
//   - LocalSearchSwap — hill climbing by single-tuple swaps from any seed,
//     for any objective, the paper's "heuristic algorithms" workhorse.
//
// All run in polynomial time over the instance's interned score plane,
// whichever store it serves distances from: the loops read Plane.Dis, which
// every store answers with the same δdis values, and a category plane runs
// the same selection over each category's best answers (category.go).
// Quality measures their objective ratio against the exact optimum for
// ablation experiments. Every procedure has a Context variant that polls a
// cancellation context along its scan loops — the flat loops are
// polynomial but still quadratic-or-worse in |Q(D)|, so a production
// caller wants them interruptible too. The greedy walk on a category plane
// is not: a round compares one candidate per category, an answer is scored
// when it joins its category's frontier, and no state is kept per answer.
package approx

import (
	"context"
	"math"
	"sort"

	"repro/internal/core"
	"repro/internal/ctxpoll"
	"repro/internal/objective"
	"repro/internal/relation"
)

// Result is a heuristic's selected set with its objective value.
type Result struct {
	Set   []relation.Tuple
	Value float64
	Steps int // number of candidate evaluations, for cost accounting
}

// GreedyMaxSum selects k answers greedily by marginal FMS gain.
func GreedyMaxSum(in *core.Instance) Result {
	res, _ := GreedyMaxSumContext(context.Background(), in)
	return res
}

// GreedyMaxSumContext is GreedyMaxSum under a cancellation context. It
// maintains each candidate's running marginal gain on the score plane, so a
// round is one O(n) array scan plus an O(n) gain update against the newly
// chosen ID. Gains accumulate in chosen order, matching MaxSumDelta
// bit-for-bit. A category plane with finite relevance runs the same
// selection over each category's frontier of best answers (category.go).
func GreedyMaxSumContext(ctx context.Context, in *core.Instance) (Result, error) {
	var res Result
	p, ok, err := planeFor(ctx, in, in.K)
	if !ok {
		return res, err
	}
	c := ctxpoll.New(ctx)
	if cs := p.Categories(); cs != nil && cs.Finite() {
		return greedyCategory(c, in, p, cs)
	}
	o := in.Obj
	n := p.Len()
	k := in.K
	gain := make([]float64, n)
	for i := range gain {
		gain[i] = float64(k-1) * (1 - o.Lambda) * p.Rel(i)
	}
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
			if gain[i] > bestGain {
				bestGain, bestIdx = gain[i], i
			}
		}
		if bestIdx < 0 {
			break
		}
		used[bestIdx] = true
		ids = append(ids, bestIdx)
		for i := 0; i < n; i++ {
			if !used[i] {
				gain[i] += o.Lambda * 2 * p.Dis(bestIdx, i)
			}
		}
	}
	res.Set = planeTuples(p, ids)
	res.Value = o.EvalIDs(p, ids)
	return res, nil
}

// planeFor returns the instance's score plane for a heuristic selecting k
// answers. ok is false, with a nil error, when k is outside [1, |Q(D)|]:
// no k-set exists and the heuristic returns the empty Result.
func planeFor(ctx context.Context, in *core.Instance, k int) (p *objective.Plane, ok bool, err error) {
	answers, err := in.AnswersContext(ctx)
	if err != nil || k <= 0 || k > len(answers) {
		return nil, false, err
	}
	p, err = in.PlaneContext(ctx)
	return p, err == nil, err
}

// planeTuples materializes the tuples interned as ids.
func planeTuples(p *objective.Plane, ids []int) []relation.Tuple {
	out := make([]relation.Tuple, len(ids))
	for i, id := range ids {
		out[i] = p.Tuple(id)
	}
	return out
}

// GreedyMaxMin selects k answers farthest-point style: seed with the most
// relevant answer, then repeatedly add the answer maximizing
// (1-λ)·δrel(t) + λ·min_{s∈chosen} δdis(t, s).
func GreedyMaxMin(in *core.Instance) Result {
	res, _ := GreedyMaxMinContext(context.Background(), in)
	return res
}

// GreedyMaxMinContext is GreedyMaxMin under a cancellation context. It
// maintains each candidate's running min-distance to the chosen set on the
// score plane, so a round is an O(n) scan plus an O(n) min update against
// the new member. A category plane runs the same selection as
// GreedyMaxSumContext describes.
func GreedyMaxMinContext(ctx context.Context, in *core.Instance) (Result, error) {
	var res Result
	p, ok, err := planeFor(ctx, in, in.K)
	if !ok {
		return res, err
	}
	c := ctxpoll.New(ctx)
	if cs := p.Categories(); cs != nil && cs.Finite() {
		return greedyCategory(c, in, p, cs)
	}
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
	minDis := make([]float64, n)
	for i := range minDis {
		minDis[i] = math.Inf(1)
	}
	ids := make([]int, 0, k)
	take := func(idx int) {
		used[idx] = true
		ids = append(ids, idx)
		for i := 0; i < n; i++ {
			if !used[i] {
				if d := p.Dis(idx, i); d < minDis[i] {
					minDis[i] = d
				}
			}
		}
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
			score := (1-o.Lambda)*p.Rel(i) + o.Lambda*minDis[i]
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

// LocalSearchSwap improves a seed set by hill climbing: repeatedly apply the
// single best swap (one chosen tuple out, one unchosen in) while the
// objective strictly improves. Works for all three objectives; for Fmono it
// converges to the optimum because the objective is modular. The seed must
// be drawn from Q(D): an empty seed, one larger than Q(D), or one holding a
// tuple outside Q(D) returns the empty Result.
func LocalSearchSwap(in *core.Instance, seed []relation.Tuple) Result {
	res, _ := LocalSearchSwapContext(context.Background(), in, seed)
	return res
}

// LocalSearchSwapContext is LocalSearchSwap under a cancellation context; a
// cancelled climb returns the best set reached so far along with ctx's
// error (hill climbing is anytime, so the partial set is still a valid —
// just possibly non-local-optimal — selection). Membership tests are a
// bool-slice load and every candidate evaluation is EvalIDs over the plane.
func LocalSearchSwapContext(ctx context.Context, in *core.Instance, seed []relation.Tuple) (Result, error) {
	var res Result
	p, ok, err := planeFor(ctx, in, len(seed))
	if !ok {
		return res, err
	}
	current, ok := internSeed(in, seed)
	if !ok {
		return res, nil
	}
	c := ctxpoll.New(ctx)
	o := in.Obj
	n := p.Len()
	inSet := make([]bool, n)
	for _, id := range current {
		inSet[id] = true
	}
	cur := o.EvalIDs(p, current)
	improved := true
	for improved {
		improved = false
		bestVal := cur
		bestI, bestJ := -1, -1
		for i := range current {
			for j := 0; j < n; j++ {
				if inSet[j] {
					continue
				}
				if c.Stop() {
					res.Set = planeTuples(p, current)
					res.Value = cur
					return res, c.Err()
				}
				res.Steps++
				old := current[i]
				current[i] = j
				if v := o.EvalIDs(p, current); v > bestVal {
					bestVal, bestI, bestJ = v, i, j
				}
				current[i] = old
			}
		}
		if bestI >= 0 {
			inSet[current[bestI]] = false
			current[bestI] = bestJ
			inSet[bestJ] = true
			cur = bestVal
			improved = true
		}
	}
	res.Set = planeTuples(p, current)
	res.Value = cur
	return res, nil
}

// internSeed maps a seed set onto answer IDs by binary search of the
// instance's canonically sorted answers; a seed tuple outside Q(D) reports
// false.
func internSeed(in *core.Instance, seed []relation.Tuple) ([]int, bool) {
	answers := in.Answers()
	ids := make([]int, len(seed))
	for i, t := range seed {
		id, ok := relation.Search(answers, t)
		if !ok {
			return nil, false
		}
		ids[i] = id
	}
	return ids, true
}

// Greedy picks the heuristic matched to the instance's objective kind:
// GreedyMaxSum for FMS, GreedyMaxMin for FMM, and exact top-k scores for
// Fmono (optimal thanks to modularity).
func Greedy(in *core.Instance) Result {
	res, _ := GreedyContext(context.Background(), in)
	return res
}

// GreedyContext is Greedy under a cancellation context.
func GreedyContext(ctx context.Context, in *core.Instance) (Result, error) {
	switch in.Obj.Kind {
	case objective.MaxSum:
		return GreedyMaxSumContext(ctx, in)
	case objective.MaxMin:
		return GreedyMaxMinContext(ctx, in)
	default:
		return monoTopK(ctx, in)
	}
}

// monoTopK selects the k answers with the largest Fmono scores — exact for
// the modular objective.
func monoTopK(ctx context.Context, in *core.Instance) (Result, error) {
	var res Result
	p, ok, err := planeFor(ctx, in, in.K)
	if !ok {
		return res, err
	}
	scores, err := in.Obj.MonoScoresPlane(ctx, p)
	if err != nil {
		return res, err
	}
	type pair struct {
		idx   int
		score float64
	}
	ps := make([]pair, len(scores))
	for i, s := range scores {
		ps[i] = pair{i, s}
	}
	// Selection of top k by partial sort.
	for i := 0; i < in.K; i++ {
		best := i
		for j := i + 1; j < len(ps); j++ {
			res.Steps++
			if ps[j].score > ps[best].score {
				best = j
			}
		}
		ps[i], ps[best] = ps[best], ps[i]
	}
	ids := make([]int, in.K)
	for i := range ids {
		ids[i] = ps[i].idx
	}
	res.Set = planeTuples(p, ids)
	res.Value = in.Obj.EvalIDs(p, ids)
	return res, nil
}

// Incumbent runs the objective-matched greedy heuristic for the exact
// branch-and-bound search's warm start: its result, and the chosen answers as
// ascending answer indices, from which the search seeds its pruning bound so
// that pruning bites from the first node instead of only after the walk finds
// its own first good set. ids is nil when no heuristic incumbent is
// available: constraints are present (a greedy set could violate them, which
// would make its score an unsound pruning bound), or the heuristic could not
// produce a full k-set.
func Incumbent(ctx context.Context, in *core.Instance) (res Result, ids []int, err error) {
	if in.Sigma.Len() > 0 || in.K <= 0 {
		return res, nil, nil
	}
	res, err = GreedyContext(ctx, in)
	if err != nil || len(res.Set) != in.K {
		return res, nil, err
	}
	ids, ok := internSeed(in, res.Set)
	if !ok {
		return res, nil, nil
	}
	sort.Ints(ids)
	return res, ids, nil
}

// Quality compares a heuristic value against the exact optimum, returning
// the ratio heuristic/optimum in [0, 1] (1 when the optimum is 0 and the
// heuristic matched it). The exactOpt argument is typically
// solver.QRDBest(in).Value.
func Quality(heuristic, exactOpt float64) float64 {
	if exactOpt == 0 {
		if heuristic == 0 {
			return 1
		}
		return 0
	}
	return heuristic / exactOpt
}
