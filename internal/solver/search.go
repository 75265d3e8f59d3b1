// Package solver implements decision and counting procedures for the three
// diversification problems of Section 4:
//
//   - QRD — does a valid k-set exist? Exact branch-and-bound search (the
//     guess-and-check upper-bound procedures of Thm 5.1/5.2 made
//     deterministic), plus the paper's PTIME algorithms for the tractable
//     cells: Fmono data complexity (Thm 5.4), λ=0 data complexity (Thm 8.2)
//     and identity queries with Fmono (Cor 8.1).
//   - DRP — is rank(U) ≤ r? Exact counting of better sets, plus the
//     FindNext-style top-r enumeration for Fmono (Thm 6.4) and the λ=0
//     special cases.
//   - RDC — how many valid sets? Exact enumeration with admissible pruning,
//     the FP counting formulas of Thm 8.2/Cor 8.4, and a pseudo-polynomial
//     dynamic program for integer-scored modular instances.
//
// Every exact procedure honours compatibility constraints Σ (Section 9);
// the PTIME shortcuts refuse instances with constraints, mirroring the
// paper's result that those cells turn intractable under Cm (Thm 9.3).
package solver

import (
	"context"
	"math"

	"repro/internal/core"
	"repro/internal/ctxpoll"
	"repro/internal/objective"
	"repro/internal/relation"
)

// Stats reports work done by a solver run, used by the bench harness to
// expose the exponential/polynomial gap empirically. With several workers,
// Nodes/Leaves/Pruned aggregate over every frame; the totals differ from a
// one-worker run of the same instance (the shared incumbent prunes
// differently) even though the returned sets and scores are identical.
type Stats struct {
	Nodes    int // search-tree nodes visited (partial sets)
	Leaves   int // complete candidate sets evaluated
	Pruned   int // subtrees cut by the admissible bound
	Answers  int // |Q(D)|
	Explored bool
	Frames   int  // search frames (0: one worker walked the whole tree)
	Warm     bool // pruning bound warm-started from a heuristic incumbent
}

// search enumerates k-subsets of the instance's answers in index order,
// maintaining objective-specific incremental state for admissible
// upper-bound pruning.
//
// cutoff is the score threshold; strict selects F > cutoff (DRP counting)
// versus F >= cutoff (QRD/RDC validity). found is invoked with each
// qualifying candidate set and may return false to stop (QRD existence);
// frameWalk sets it per frame.
type search struct {
	in      *core.Instance
	answers []relation.Tuple
	k       int
	cutoff  float64
	strict  bool
	found   func(sel []int, f float64) bool
	stats   *Stats

	// plane is the interned score plane: relevance and pairwise distances
	// as array loads on answer IDs instead of interface calls on tuples.
	plane *objective.Plane

	// pruneSigma enables constraint pruning on partial selections: sound
	// exactly when every constraint is universal-only (violation-monotone).
	pruneSigma bool

	// poller is sampled along the walk so the exponential search is
	// interruptible; canceled records that the walk was cut off (making
	// the partial result unreliable).
	poller   *ctxpoll.Poller
	canceled bool

	// sharedBest, when non-nil, is the global incumbent bound of a best-set
	// search: every frame prunes (and admits) against max(cutoff,
	// sharedBest), so a bound raised by one worker cuts the others' subtrees
	// too. It only ever rises, and it never exceeds the true optimum, so
	// pruning stays admissible.
	sharedBest *atomicMax

	// split is the selection size at which the walk queues its node onto
	// frames instead of descending: the split depth while cutting the tree
	// for several workers, noSplit otherwise.
	split  int
	frames []frameSpec

	// abandon, when non-nil, reports that this frame's result can no longer
	// influence the merged outcome (an earlier frame already holds the
	// witness, or a capped count is saturated); the walk stops without
	// marking cancellation.
	abandon func() bool

	// Incremental state.
	sel     []int
	relSum  float64 // Σ δrel over selection
	pairSum float64 // Σ unordered pairwise δdis over selection
	minRel  float64
	minDis  float64

	// Precomputed optimistic bounds.
	maxRel     float64
	maxDis     float64
	monoScores []float64 // per-answer Fmono contributions
	monoSuffix []float64 // monoSuffix[i] = sum of top (k) scores among answers[i:]... see build
}

// noSplit is the split of a walk that never cuts frames.
const noSplit = -1

func newSearch(ctx context.Context, in *core.Instance, cutoff float64, strict bool, stats *Stats) *search {
	s := &search{
		poller:  ctxpoll.New(ctx),
		in:      in,
		answers: in.Answers(),
		k:       in.K,
		cutoff:  cutoff,
		strict:  strict,
		stats:   stats,
		split:   noSplit,
		minRel:  math.Inf(1),
		minDis:  math.Inf(1),
	}
	s.stats.Answers = len(s.answers)
	s.pruneSigma = in.Sigma.Len() > 0 && in.Sigma.ForallOnly()
	o := in.Obj
	plane, err := in.PlaneContext(ctx)
	if err != nil {
		s.canceled = true
		return s
	}
	s.plane = plane
	switch o.Kind {
	case objective.MaxSum, objective.MaxMin:
		// The plane builds its matrix here (when the regime has one) and
		// hands back the max distance as a byproduct; the walk then reads
		// distances as contiguous float loads. A direct plane scans every
		// pair once for the maximum without storing any, and the walk
		// evaluates the pairs it visits.
		s.maxRel = plane.MaxRel()
		md, err := plane.MaxDisContext(ctx)
		if err != nil {
			s.canceled = true
			return s
		}
		s.maxDis = md
	case objective.Mono:
		scores, err := o.MonoScoresPlane(ctx, plane)
		if err != nil {
			s.canceled = true
			return s
		}
		s.monoScores = scores
	}
	return s
}

// cutFrames walks the tree down to depth, with the pruning of the walk
// proper, and returns the surviving prefixes in DFS order.
func (s *search) cutFrames(depth int) []frameSpec {
	s.split = depth
	s.sel = make([]int, 0, s.k)
	s.recurse(0)
	s.split = noSplit
	return s.frames
}

// interrupted reports whether the search must stop. Once true it stays
// true.
func (s *search) interrupted() bool {
	if s.poller.Stop() {
		s.canceled = true
	}
	return s.canceled
}

// cut returns the effective score threshold: the static cutoff, raised to
// the shared incumbent in a best-set search.
func (s *search) cut() float64 {
	c := s.cutoff
	if s.sharedBest != nil {
		if g := s.sharedBest.Load(); g > c {
			c = g
		}
	}
	return c
}

// admits reports whether a complete set's score qualifies.
func (s *search) admits(f float64) bool {
	if s.strict {
		return f > s.cut()
	}
	return f >= s.cut()
}

// bound returns an admissible (never under-estimating) upper bound on the
// score of any completion of the current partial selection drawing its
// remaining elements from answers[next:].
func (s *search) bound(next int) float64 {
	o := s.in.Obj
	j := len(s.sel)
	r := s.k - j
	switch o.Kind {
	case objective.MaxSum:
		rel := float64(s.k-1) * (1 - o.Lambda) * (s.relSum + float64(r)*s.maxRel)
		pairs := s.pairSum + (float64(j*r)+float64(r*(r-1))/2)*s.maxDis
		return rel + o.Lambda*2*pairs
	case objective.MaxMin:
		mr := s.minRel
		if j == 0 {
			mr = s.maxRel
		}
		md := s.minDis
		if j < 2 {
			md = s.maxDis
		}
		if s.k < 2 {
			md = 0
		}
		return (1-o.Lambda)*mr + o.Lambda*md
	case objective.Mono:
		// Optimistic: take the r largest scores among the remaining tail.
		sum := s.relSum // reused as the running mono score sum
		rest := topSum(s.monoScores[next:], r)
		return sum + rest
	default:
		return math.Inf(1)
	}
}

// topSum returns the sum of the r largest values in xs (all of them if
// fewer). Small r and xs in our workloads; selection by partial sort.
func topSum(xs []float64, r int) float64 {
	if r <= 0 {
		return 0
	}
	if r >= len(xs) {
		total := 0.0
		for _, x := range xs {
			total += x
		}
		return total
	}
	// Maintain the r largest in a small slice (r is k-j, typically tiny).
	best := make([]float64, 0, r)
	for _, x := range xs {
		if len(best) < r {
			best = append(best, x)
			continue
		}
		mi := 0
		for i := 1; i < r; i++ {
			if best[i] < best[mi] {
				mi = i
			}
		}
		if x > best[mi] {
			best[mi] = x
		}
	}
	total := 0.0
	for _, x := range best {
		total += x
	}
	return total
}

// recurse extends the selection with indices >= next. It returns false when
// the caller requested a stop.
func (s *search) recurse(next int) bool {
	if len(s.sel) == s.split {
		s.frames = append(s.frames, frameSpec{prefix: append([]int(nil), s.sel...), next: next})
		return true
	}
	s.stats.Nodes++
	if s.interrupted() {
		return false
	}
	if s.abandon != nil && s.abandon() {
		return false
	}
	if len(s.sel) == s.k {
		return s.leaf()
	}
	// Not enough elements left to finish the set.
	if len(s.answers)-next < s.k-len(s.sel) {
		return true
	}
	if c := s.cut(); s.prunes(next, c) {
		s.stats.Pruned++
		return true
	}
	for i := next; i < len(s.answers); i++ {
		saved := s.push(i)
		if s.pruneSigma && !s.in.SatisfiesConstraints(s.tuples(s.sel)) {
			// Universal-only constraints already violated by the partial
			// set stay violated in every completion: cut the subtree.
			s.stats.Pruned++
			s.pop(i, saved)
			continue
		}
		ok := s.recurse(i + 1)
		s.pop(i, saved)
		if !ok {
			return false
		}
	}
	return true
}

// prunes reports whether the subtree rooted at the current partial selection
// (drawing from answers[next:]) cannot contain a qualifying set at threshold
// c. The comparison allows a magnitude-relative slack: bound accumulates its
// sums in a different order than the leaf evaluation, so a subtree whose
// best completion ties the threshold exactly may see its upper bound round
// one ulp below it. That matters once thresholds can equal achievable leaf
// values bit-for-bit, as the warm-started incumbent does.
func (s *search) prunes(next int, c float64) bool {
	ub := s.bound(next)
	c -= floatSlack(c)
	if s.strict {
		return ub <= c
	}
	return ub < c
}

type savedState struct {
	relSum, pairSum, minRel, minDis float64
}

func (s *search) push(i int) savedState {
	saved := savedState{s.relSum, s.pairSum, s.minRel, s.minDis}
	switch s.in.Obj.Kind {
	case objective.Mono:
		s.relSum += s.monoScores[i]
	default:
		r := s.plane.Rel(i)
		s.relSum += r
		if r < s.minRel || math.IsNaN(r) {
			s.minRel = r
		}
		for _, j := range s.sel {
			d := s.plane.Dis(j, i)
			s.pairSum += d
			if d < s.minDis {
				s.minDis = d
			}
		}
	}
	s.sel = append(s.sel, i)
	return saved
}

func (s *search) pop(i int, saved savedState) {
	s.sel = s.sel[:len(s.sel)-1]
	s.relSum, s.pairSum, s.minRel, s.minDis = saved.relSum, saved.pairSum, saved.minRel, saved.minDis
	_ = i
}

// leaf evaluates a complete candidate set.
func (s *search) leaf() bool {
	s.stats.Leaves++
	f := s.value()
	if !s.admits(f) {
		return true
	}
	if s.in.Sigma != nil {
		u := s.tuples(s.sel)
		if !s.in.SatisfiesConstraints(u) {
			return true
		}
	}
	return s.found(s.sel, f)
}

// value computes the exact objective of the current complete selection from
// the incremental state.
func (s *search) value() float64 {
	o := s.in.Obj
	switch o.Kind {
	case objective.MaxSum:
		return float64(s.k-1)*(1-o.Lambda)*s.relSum + o.Lambda*2*s.pairSum
	case objective.MaxMin:
		mr := s.minRel
		if s.k == 0 {
			mr = 0
		}
		md := s.minDis
		if s.k < 2 {
			md = 0
		}
		return (1-o.Lambda)*mr + o.Lambda*md
	case objective.Mono:
		return s.relSum
	default:
		return 0
	}
}

// monoScores returns the per-answer Fmono scores, served from the interned
// score plane (precomputed relevance vector plus cached distance row sums).
func monoScores(in *core.Instance) []float64 {
	// Background never cancels, so the scores cannot fail.
	scores, _ := in.Obj.MonoScoresPlane(context.Background(), in.Plane())
	return scores
}

// relScores returns δrel per answer, from the plane's precomputed vector.
func relScores(in *core.Instance) []float64 {
	p := in.Plane()
	out := make([]float64, p.Len())
	for i := range out {
		out[i] = p.Rel(i)
	}
	return out
}

// valueAt computes the exact leaf value the walk would report for the
// ascending selection ids, by replaying the incremental pushes in walk
// order on a scratch copy. The result is bit-identical to the score the
// search assigns that leaf, which is what makes it a sound warm-start
// pruning bound: the true optimum can never fall below an achievable leaf
// value.
func (s *search) valueAt(ids []int) float64 {
	fs := *s
	fs.stats = &Stats{}
	fs.sel = make([]int, 0, len(ids))
	fs.relSum, fs.pairSum = 0, 0
	fs.minRel, fs.minDis = math.Inf(1), math.Inf(1)
	for _, id := range ids {
		fs.push(id)
	}
	return fs.value()
}

// tuples materializes the selected tuples.
func (s *search) tuples(sel []int) []relation.Tuple {
	out := make([]relation.Tuple, len(sel))
	for i, idx := range sel {
		out[i] = s.answers[idx]
	}
	return out
}
