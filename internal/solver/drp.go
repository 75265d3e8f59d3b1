package solver

import (
	"context"
	"errors"
	"math/big"

	"repro/internal/core"
	"repro/internal/objective"
	"repro/internal/subset"
)

// DRPResult is the outcome of a diversity-ranking decision: rank(U) <= r
// holds iff fewer than r candidate sets score strictly above F(U)
// (Section 4.1 defines rank(U) = 1 + #{S : F(S) > F(U)}).
type DRPResult struct {
	InTopR bool
	// Better is the number of candidate sets with F(S) > F(U), capped at r
	// (the decision never needs more).
	Better int
	// FU is F(U), the score of the assessed set.
	FU    float64
	Stats Stats
}

// DRPExact decides DRP(LQ, F) by counting candidate sets that strictly beat
// F(U), stopping as soon as r are found. The candidate set U itself must be
// a candidate for (Q, D, [Σ,] k); if it is not, the decision is trivially
// false (rank is undefined), reported via the error.
func DRPExact(in *core.Instance) (DRPResult, error) {
	return DRPExactContext(context.Background(), in)
}

// DRPExactContext is DRPExact under a cancellation context; a cancelled run
// returns ctx's error and an unreliable partial count.
func DRPExactContext(ctx context.Context, in *core.Instance) (DRPResult, error) {
	var res DRPResult
	if _, err := in.AnswersContext(ctx); err != nil {
		return res, err
	}
	if !in.IsCandidate(in.U) {
		return res, errors.New("solver: U is not a candidate set for (Q, D, k)")
	}
	res.FU = in.Eval(in.U)
	// The walk stops once rank(U) > r is certain. It always counts at least
	// one qualifying leaf before noticing the cap, so the cap floor is 1.
	capR := max(in.R, 1)
	out := frameWalk(ctx, newSearch(ctx, in, res.FU, true, &res.Stats), modeCountCap, parallelism(in), capR)
	res.Better = int(min(out.count, int64(capR)))
	if out.canceled {
		return res, ctx.Err() // partial count rides along
	}
	res.InTopR = res.Better < in.R
	return res, nil
}

// DRPMonoPTime decides DRP(LQ, Fmono) for a fixed query in polynomial time —
// Theorem 6.4. Fmono is modular, so the top-r candidate sets by score are
// exactly the top-r k-subsets by score sum; we enumerate them best-first
// (the paper's FindNext one-tuple-replacement strategy realized as a ranked
// heap search) and stop after at most r sets or when scores drop to F(U).
//
// As the paper notes, this is polynomial for constant r (and
// pseudo-polynomial when r is a binary-encoded input); it refuses
// constrained instances (Thm 9.3).
func DRPMonoPTime(in *core.Instance) (DRPResult, error) {
	var res DRPResult
	if in.Obj.Kind != objective.Mono {
		return res, errors.New("solver: DRPMonoPTime requires the mono objective")
	}
	if in.Sigma.Len() > 0 {
		return res, ErrConstrained
	}
	if !in.IsCandidate(in.U) {
		return res, errors.New("solver: U is not a candidate set for (Q, D, k)")
	}
	answers := in.Answers()
	res.Stats.Answers = len(answers)
	res.FU = in.Eval(in.U)
	ranked := subset.NewRanked(monoScores(in), in.K)
	for res.Better < in.R {
		_, sum, ok := ranked.Next()
		if !ok {
			break
		}
		res.Stats.Leaves++
		if sum <= res.FU+floatSlack(res.FU) {
			break // no further set can strictly beat F(U)
		}
		res.Better++
	}
	res.InTopR = res.Better < in.R
	return res, nil
}

// floatSlack returns a magnitude-relative tolerance: the ranked enumeration
// recomputes F(U) as a score sum whose floating-point rounding may differ
// from Eval's, so "strictly greater" is taken up to this slack.
func floatSlack(x float64) float64 {
	if x < 0 {
		x = -x
	}
	return 1e-9 * (1 + x)
}

// DRPRelevanceOnlyPTime decides DRP for λ=0 with a fixed query — the PTIME
// cases of Theorem 8.2:
//
//	FMS, λ=0: modular ((k-1)·Σ δrel), so ranked enumeration applies as for
//	          Fmono.
//	FMM, λ=0: F(S) = min δrel over S. Candidate sets beating F(U) are the
//	          k-subsets of {t : δrel(t) > F(U)}, counted as C(cnt, k) in FP.
func DRPRelevanceOnlyPTime(in *core.Instance) (DRPResult, error) {
	var res DRPResult
	if in.Obj.Lambda != 0 {
		return res, errors.New("solver: DRPRelevanceOnlyPTime requires λ=0")
	}
	if in.Sigma.Len() > 0 {
		return res, ErrConstrained
	}
	if !in.IsCandidate(in.U) {
		return res, errors.New("solver: U is not a candidate set for (Q, D, k)")
	}
	answers := in.Answers()
	res.Stats.Answers = len(answers)
	res.FU = in.Eval(in.U)
	switch in.Obj.Kind {
	case objective.Mono:
		return DRPMonoPTime(in)
	case objective.MaxSum:
		// (k-1)(1-0)·δrel per tuple: FMS is modular at λ=0.
		scores := relScores(in)
		for i := range scores {
			scores[i] = float64(in.K-1) * scores[i]
		}
		ranked := subset.NewRanked(scores, in.K)
		for res.Better < in.R {
			_, sum, ok := ranked.Next()
			if !ok {
				break
			}
			res.Stats.Leaves++
			if sum <= res.FU+floatSlack(res.FU) {
				break
			}
			res.Better++
		}
		res.InTopR = res.Better < in.R
		return res, nil
	case objective.MaxMin:
		cnt := 0
		for _, r := range relScores(in) {
			if r > res.FU {
				cnt++
			}
		}
		better := subset.Count(cnt, in.K)
		res.InTopR = better.Cmp(big.NewInt(int64(in.R))) < 0
		if better.IsInt64() {
			b := better.Int64()
			if b > int64(in.R) {
				b = int64(in.R)
			}
			res.Better = int(b)
		} else {
			res.Better = in.R
		}
		return res, nil
	default:
		return res, errors.New("solver: unknown objective")
	}
}
