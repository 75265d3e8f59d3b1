package solver

import (
	"context"
	"errors"
	"math"
	"math/big"

	"repro/internal/core"
	"repro/internal/objective"
	"repro/internal/subset"
)

// RDCResult is the outcome of a result-diversity count.
type RDCResult struct {
	Count *big.Int
	Stats Stats
}

// RDCExact counts the valid sets for (Q, D, [Σ,] k, F, B) by exhaustive
// enumeration with admissible pruning: subtrees whose optimistic bound
// cannot reach B contribute no valid sets and are skipped. This realizes
// the #·NP / #·PSPACE guess-and-verify counting of Thm 7.1/7.2 and works in
// every setting including constraints.
func RDCExact(in *core.Instance) RDCResult {
	res, _ := RDCExactContext(context.Background(), in)
	return res
}

// RDCExactContext is RDCExact under a cancellation context: counting has no
// early exit, so this is the procedure that most needs interruption. A
// cancelled run returns ctx's error with the partial count.
func RDCExactContext(ctx context.Context, in *core.Instance) (RDCResult, error) {
	res := RDCResult{Count: new(big.Int)}
	if _, err := in.AnswersContext(ctx); err != nil {
		return res, err
	}
	out := frameWalk(ctx, newSearch(ctx, in, in.B, false, &res.Stats), modeCountAll, parallelism(in), 0)
	res.Count.SetInt64(out.count)
	if out.canceled {
		return res, ctx.Err() // partial count
	}
	return res, nil
}

// RDCMaxMinRelevanceOnlyFP counts valid sets for FMM at λ=0 with a fixed
// query in FP (Theorem 8.2): F(U) = min δrel over U, so U is valid iff every
// member has relevance >= B; the count is C(#{t : δrel(t) >= B}, k).
func RDCMaxMinRelevanceOnlyFP(in *core.Instance) (RDCResult, error) {
	res := RDCResult{Count: new(big.Int)}
	if in.Obj.Kind != objective.MaxMin || in.Obj.Lambda != 0 {
		return res, errors.New("solver: RDCMaxMinRelevanceOnlyFP requires FMM with λ=0")
	}
	if in.Sigma.Len() > 0 {
		return res, ErrConstrained
	}
	res.Stats.Answers = len(in.Answers())
	cnt := 0
	for _, r := range relScores(in) {
		if r >= in.B {
			cnt++
		}
	}
	res.Count = subset.Count(cnt, in.K)
	return res, nil
}

// RDCConstantK counts valid sets for a constant k by direct enumeration of
// the O(n^k) candidate sets — the FP data-complexity algorithm of
// Corollary 8.4 (and Corollary 9.7: it remains FP under constraints, since
// Cm validation is PTIME per set).
func RDCConstantK(in *core.Instance) RDCResult {
	// Identical engine; the polynomial bound comes from k being constant.
	return RDCExact(in)
}

// RDCModularDP counts valid sets for modular objectives (Fmono always;
// FMS at λ=0 via its per-tuple scores) with integer scores, using a
// pseudo-polynomial dynamic program over (chosen count, achieved sum):
// dp[j][s] = number of ways to pick j tuples totalling s. The count of valid
// sets is Σ_{s >= B} dp[k][s]. This extends the paper's observation in
// Thm 7.5 that RDC(LQ, Fmono) is #P-complete via #SSPk — subset-sum counting
// is exactly what the DP solves in time O(n·k·S).
//
// Scores are scaled by the given multiplier and must land on integers
// within tolerance; otherwise an error is returned.
func RDCModularDP(in *core.Instance, scale float64) (RDCResult, error) {
	res := RDCResult{Count: new(big.Int)}
	if in.Sigma.Len() > 0 {
		return res, ErrConstrained
	}
	var scores []float64
	switch {
	case in.Obj.Kind == objective.Mono:
		scores = monoScores(in)
	case in.Obj.Kind == objective.MaxSum && in.Obj.Lambda == 0:
		scores = relScores(in)
		for i := range scores {
			scores[i] = float64(in.K-1) * scores[i]
		}
	default:
		return res, errors.New("solver: RDCModularDP requires a modular objective (Fmono, or FMS at λ=0)")
	}
	res.Stats.Answers = len(scores)
	ints := make([]int64, len(scores))
	total := int64(0)
	for i, sc := range scores {
		v := sc * scale
		r := math.Round(v)
		if math.Abs(v-r) > 1e-6 || r < 0 {
			return res, errors.New("solver: scores are not non-negative integers at this scale")
		}
		ints[i] = int64(r)
		total += ints[i]
	}
	bound := int64(math.Ceil(in.B*scale - 1e-9))
	if bound < 0 {
		bound = 0
	}
	if bound > total {
		res.Count = new(big.Int)
		return res, nil
	}
	k := in.K
	if k < 0 || k > len(ints) {
		return res, nil
	}
	// dp[j][s]: ways to choose j elements with sum exactly s.
	dp := make([][]*big.Int, k+1)
	for j := range dp {
		dp[j] = make([]*big.Int, total+1)
		for s := range dp[j] {
			dp[j][s] = new(big.Int)
		}
	}
	dp[0][0].SetInt64(1)
	for _, w := range ints {
		for j := k; j >= 1; j-- {
			for s := total; s >= w; s-- {
				if dp[j-1][s-w].Sign() != 0 {
					dp[j][s].Add(dp[j][s], dp[j-1][s-w])
				}
			}
		}
	}
	for s := bound; s <= total; s++ {
		res.Count.Add(res.Count, dp[k][s])
	}
	return res, nil
}

// RDCTuringReduce demonstrates the polynomial Turing reduction pattern of
// Theorem 7.5: counting sets with F(U) exactly equal to a target value d by
// two oracle calls, X = #{U : F(U) >= d} minus Y = #{U : F(U) >= d'}, where
// d' is the smallest representable value above d for the instance's score
// granularity eps. The oracle is any RDC procedure.
func RDCTuringReduce(in *core.Instance, d, eps float64, oracle func(*core.Instance) RDCResult) *big.Int {
	lower := *in
	lower.B = d
	upper := *in
	upper.B = d + eps
	x := oracle(&lower).Count
	y := oracle(&upper).Count
	return new(big.Int).Sub(x, y)
}
