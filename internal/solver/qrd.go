package solver

import (
	"context"
	"errors"
	"sort"

	"repro/internal/approx"
	"repro/internal/core"
	"repro/internal/objective"
	"repro/internal/relation"
)

// ErrConstrained is returned by the PTIME special-case procedures when the
// instance carries compatibility constraints: Section 9 shows exactly those
// tractable cells become intractable under Cm, so the shortcuts do not
// apply and callers must fall back to the exact solvers.
var ErrConstrained = errors.New("solver: PTIME procedure does not apply under compatibility constraints (Thm 9.3)")

// QRDResult is the outcome of a QRD decision.
type QRDResult struct {
	Exists  bool
	Witness []relation.Tuple // a valid set when Exists
	Value   float64          // F(Witness)
	Stats   Stats
	// Incumbent is the greedy answer a best-set search warm-started from,
	// nil when it did not warm-start (constraints, or no full greedy set).
	Incumbent *approx.Result
}

// QRDExact decides QRD(LQ, F) by exhaustive search over candidate sets with
// admissible upper-bound pruning, stopping at the first valid set. It
// realizes the guess-and-check procedures behind the paper's NP/PSPACE upper
// bounds (Thm 5.1, 5.2) and works in every setting, including under
// compatibility constraints (Cor 9.2).
func QRDExact(in *core.Instance) QRDResult {
	res, _ := QRDExactContext(context.Background(), in)
	return res
}

// QRDExactContext is QRDExact under a cancellation context: both the
// evaluation of Q(D) and the exponential subset search poll ctx and abort
// with its error, leaving the result unreliable.
func QRDExactContext(ctx context.Context, in *core.Instance) (QRDResult, error) {
	var res QRDResult
	if _, err := in.AnswersContext(ctx); err != nil {
		return res, err
	}
	err := qrdWalk(ctx, newSearch(ctx, in, in.B, false, &res.Stats), modeFirst, &res)
	return res, err
}

// qrdWalk runs a witness or best-set walk over s and lowers its outcome into
// res. A cancelled walk returns ctx's error with its partial incumbent, if
// any, which carries no guarantee.
func qrdWalk(ctx context.Context, s *search, mode parMode, res *QRDResult) error {
	out := frameWalk(ctx, s, mode, parallelism(s.in), 0)
	if out.exists {
		res.Exists, res.Value, res.Witness = true, out.value, s.tuples(out.sel)
	}
	if out.canceled {
		return ctx.Err()
	}
	return nil
}

// QRDMonoPTime decides QRD(LQ, Fmono) for a fixed query — the PTIME
// data-complexity algorithm of Theorem 5.4: compute Q(D), compute the
// per-tuple score v(t), and compare the sum of the k largest scores with B.
// Fmono's modularity (Fmono(U) = Σ_{t∈U} v(t)) makes the greedy choice
// optimal. Fails with ErrConstrained when Σ is present.
func QRDMonoPTime(in *core.Instance) (QRDResult, error) {
	var res QRDResult
	if in.Obj.Kind != objective.Mono {
		return res, errors.New("solver: QRDMonoPTime requires the mono objective")
	}
	if in.Sigma.Len() > 0 {
		return res, ErrConstrained
	}
	answers := in.Answers()
	res.Stats.Answers = len(answers)
	if len(answers) < in.K {
		return res, nil
	}
	scores := monoScores(in)
	order := sortedByScore(scores)
	sum := 0.0
	witness := make([]relation.Tuple, 0, in.K)
	for i := 0; i < in.K; i++ {
		sum += scores[order[i]]
		witness = append(witness, answers[order[i]])
	}
	res.Value = sum
	if sum >= in.B {
		res.Exists = true
		res.Witness = witness
	}
	return res, nil
}

// QRDRelevanceOnlyPTime decides QRD for λ=0 (relevance-only objectives) with
// a fixed query — the PTIME data-complexity algorithms of Theorem 8.2:
//
//	FMS, λ=0: F(U) = (k-1)·Σ δrel(t); maximized by the k most relevant
//	          answers, so compare (k-1)·top-k-sum with B.
//	FMM, λ=0: F(U) = min δrel(t); maximized by the k most relevant answers,
//	          so compare the k-th largest relevance with B.
//
// Fails with ErrConstrained when Σ is present (Cor 9.5).
func QRDRelevanceOnlyPTime(in *core.Instance) (QRDResult, error) {
	var res QRDResult
	if in.Obj.Lambda != 0 {
		return res, errors.New("solver: QRDRelevanceOnlyPTime requires λ=0")
	}
	if in.Obj.Kind == objective.Mono {
		return QRDMonoPTime(in) // λ=0 mono is modular too
	}
	if in.Sigma.Len() > 0 {
		return res, ErrConstrained
	}
	answers := in.Answers()
	res.Stats.Answers = len(answers)
	if len(answers) < in.K {
		return res, nil
	}
	rels := relScores(in)
	order := sortedByScore(rels)
	witness := make([]relation.Tuple, in.K)
	sum := 0.0
	kth := 0.0
	for i := 0; i < in.K; i++ {
		witness[i] = answers[order[i]]
		sum += rels[order[i]]
		kth = rels[order[i]]
	}
	switch in.Obj.Kind {
	case objective.MaxSum:
		res.Value = float64(in.K-1) * sum
	case objective.MaxMin:
		res.Value = kth
	}
	if res.Value >= in.B {
		res.Exists = true
		res.Witness = witness
	}
	return res, nil
}

// QRDBest finds a maximum-F candidate set (the optimization version of
// diversification from Section 3), by exact search. It prunes with a rising
// incumbent bound, warm-started from the greedy answer on unconstrained
// instances. Returns Exists=false when no candidate set exists (e.g.
// k > |Q(D)| or constraints unsatisfiable).
func QRDBest(in *core.Instance) QRDResult {
	res, _ := QRDBestContext(context.Background(), in)
	return res
}

// QRDBestContext is QRDBest under a cancellation context. A cancelled run
// returns ctx's error; the partial incumbent (if any) and the greedy
// Incumbent are in the result, but carry no optimality guarantee.
func QRDBestContext(ctx context.Context, in *core.Instance) (QRDResult, error) {
	var res QRDResult
	if _, err := in.AnswersContext(ctx); err != nil {
		return res, err
	}
	s := newSearch(ctx, in, 0, false, &res.Stats)
	if s.canceled {
		return res, ctx.Err()
	}
	s.sharedBest = newAtomicMax()
	g, err := warmStart(ctx, in, s)
	if err != nil {
		return res, err
	}
	res.Incumbent = g
	err = qrdWalk(ctx, s, modeBest, &res)
	return res, err
}

// sortedByScore returns indices ordered by descending score (stable, so
// equal scores keep answer order for determinism).
func sortedByScore(scores []float64) []int {
	order := make([]int, len(scores))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return scores[order[a]] > scores[order[b]] })
	return order
}
