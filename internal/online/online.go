// Package online embeds diversification in query evaluation, the paper's
// Section 1 motivation for taking (Q, D) rather than the materialized
// result Q(D) as input: "we want to combine the two steps by embedding
// diversification in query evaluation, and stop as soon as top-ranked
// results are found (i.e., early termination), rather than to retrieve
// entire Q(D) in advance".
//
// Two procedures are provided. QRD streams answers out of the evaluator
// and stops — with a verified witness — as soon as the answers seen so far
// already contain a valid k-set, falling back to an exact verdict on the
// full answer set only when no early witness appears. Diversify maintains
// an anytime k-set by greedy insertion and single-tuple swaps as answers
// arrive, so a selection is available at any point of the evaluation.
//
// Early termination is sound for FMS and FMM, whose value depends only on
// the selected set. It is unsound for Fmono, whose diversity term averages
// distances over the entire Q(D) (the same asymmetry that makes
// QRD(CQ, Fmono) PSPACE-complete, Theorem 5.2); both procedures reject
// mono-objective instances.
package online

import (
	"context"
	"errors"
	"math"

	"repro/internal/approx"
	"repro/internal/core"
	"repro/internal/ctxpoll"
	"repro/internal/objective"
	"repro/internal/query/eval"
	"repro/internal/relation"
	"repro/internal/solver"
)

// ErrMono is returned for mono-objective instances: Fmono needs all of
// Q(D), so no early termination is possible.
var ErrMono = errors.New("online: Fmono depends on the entire Q(D); early termination is unsound")

// ErrConstrained is returned when compatibility constraints are present;
// the incremental witness checks do not search the constrained space.
var ErrConstrained = errors.New("online: compatibility constraints require the exact constrained solvers")

// Result is the outcome of an online procedure.
type Result struct {
	// Exists and Witness/Value answer QRD as solver.QRDExact would.
	Exists  bool
	Witness []relation.Tuple
	Value   float64
	// Seen counts the answers materialized before the procedure stopped.
	Seen int
	// Exhausted reports whether the full Q(D) was enumerated; false means
	// the procedure terminated early.
	Exhausted bool
	// Answers holds the full materialized Q(D) (in stream order) when
	// Exhausted: the stream already paid for it, so callers that cache
	// answer sets can keep it instead of re-evaluating.
	Answers []relation.Tuple
}

// Options tune the online procedures.
type Options struct {
	// CheckInterval is how many new answers arrive between witness checks
	// in QRD; 1 checks after every answer. Zero means the default of 1.
	CheckInterval int
	// CollectAnswers asks Diversify to retain the streamed tuples and
	// return them in Result.Answers when the stream exhausts, so callers
	// that cache answer sets can keep the pool the stream already paid
	// for. Off by default: the package exists to avoid materializing Q(D).
	// (QRD ignores the flag — it must pool answers anyway for its exact
	// fallback, so its Result.Answers is always set when Exhausted.)
	CollectAnswers bool
	// Pool, when HavePool is set, replays a previously captured arrival
	// order instead of evaluating the query: mutation-driven refreshes and
	// evaluation-driven streams then share one consumption path. The
	// evaluator is deterministic, so replaying the pool captured from an
	// exhausted stream at the same database generation is byte-identical
	// to re-streaming — minus the evaluation cost. The pool must hold
	// distinct tuples (a captured stream already deduplicates).
	Pool     []relation.Tuple
	HavePool bool
}

func (o Options) interval() int {
	if o.CheckInterval <= 0 {
		return 1
	}
	return o.CheckInterval
}

// supported rejects settings where streaming is unsound or unsupported.
func supported(in *core.Instance) error {
	if in.Obj.Kind == objective.Mono {
		return ErrMono
	}
	if in.Sigma.Len() > 0 {
		return ErrConstrained
	}
	return nil
}

// poolInstance wraps the streamed prefix as an instance whose Answers()
// are exactly the pool, so the pool can be handed to the offline solvers.
func poolInstance(in *core.Instance, pool []relation.Tuple) *core.Instance {
	shadow := &core.Instance{Query: in.Query, DB: in.DB, Obj: in.Obj, K: in.K, B: in.B}
	shadow.SetAnswers(pool)
	return shadow
}

// A feed delivers distinct answer tuples to yield in arrival order until
// yield declines or the source is exhausted, returning the error that cut
// the run short (nil on a clean finish, early stop included). The two
// sources — live query evaluation and a replayed pool — share every
// consumer this way: QRD's witness probing and Diversify's anytime swaps
// run identically whether tuples arrive from the evaluator or from a
// mutation-driven refresh replaying cached state.
type feed func(yield func(relation.Tuple) bool) error

// evalFeed streams the instance's query evaluation under ctx. Tuples are
// cloned out of the evaluator's binding array, so consumers may retain
// them.
func evalFeed(ctx context.Context, in *core.Instance) feed {
	return func(yield func(relation.Tuple) bool) error {
		ev := eval.New(in.Query, in.DB).WithContext(ctx)
		ev.Stream(func(t relation.Tuple) bool { return yield(t.Clone()) })
		if err := ev.Err(); err != nil {
			return err
		}
		// Small answer sets can finish streaming before the evaluator's
		// throttled poll ever fires; honour the cancellation regardless so
		// the contract does not depend on |Q(D)|.
		return ctx.Err()
	}
}

// replayFeed replays a captured pool in its recorded arrival order.
func replayFeed(ctx context.Context, pool []relation.Tuple) feed {
	return func(yield func(relation.Tuple) bool) error {
		poll := ctxpoll.New(ctx)
		for _, t := range pool {
			if poll.Stop() {
				return poll.Err()
			}
			if !yield(t) {
				return nil
			}
		}
		return ctx.Err()
	}
}

// source picks the feed for one call: the replayed pool when the caller
// supplied one, the live evaluation otherwise.
func source(ctx context.Context, in *core.Instance, opts Options) feed {
	if opts.HavePool {
		return replayFeed(ctx, opts.Pool)
	}
	return evalFeed(ctx, in)
}

// QRD decides whether a valid set for (Q, D, k, F, B) exists, stopping
// evaluation as soon as the streamed prefix of Q(D) contains one. Witness
// checks run a greedy probe on the pool every opts.CheckInterval answers;
// a greedy set reaching B is verified against F and returned immediately.
// If the stream ends without an early witness, the exact solver settles
// the verdict on the complete answer set, so QRD agrees with
// solver.QRDExact in every case. ctx cancels both the streaming evaluation
// and the closing exact search.
func QRD(ctx context.Context, in *core.Instance, opts Options) (Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := supported(in); err != nil {
		return Result{}, err
	}
	interval := opts.interval()

	var res Result
	var pool []relation.Tuple
	// The streamed prefix is interned into a growing (streaming) score
	// plane: relevance is computed once per arrival and pairwise distances
	// memoize across probes, so repeated greedy probes touch each pair at
	// most once over the whole stream. The closing exact search reuses the
	// same memo.
	splane := objective.NewPlane(in.Obj, nil, objective.PlaneOptions{Streaming: true})
	shadow := poolInstance(in, nil)
	sinceCheck := 0
	err := source(ctx, in, opts)(func(t relation.Tuple) bool {
		pool = append(pool, t)
		splane.Append(t)
		res.Seen++
		sinceCheck++
		if len(pool) < in.K || sinceCheck < interval {
			return true
		}
		sinceCheck = 0
		shadow.SetAnswers(pool)
		shadow.SetPlane(splane)
		probe, err := approx.GreedyContext(ctx, shadow)
		if err != nil {
			return false
		}
		if len(probe.Set) == in.K {
			// Verify directly against F: the greedy value is trusted only
			// after re-evaluation, keeping the early exit sound.
			if v := in.Obj.Eval(probe.Set, pool); v >= in.B {
				res.Exists = true
				res.Witness = probe.Set
				res.Value = v
				return false // stop the feed: early termination
			}
		}
		return true
	})
	if err != nil {
		return Result{Seen: res.Seen}, err
	}
	if res.Exists {
		return res, nil
	}

	// No early witness: the pool now holds all of Q(D); decide exactly,
	// reusing the streamed plane's interned scores and distance memo.
	res.Exhausted = true
	res.Answers = pool
	shadow.SetAnswers(pool)
	shadow.SetPlane(splane)
	exact, err := solver.QRDExactContext(ctx, shadow)
	if err != nil {
		return Result{Seen: res.Seen, Exhausted: true}, err
	}
	res.Exists = exact.Exists
	res.Witness = exact.Witness
	res.Value = exact.Value
	return res, nil
}

// Diversify maintains an anytime selection while streaming Q(D): each new
// answer joins the set while it has fewer than k members, and afterwards
// replaces the member whose exchange most improves F, if any improves it.
// The final set is a locally swap-optimal selection of the full answer
// stream — the online counterpart of approx.LocalSearchSwap. Seen always
// equals |Q(D)| (the stream is consumed fully); the point is that a valid
// selection was available throughout. ctx cancels the streaming evaluation.
func Diversify(ctx context.Context, in *core.Instance, opts Options) (Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := supported(in); err != nil {
		return Result{}, err
	}

	var res Result
	var set, pool []relation.Tuple
	// The anytime set is scored through a windowed cache of size O(k²):
	// relevance per member and member-pair distances are computed once on
	// arrival/commit, so each swap evaluation is pure float arithmetic
	// instead of re-scoring the set through the interfaces. Memory stays
	// O(k²) — the package's reason to exist is not materializing Q(D).
	w := newSwapScorer(in.Obj, in.K)
	err := source(ctx, in, opts)(func(t relation.Tuple) bool {
		res.Seen++
		if opts.CollectAnswers {
			pool = append(pool, t)
		}
		if len(set) < in.K {
			set = append(set, t)
			w.addMember(t)
			return true
		}
		w.setCandidate(t)
		bestIdx, bestVal := -1, w.eval(-1)
		for i := range set {
			if v := w.eval(i); v > bestVal {
				bestIdx, bestVal = i, v
			}
		}
		if bestIdx >= 0 {
			set[bestIdx] = t
			w.commitSwap(bestIdx)
		}
		return true
	})
	if err != nil {
		return Result{Seen: res.Seen}, err
	}
	res.Exhausted = true
	if opts.CollectAnswers {
		res.Answers = pool
	}
	if len(set) < in.K {
		return res, nil // fewer than k answers: no candidate set
	}
	res.Exists = true
	res.Witness = set
	res.Value = w.eval(-1)
	return res, nil
}

// swapScorer caches the relevance vector and pairwise distance matrix of
// the current anytime set plus one candidate, mirroring Objective.Eval's
// accumulation order exactly so its values agree with Eval to the last bit
// (for symmetric δdis, per the paper's contract). All state is O(k²)
// regardless of stream length.
type swapScorer struct {
	o       *objective.Objective
	members []relation.Tuple
	rel     []float64
	dis     [][]float64 // symmetric, zero diagonal, members × members

	cand    relation.Tuple
	candRel float64
	candDis []float64 // candidate ↔ each member
}

func newSwapScorer(o *objective.Objective, k int) *swapScorer {
	return &swapScorer{
		o:       o,
		members: make([]relation.Tuple, 0, k),
		rel:     make([]float64, 0, k),
		candDis: make([]float64, 0, k),
	}
}

// addMember appends a tuple during the fill phase (|set| < k).
func (w *swapScorer) addMember(t relation.Tuple) {
	row := make([]float64, 0, cap(w.rel))
	for i, m := range w.members {
		d := w.o.Dis.Dis(m, t)
		row = append(row, d)
		w.dis[i] = append(w.dis[i], d)
	}
	row = append(row, 0)
	w.dis = append(w.dis, row)
	w.members = append(w.members, t)
	w.rel = append(w.rel, w.o.Rel.Rel(t))
	w.candDis = append(w.candDis, 0)
}

// setCandidate scores a newly arrived tuple against every member.
func (w *swapScorer) setCandidate(t relation.Tuple) {
	w.cand = t
	w.candRel = w.o.Rel.Rel(t)
	for i, m := range w.members {
		w.candDis[i] = w.o.Dis.Dis(m, t)
	}
}

// eval computes F of the current set with the member at position replace
// substituted by the candidate (replace < 0 evaluates the set as-is),
// mirroring Eval's loop order.
func (w *swapScorer) eval(replace int) float64 {
	k := len(w.members)
	relAt := func(i int) float64 {
		if i == replace {
			return w.candRel
		}
		return w.rel[i]
	}
	disAt := func(a, b int) float64 {
		if a == replace {
			return w.candDis[b]
		}
		if b == replace {
			return w.candDis[a]
		}
		return w.dis[a][b]
	}
	switch w.o.Kind {
	case objective.MaxSum:
		if k == 0 {
			return 0
		}
		relSum := 0.0
		for i := 0; i < k; i++ {
			relSum += relAt(i)
		}
		disSum := 0.0
		for i := 0; i < k; i++ {
			for j := i + 1; j < k; j++ {
				disSum += disAt(i, j)
			}
		}
		return float64(k-1)*(1-w.o.Lambda)*relSum + w.o.Lambda*2*disSum
	case objective.MaxMin:
		if k == 0 {
			return 0
		}
		minRel := math.Inf(1)
		for i := 0; i < k; i++ {
			if r := relAt(i); r < minRel {
				minRel = r
			}
		}
		minDis := 0.0
		if k >= 2 {
			minDis = math.Inf(1)
			for i := 0; i < k; i++ {
				for j := i + 1; j < k; j++ {
					if d := disAt(i, j); d < minDis {
						minDis = d
					}
				}
			}
		}
		return (1-w.o.Lambda)*minRel + w.o.Lambda*minDis
	default:
		// Mono is rejected by supported(); unreachable.
		return 0
	}
}

// commitSwap installs the candidate as member i.
func (w *swapScorer) commitSwap(i int) {
	w.members[i] = w.cand
	w.rel[i] = w.candRel
	for j := range w.members {
		if j != i {
			w.dis[i][j] = w.candDis[j]
			w.dis[j][i] = w.candDis[j]
		}
	}
	w.dis[i][i] = 0
	w.candDis[i] = 0
	w.cand = nil
}
