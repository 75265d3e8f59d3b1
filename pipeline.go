package diversification

import (
	"context"
	"errors"
	"fmt"
	"math/big"
	"strings"
	"time"

	"repro/internal/approx"
	"repro/internal/compat"
	"repro/internal/core"
	"repro/internal/objective"
	"repro/internal/online"
	"repro/internal/relation"
	"repro/internal/solver"
)

// Stats reports the work one solve performed, normalized across solver
// families: the exact branch-and-bound fields (Nodes/Leaves/Pruned/Frames/
// Warm), the heuristics' candidate-evaluation count (Steps) and the online
// procedures' stream progress (Seen/Exhausted). Fields that do not apply to
// the route taken are zero.
type Stats struct {
	Nodes     int  `json:"nodes,omitempty"`     // search-tree nodes visited
	Leaves    int  `json:"leaves,omitempty"`    // complete candidate sets evaluated
	Pruned    int  `json:"pruned,omitempty"`    // subtrees cut by the admissible bound
	Answers   int  `json:"answers,omitempty"`   // |Q(D)| the solver ran over
	Explored  bool `json:"explored,omitempty"`  // the search ran (vs a shortcut)
	Frames    int  `json:"frames,omitempty"`    // search frames (0: one worker walked the whole tree)
	Warm      bool `json:"warm,omitempty"`      // bound warm-started from a heuristic
	Steps     int  `json:"steps,omitempty"`     // heuristic candidate evaluations
	Seen      int  `json:"seen,omitempty"`      // answers streamed before stopping
	Exhausted bool `json:"exhausted,omitempty"` // the online stream saw all of Q(D)
}

// searchStats lowers the internal exact-search statistics into the public
// form, field for field.
func searchStats(s solver.Stats) Stats {
	return Stats{
		Nodes:    s.Nodes,
		Leaves:   s.Leaves,
		Pruned:   s.Pruned,
		Answers:  s.Answers,
		Explored: s.Explored,
		Frames:   s.Frames,
		Warm:     s.Warm,
	}
}

// ErrNoCandidate is the shared "no candidate set" failure of the selection
// methods: fewer than k answers, or constraints unsatisfiable. Serving
// layers map it to an unprocessable-request status rather than a server
// failure.
var ErrNoCandidate = errors.New("diversification: no candidate set (too few answers or unsatisfiable constraints)")

// Response is the unified outcome of a Request: which problem ran, which
// solver route answered it, the problem's answer field(s), the solver's
// work statistics, how the snapshot was brought up to date, and timing.
// Only the answer field matching the Problem is set — Selection for
// diversify, Exists for decide, Count for count, InTopR for in-top-r,
// Rank for rank. The boolean answers are pointers so the wire
// distinguishes "the answer is false" (field present) from "this problem
// carries no such answer" (field absent).
type Response struct {
	Problem ProblemKind `json:"problem"`
	// Route is the solver route that actually produced the answer (the
	// plan's primary route, or its recorded fallback when the primary
	// refused the instance).
	Route string `json:"route"`

	Selection *Selection `json:"selection,omitempty"`
	Exists    *bool      `json:"exists,omitempty"`
	InTopR    *bool      `json:"in_top_r,omitempty"`
	Count     *big.Int   `json:"count,omitempty"`
	Rank      int        `json:"rank,omitempty"`

	// Degraded marks the answer as approximate: the exact search hit its
	// soft deadline, and the greedy answer it warm-started from shipped
	// instead. A Degraded selection is a valid candidate set with the
	// heuristic's guarantees, not the optimum.
	Degraded bool `json:"degraded,omitempty"`
	// DegradedFrom names what was abandoned, set only together with
	// Degraded: "exact" for the soft-deadline abort, or the shards a
	// coordinator's merge went without.
	DegradedFrom string `json:"degraded_from,omitempty"`

	// Cached marks a response served by the Service result cache — a hit
	// at the same (statement, request, generation) key, or a coalesced
	// twin of a concurrent identical request — rather than a solve
	// executed for this call. The answer fields are byte-identical to what
	// the solve would have produced: the key embeds the database
	// generation, so a hit is never stale.
	Cached bool `json:"cached,omitempty"`

	Stats Stats `json:"stats"`
	// Refresh reports how the answer-set snapshot was brought up to date
	// for this request ("warm", "delta" or "rebuild"); zero for streaming
	// routes that never materialize one.
	Refresh RefreshInfo `json:"refresh"`
	// Generation is the database generation the answer is paired with.
	Generation uint64 `json:"generation,omitempty"`
	// Elapsed is the wall-clock time of plan + execute.
	Elapsed time.Duration `json:"elapsed_ns,omitempty"`
	// Explain is the plan's human-readable account of what it chose,
	// populated when the Request opted in (Request.Explain).
	Explain string `json:"explain,omitempty"`
}

// Decided returns the decide answer, false when absent.
func (r *Response) Decided() bool { return r.Exists != nil && *r.Exists }

// TopR returns the in-top-r answer, false when absent.
func (r *Response) TopR() bool { return r.InTopR != nil && *r.InTopR }

// Plan is a compiled Request: the per-request settings merged and
// validated, the constraint set compiled, the candidate set checked, the
// solver route chosen, and — for routes that run over the materialized
// answer set — the snapshot and score plane resolved and pinned. Explain
// reports every one of those choices; Execute runs the solvers against
// them.
//
// A materialized-route Plan pins the snapshot it resolved: executing it
// after further database mutations answers against the plan-time
// generation. The streaming routes (online diversify, cold-cache decide)
// have no snapshot to pin — they evaluate the live database at Execute
// time and report the generation they actually streamed. A Plan is not
// safe for concurrent use.
type Plan struct {
	p   *Prepared
	req Request

	s     settings
	sigma *compat.Set
	u     []relation.Tuple // checked candidate set (in-top-r, rank)

	route    string
	fallback string // secondary route when the primary can refuse, "" otherwise

	// snap/plane/refresh/gen are resolved at plan time for materialized
	// routes; streaming routes leave snap nil and fill refresh/gen only if
	// execution falls back to a materialized solver.
	snap    *snapshot
	plane   *objective.Plane
	refresh RefreshInfo
	gen     uint64
	// Explain's plane line: the shared plane's footprint when the plan
	// attached it (its regime and size are fixed at build), or why no
	// shared plane serves the request.
	planeBytes int64
	noPlane    string
}

// Plan compiles a Request against the handle without executing it: the
// same resolution Do performs, exposed for observability — inspect the
// outcome with Explain, run it with Execute.
func (p *Prepared) Plan(ctx context.Context, req Request) (*Plan, error) {
	p.eng.mu.RLock()
	defer p.eng.mu.RUnlock()
	return p.plan(ctx, req)
}

// Do answers a Request through the unified pipeline: plan (merge + validate
// settings, compile σ, resolve snapshot and plane, choose the route), then
// execute (dispatch the solvers, assemble the Response). Every public solve
// method is a shim over Do, so this is the one audited execution path.
func (p *Prepared) Do(ctx context.Context, req Request) (*Response, error) {
	start := time.Now()
	p.eng.mu.RLock()
	defer p.eng.mu.RUnlock()
	pl, err := p.plan(ctx, req)
	if err != nil {
		return nil, err
	}
	resp, err := pl.execute(ctx)
	if err != nil {
		return nil, err
	}
	resp.Elapsed = time.Since(start)
	return resp, nil
}

// Execute runs the plan's solvers and assembles the Response. It may be
// called more than once; each call re-runs the solve against the pinned
// snapshot.
func (pl *Plan) Execute(ctx context.Context) (*Response, error) {
	start := time.Now()
	pl.p.eng.mu.RLock()
	defer pl.p.eng.mu.RUnlock()
	resp, err := pl.execute(ctx)
	if err != nil {
		return nil, err
	}
	resp.Elapsed = time.Since(start)
	return resp, nil
}

// Route returns the primary solver route the plan chose.
func (pl *Plan) Route() string { return pl.route }

// plan resolves a Request into a Plan. Callers hold the engine's read
// lock. The resolution order mirrors the pre-pipeline methods exactly:
// settings merge + validation, problem-specific argument checks, σ
// compilation, then snapshot + plane acquisition for materialized routes.
func (p *Prepared) plan(ctx context.Context, req Request) (*Plan, error) {
	if !req.Problem.valid() {
		return nil, argErrorf("problem", "unknown problem %s", req.Problem)
	}
	s, err := p.call(req.callOptions())
	if err != nil {
		return nil, err
	}
	pl := &Plan{p: p, req: req, s: s}

	// Problem-specific argument checks, before any evaluation work.
	switch req.Problem {
	case ProblemInTopR:
		if s.rank < 1 {
			return nil, argErrorf("rank", "must be at least 1 for in-top-r (set it with WithRank), got %d", s.rank)
		}
		u, err := p.checkSet(req.Set, s.k)
		if err != nil {
			return nil, err
		}
		pl.u = u
	case ProblemRank:
		pl.s.rank = int(^uint(0) >> 1) // count all better sets
		u, err := p.checkSet(req.Set, s.k)
		if err != nil {
			return nil, err
		}
		pl.u = u
	}

	sigma, err := p.sigmaFor(s)
	if err != nil {
		return nil, err
	}
	pl.sigma = sigma

	// Route selection per the paper's complexity map, recorded so Explain
	// can say why. materialize mirrors which pre-pipeline paths attached
	// the cached answer set: everything except the streaming online routes.
	materialize := true
	switch req.Problem {
	case ProblemDiversify:
		switch s.algorithm {
		case Auto, Exact:
			pl.route = "exact"
		case Greedy, LocalSearch, Online:
			if sigma.Len() > 0 {
				return nil, argErrorf("algorithm", "%s does not support constraints", s.algorithm)
			}
			if s.algorithm == Online && s.objective == Mono {
				return nil, argErrorf("algorithm", "online does not support the mono objective (its value depends on all of Q(D))")
			}
			pl.route = s.algorithm.String()
			materialize = s.algorithm != Online
		default:
			return nil, argErrorf("algorithm", "unknown algorithm %s", s.algorithm)
		}
	case ProblemDecide:
		switch {
		case s.objective == Mono && len(s.constraints) == 0:
			// The paper's PTIME algorithm when it applies (Theorem 5.4).
			pl.route = "mono-ptime"
			pl.fallback = "exact"
		case p.current() == nil && !p.refreshableDelta():
			// With a cold cache (and no journal delta that would warm it
			// cheaply), stream the evaluation and stop at the first valid
			// set — the paper's early termination (Section 1).
			pl.route = "online-stream"
			pl.fallback = "exact"
			materialize = false
		default:
			pl.route = "exact"
		}
	case ProblemCount:
		pl.route = "exact"
	case ProblemInTopR:
		if s.objective == Mono && sigma.Len() == 0 {
			pl.route = "mono-ptime"
			pl.fallback = "exact"
		} else {
			pl.route = "exact"
		}
	case ProblemRank:
		pl.route = "exact"
	}

	if materialize {
		if err := pl.materialize(ctx); err != nil {
			return nil, err
		}
	} else {
		pl.noPlane = "streaming (the online procedures intern their own plane)"
	}
	if pl.u != nil {
		if err := pl.checkCandidate(); err != nil {
			return nil, err
		}
	}
	return pl, nil
}

// checkCandidate refuses an in-top-r or rank set that is not a candidate
// set of the pinned snapshot — a repeated row, a row outside Q(D), or a set
// violating the constraints — as an ArgError on the "set" field.
func (pl *Plan) checkCandidate() error {
	seen := make(map[int]bool, len(pl.u))
	for i, t := range pl.u {
		pos, ok := relation.Search(pl.snap.answers, t)
		if !ok {
			return argErrorf("set", "candidate row %d is not an answer of the query", i)
		}
		if seen[pos] {
			return argErrorf("set", "candidate row %d repeats an earlier row", i)
		}
		seen[pos] = true
	}
	if !pl.newInstance().SatisfiesConstraints(pl.u) {
		return argErrorf("set", "candidate set violates the constraints")
	}
	return nil
}

// degradeBudgetFraction sets the soft deadline of an exact diversify: the
// search may use this share of the remaining time, leaving headroom to ship
// the greedy answer instead of timing out empty-handed.
const degradeBudgetFraction = 0.8

// materialize acquires the snapshot for the current generation and attaches
// the handle-cached score plane when this request's scoring bindings are
// the prepared ones; a per-request WithRelevance/WithDistance gets a fresh
// per-instance plane lazily instead, so it never observes scores baked from
// the wrong functions. Also used by execute when a streaming route's solver
// refuses the instance and the plan falls back to a materialized one.
func (pl *Plan) materialize(ctx context.Context) error {
	snap, info, err := pl.p.snapshotAt(ctx)
	if err != nil {
		return err
	}
	pl.snap = snap
	pl.refresh = info
	pl.gen = snap.gen
	if pl.s.dirty != 0 {
		pl.noPlane = "per-request (a scoring override bypasses the shared plane)"
		return nil
	}
	plane, err := pl.p.planeFor(ctx, snap)
	if err != nil {
		return err
	}
	pl.plane = plane
	pl.planeBytes = plane.MemoryFootprint()
	return nil
}

// planeRegime names how a plane serves distances: which of the three
// stores the planner resolved for it.
func planeRegime(p *objective.Plane) string {
	switch p.Regime() {
	case objective.RegimeCategory:
		return "category lists"
	case objective.RegimeMaterialized:
		return "materialized matrix"
	default:
		return "direct evaluation"
	}
}

// formatBytes renders a byte count with a binary-prefix unit, one decimal
// place (e.g. "1.2 MiB"), for the plane footprint Explain reports.
func formatBytes(n int64) string {
	switch {
	case n >= 1<<30:
		return fmt.Sprintf("%.1f GiB", float64(n)/(1<<30))
	case n >= 1<<20:
		return fmt.Sprintf("%.1f MiB", float64(n)/(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%.1f KiB", float64(n)/(1<<10))
	default:
		return fmt.Sprintf("%d B", n)
	}
}

// newInstance assembles the solver instance from the plan's resolved
// pieces. Nothing is re-resolved here: settings, σ, snapshot and plane all
// come from plan time.
func (pl *Plan) newInstance() *core.Instance {
	in := &core.Instance{
		Query: pl.p.q,
		DB:    pl.p.eng.db,
		Obj:   pl.s.objectiveOver(pl.p.schema),
		K:     pl.s.k,
		B:     pl.s.bound,
		R:     pl.s.rank,
		Sigma: pl.sigma,
	}
	in.Parallelism = pl.s.workers()
	if pl.snap != nil {
		in.SetAnswers(pl.snap.answers)
		if pl.plane != nil {
			in.SetPlane(pl.plane)
		}
	}
	if pl.u != nil {
		in.U = pl.u
	}
	return in
}

// execute dispatches the plan to its solvers and assembles the Response.
// Callers hold the engine's read lock.
func (pl *Plan) execute(ctx context.Context) (*Response, error) {
	resp := &Response{
		Problem:    pl.req.Problem,
		Route:      pl.route,
		Refresh:    pl.refresh,
		Generation: pl.gen,
	}
	var err error
	switch pl.req.Problem {
	case ProblemDiversify:
		err = pl.execDiversify(ctx, resp)
	case ProblemDecide:
		err = pl.execDecide(ctx, resp)
	case ProblemCount:
		err = pl.execCount(ctx, resp)
	case ProblemInTopR:
		err = pl.execInTopR(ctx, resp)
	case ProblemRank:
		err = pl.execRank(ctx, resp)
	default:
		err = argErrorf("problem", "unknown problem %s", pl.req.Problem)
	}
	if err != nil {
		return nil, err
	}
	if pl.req.Explain {
		resp.Explain = pl.Explain()
	}
	return resp, nil
}

func (pl *Plan) execDiversify(ctx context.Context, resp *Response) error {
	p := pl.p
	in := pl.newInstance()
	switch pl.route {
	case "exact":
		// With a deadline, run the search under a soft deadline at
		// degradeBudgetFraction of the remaining time: if it cannot finish,
		// the greedy answer it warm-started from ships as a flagged
		// approximate answer instead of a 504 with nothing.
		softCtx := ctx
		if deadline, has := ctx.Deadline(); has && pl.sigma.Len() == 0 {
			var cancel context.CancelFunc
			softCtx, cancel = context.WithTimeout(ctx, time.Duration(float64(time.Until(deadline))*degradeBudgetFraction))
			defer cancel()
		}
		res, err := solver.QRDBestContext(softCtx, in)
		if err != nil {
			if g := res.Incumbent; g != nil && softCtx.Err() != nil && ctx.Err() == nil {
				resp.Route = "greedy"
				resp.Degraded = true
				resp.DegradedFrom = "exact"
				resp.Stats = Stats{Steps: g.Steps, Answers: len(pl.snap.answers)}
				resp.Selection = newSelection(p.schema, g.Set, g.Value, "greedy")
				return nil
			}
			return err
		}
		resp.Stats = searchStats(res.Stats)
		if !res.Exists {
			return ErrNoCandidate
		}
		resp.Selection = newSelection(p.schema, res.Witness, res.Value, "exact")
	case "greedy":
		res, err := approx.GreedyContext(ctx, in)
		if err != nil {
			return err
		}
		resp.Stats = Stats{Steps: res.Steps, Answers: len(pl.snap.answers)}
		if len(res.Set) == 0 {
			return ErrNoCandidate
		}
		resp.Selection = newSelection(p.schema, res.Set, res.Value, "greedy")
	case "local-search":
		seed, err := approx.GreedyContext(ctx, in)
		if err != nil {
			return err
		}
		if len(seed.Set) == 0 {
			return ErrNoCandidate
		}
		res, err := approx.LocalSearchSwapContext(ctx, in, seed.Set)
		if err != nil {
			return err
		}
		resp.Stats = Stats{Steps: seed.Steps + res.Steps, Answers: len(pl.snap.answers)}
		resp.Selection = newSelection(p.schema, res.Set, res.Value, "local-search")
	case "online":
		gen := p.eng.db.Generation()
		// Replay a captured stream-order pool when one exists for this
		// generation: the (deterministic) evaluator would produce the same
		// arrival order, so the anytime selection is byte-identical and
		// the query evaluation is skipped. Collect the streamed pool
		// whenever none is captured yet: online Diversify always consumes
		// the full stream, so the materialized Q(D) is free to keep.
		pool := p.pooled()
		collect := pool == nil
		res, err := online.Diversify(ctx, in, online.Options{CollectAnswers: collect, Pool: pool, HavePool: pool != nil})
		if err != nil {
			return err
		}
		if collect && res.Exhausted {
			p.storePool(res.Answers, gen)
		}
		resp.Stats = Stats{Seen: res.Seen, Exhausted: res.Exhausted}
		resp.Generation = gen
		if !res.Exists {
			return ErrNoCandidate
		}
		resp.Selection = newSelection(p.schema, res.Witness, res.Value, "online")
	default:
		return fmt.Errorf("diversification: unknown route %q", pl.route)
	}
	return nil
}

func (pl *Plan) execDecide(ctx context.Context, resp *Response) error {
	p := pl.p
	switch pl.route {
	case "mono-ptime":
		res, err := solver.QRDMonoPTime(pl.newInstance())
		if err == nil {
			resp.Exists = &res.Exists
			resp.Stats = searchStats(res.Stats)
			return nil
		}
		// The shortcut refused the instance: fall back to exact search on
		// the already-materialized snapshot, as the pre-pipeline path did.
	case "online-stream":
		gen := p.eng.db.Generation()
		res, err := online.QRD(ctx, pl.newInstance(), online.Options{})
		if err == nil {
			if res.Exhausted {
				// The stream materialized all of Q(D) anyway; keep it so
				// the next request hits the warm-cache exact path instead
				// of re-evaluating the query.
				p.storePool(res.Answers, gen)
			}
			resp.Exists = &res.Exists
			resp.Stats = Stats{Seen: res.Seen, Exhausted: res.Exhausted}
			resp.Generation = gen
			return nil
		}
		// Only "online is inapplicable here" falls through to the exact
		// solver; cancellation and any other genuine failure surfaces.
		if !errors.Is(err, online.ErrMono) && !errors.Is(err, online.ErrConstrained) {
			return err
		}
		if err := pl.materialize(ctx); err != nil {
			return err
		}
		resp.Refresh = pl.refresh
		resp.Generation = pl.gen
	case "exact":
		// Fall through to the shared exact solve below.
	default:
		return fmt.Errorf("diversification: unknown route %q", pl.route)
	}
	resp.Route = "exact"
	res, err := solver.QRDExactContext(ctx, pl.newInstance())
	if err != nil {
		return err
	}
	resp.Exists = &res.Exists
	resp.Stats = searchStats(res.Stats)
	return nil
}

func (pl *Plan) execCount(ctx context.Context, resp *Response) error {
	res, err := solver.RDCExactContext(ctx, pl.newInstance())
	if err != nil {
		return err
	}
	resp.Count = res.Count
	resp.Stats = searchStats(res.Stats)
	return nil
}

func (pl *Plan) execInTopR(ctx context.Context, resp *Response) error {
	if pl.route == "mono-ptime" {
		if res, err := solver.DRPMonoPTime(pl.newInstance()); err == nil {
			resp.InTopR = &res.InTopR
			resp.Stats = searchStats(res.Stats)
			return nil
		}
		// The shortcut refused the instance: exact search decides.
	}
	resp.Route = "exact"
	res, err := solver.DRPExactContext(ctx, pl.newInstance())
	if err != nil {
		return err
	}
	resp.InTopR = &res.InTopR
	resp.Stats = searchStats(res.Stats)
	return nil
}

func (pl *Plan) execRank(ctx context.Context, resp *Response) error {
	res, err := solver.DRPExactContext(ctx, pl.newInstance())
	if err != nil {
		return err
	}
	resp.Rank = res.Better + 1
	resp.Stats = searchStats(res.Stats)
	return nil
}

// Explain reports, in a stable human-readable form, everything the plan
// resolved: the problem and its parameters, the query's language class,
// the route (and recorded fallback), the constraint count, how the
// snapshot was acquired and which plane regime serves scores. The output
// is for operators and logs; fields, not format, are the stable contract.
func (pl *Plan) Explain() string {
	var b strings.Builder
	fmt.Fprintf(&b, "problem:   %s\n", pl.req.Problem)
	fmt.Fprintf(&b, "query:     %s\n", pl.p.src)
	fmt.Fprintf(&b, "language:  %s\n", pl.p.lang)
	fmt.Fprintf(&b, "objective: %s (λ=%g, k=%d)\n", pl.s.objective, pl.s.lambda, pl.s.k)
	switch pl.req.Problem {
	case ProblemDecide, ProblemCount:
		fmt.Fprintf(&b, "bound:     F >= %g\n", pl.s.bound)
	case ProblemInTopR:
		fmt.Fprintf(&b, "rank:      r = %d, |set| = %d\n", pl.s.rank, len(pl.u))
	case ProblemRank:
		fmt.Fprintf(&b, "rank:      exact, |set| = %d\n", len(pl.u))
	}
	if pl.fallback != "" {
		fmt.Fprintf(&b, "route:     %s (fallback: %s)\n", pl.route, pl.fallback)
	} else {
		fmt.Fprintf(&b, "route:     %s\n", pl.route)
	}
	fmt.Fprintf(&b, "sigma:     %d constraints\n", pl.sigma.Len())
	if pl.snap != nil {
		fmt.Fprintf(&b, "snapshot:  generation %d, %d answers, refresh %s\n",
			pl.snap.gen, len(pl.snap.answers), pl.refresh.Mode)
	} else {
		fmt.Fprintf(&b, "snapshot:  none (streaming route)\n")
	}
	if pl.plane != nil {
		fmt.Fprintf(&b, "plane:     shared, %s, ~%s (%d ids)\n",
			planeRegime(pl.plane), formatBytes(pl.planeBytes), pl.plane.Len())
	} else {
		fmt.Fprintf(&b, "plane:     %s\n", pl.noPlane)
	}
	fmt.Fprintf(&b, "workers:   %d\n", pl.s.workers())
	return b.String()
}
