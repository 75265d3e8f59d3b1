package diversification

import (
	"context"
	"math/big"
	"slices"
	"sync/atomic"

	"repro/internal/compat"
	"repro/internal/objective"
	"repro/internal/query"
	"repro/internal/query/eval"
	"repro/internal/query/parse"
	"repro/internal/relation"
)

// Prepared is a compiled diversification query: the query text has been
// parsed, classified and validated against the engine's schema, the
// objective and constraints bound, and the materialized answer set Q(D) is
// cached across calls. When the database mutates, the cache is brought up
// to date incrementally where possible — the relation change journal yields
// the answer-set delta, which is merged into the sorted answers, and the
// score plane is rebased instead of rebuilt — falling back to a full
// rebuild when the journal was compacted or the query is not
// delta-maintainable.
// Build work happens once in Prepare; the per-call cost of
// Diversify/Decide/Count/InTopR/Rank is the solver alone.
//
// Per-call options override the Prepare-time bindings for that call only:
//
//	p, _ := e.Prepare(src, diversification.WithK(3))
//	sel, _ := p.Diversify(ctx)                             // k = 3
//	sel, _ = p.Diversify(ctx, diversification.WithK(5))    // k = 5, once
//
// A Prepared handle is safe for concurrent use. Snapshot acquisition holds
// the engine's read lock for the generation check and any build, so a
// snapshot pairs answers and plane from one generation; a solve on the
// pinned snapshot holds no lock, so mutations never wait for it. The
// streaming routes (online diversify, the cold-cache decide) read the live
// relations and hold the read lock for their whole run.
type Prepared struct {
	eng *Engine
	// id is unique per handle, from a process-wide counter: the Service
	// result cache keys on it so a re-registered statement (same name, new
	// bindings) can never serve the old handle's cached responses.
	id     uint64
	src    string
	q      *query.Query
	schema relation.Schema
	lang   query.Language
	base   settings
	sigma  *compat.Set // compiled Prepare-time constraints

	// deltaOK records, once at Prepare time, whether the query's answer
	// set can be maintained incrementally from the change journal
	// (positive and range-safe; see eval.DeltaCapable).
	deltaOK bool

	// snap is the latest published snapshot. A reader loads it without a
	// lock; a snapshot never changes once published, so answers and plane
	// always come from one generation.
	snap atomic.Pointer[snapshot]
	// gate admits one builder of snapshots at a time (a semaphore of one
	// slot), so each generation is built once and concurrent stale readers
	// wait and reuse what was published. It is taken only under the engine
	// read lock, and no engine lock is taken under it: a writer queued on
	// the engine lock would otherwise deadlock against the gate's waiters.
	// Building runs the user's scoring functions under the gate.
	gate chan struct{}
}

// snapshot is one consistent view of the state derived from the database at
// a single generation: the canonically sorted answer set (its own index:
// relation.Search finds an answer), the interned score plane and the
// stream-order pool an exhausted online evaluation produced. Snapshots are
// immutable: attaching a plane or a pool publishes a new snapshot of the
// same generation, so in-flight solves keep a coherent view.
type snapshot struct {
	gen     uint64
	answers []relation.Tuple

	// plane bakes in the Prepare-time δrel/δdis bindings; calls overriding
	// them per-call bypass it.
	plane *objective.Plane
	// streamPool is Q(D) in evaluation-stream order, kept when an online
	// procedure exhausted the stream at this generation: replaying it is
	// byte-identical to re-streaming the (deterministic) evaluator and
	// skips the query evaluation entirely.
	streamPool []relation.Tuple
}

// nextPreparedID issues the process-wide unique handle ids the Service
// result cache keys on.
var nextPreparedID atomic.Uint64

// Prepare compiles a query for repeated solving: it parses src, validates
// it against the engine's schema, classifies its language, applies the
// options and compiles any compatibility constraints. The returned handle
// performs none of that work again.
func (e *Engine) Prepare(src string, opts ...Option) (*Prepared, error) {
	q, err := parse.Query(src)
	if err != nil {
		return nil, err
	}
	e.mu.RLock()
	err = eval.Validate(q, e.db)
	e.mu.RUnlock()
	if err != nil {
		return nil, err
	}
	s := defaultSettings()
	for _, o := range opts {
		o(&s)
	}
	if err := s.validate(); err != nil {
		return nil, err
	}
	schema := relation.NewSchema(q.Name, q.Head...)
	sigma, err := compileConstraints(s.constraints, schema)
	if err != nil {
		return nil, err
	}
	return &Prepared{
		eng:     e,
		id:      nextPreparedID.Add(1),
		src:     src,
		q:       q,
		schema:  schema,
		lang:    q.Classify(),
		base:    s,
		sigma:   sigma,
		deltaOK: eval.DeltaCapable(q),
		gate:    make(chan struct{}, 1),
	}, nil
}

// MustPrepare is Prepare that panics on error.
func (e *Engine) MustPrepare(src string, opts ...Option) *Prepared {
	p, err := e.Prepare(src, opts...)
	if err != nil {
		panic(err)
	}
	return p
}

// Source returns the query text the handle was prepared from.
func (p *Prepared) Source() string { return p.src }

// Language reports the minimal language class of the prepared query:
// "identity", "CQ", "UCQ", "∃FO+" or "FO".
func (p *Prepared) Language() string { return p.lang.String() }

// compileConstraints parses and schema-validates Cm constraint sources.
// Every failure is the caller's: an ArgError on the "constraints" field.
func compileConstraints(srcs []string, schema relation.Schema) (*compat.Set, error) {
	if len(srcs) == 0 {
		return nil, nil
	}
	set := compat.NewSet(8)
	for i, src := range srcs {
		c, err := compat.Parse(src)
		if err == nil {
			err = c.Validate(schema)
		}
		if err == nil {
			err = set.Add(c)
		}
		if err != nil {
			return nil, argErrorf("constraints", "constraint %d: %v", i, err)
		}
	}
	return set, nil
}

// call merges per-call options over the Prepare-time settings and
// re-validates the result. The dirty mask is cleared first so it records
// exactly the scoring bindings this call overrides.
func (p *Prepared) call(opts []Option) (settings, error) {
	s := p.base
	s.dirty = 0
	for _, o := range opts {
		o(&s)
	}
	if err := s.validate(); err != nil {
		return s, err
	}
	return s, nil
}

// sigmaFor returns the compiled constraint set for a call: the Prepare-time
// compilation when the constraints are unchanged, a fresh compilation when
// a per-call WithConstraints replaced them.
func (p *Prepared) sigmaFor(s settings) (*compat.Set, error) {
	if slices.Equal(s.constraints, p.base.constraints) {
		return p.sigma, nil
	}
	return compileConstraints(s.constraints, p.schema)
}

// RefreshInfo reports how a snapshot was brought up to date. It marshals
// to JSON with stable field names for the wire protocol.
type RefreshInfo struct {
	// Mode is "warm" (nothing to do), "delta" (journal applied
	// incrementally) or "rebuild" (full re-evaluation).
	Mode string `json:"mode,omitempty"`
	// Added and Removed count the answer tuples the delta touched (zero
	// for warm and rebuild modes).
	Added   int `json:"added,omitempty"`
	Removed int `json:"removed,omitempty"`
	// Rechecked counts the cached answers a delta's deletes made suspect
	// and re-verified: those agreeing with a deleted tuple on the head
	// values its atom fixes, or every answer when that atom fixes none.
	Rechecked int `json:"rechecked,omitempty"`
	// Answers is |Q(D)| after the refresh.
	Answers int `json:"answers,omitempty"`
}

// Refresh brings the handle's cached state up to date with the database:
// if the change journal still covers the handle's watermark and the query
// is delta-maintainable, the answer-set delta is applied and the score
// plane rebased in place of a rebuild; otherwise the answer set is
// re-evaluated from scratch. The score plane for the Prepare-time bindings
// is (re)built and materialized eagerly, so the next solve pays for the
// solver alone. Refresh is also implicit: every solve lazily revalidates
// through the same path — calling Refresh explicitly just moves the cost to
// a time of the caller's choosing and reports what happened. Each
// generation is built once: callers that arrive while another builds it
// wait for that build (or for their ctx) and report "warm". Online solves
// never read the shared plane (they stream through their own), so those
// handles skip its build.
func (p *Prepared) Refresh(ctx context.Context) (RefreshInfo, error) {
	_, info, err := p.acquire(ctx, p.base.algorithm != Online)
	return info, err
}

// current returns the published snapshot if it matches the database
// generation, else nil. Callers hold the engine read lock.
func (p *Prepared) current() *snapshot {
	if snap := p.snap.Load(); snap != nil && snap.gen == p.eng.db.Generation() {
		return snap
	}
	return nil
}

// acquire returns a snapshot for the current database generation, carrying
// the shared score plane when withPlane is set. It holds the engine read
// lock for the generation check and any build, and releases it before the
// caller solves on the snapshot, which needs nothing from the live
// database. A published snapshot that serves is returned without the gate.
// Otherwise the caller takes the gate (or gives up with ctx), checks again,
// and builds what is missing: the answers by a journal delta or a rebuild,
// then the plane, publishing each. A caller that finds the work done
// reports "warm". The caller must not hold the read lock: a second RLock
// deadlocks once a writer queues between the two.
func (p *Prepared) acquire(ctx context.Context, withPlane bool) (*snapshot, RefreshInfo, error) {
	p.eng.mu.RLock()
	defer p.eng.mu.RUnlock()
	gen := p.eng.db.Generation()
	snap := p.snap.Load()
	if snap == nil || snap.gen != gen || withPlane && snap.plane == nil {
		select {
		case p.gate <- struct{}{}:
		case <-ctx.Done():
			return nil, RefreshInfo{}, ctx.Err()
		}
		defer func() { <-p.gate }()
		snap = p.snap.Load()
	}
	info := RefreshInfo{Mode: "warm"}
	if snap == nil || snap.gen != gen {
		var err error
		if snap, info, err = p.buildSnapshot(ctx, snap, gen); err != nil {
			return nil, info, err
		}
		p.snap.Store(snap)
	}
	if withPlane && snap.plane == nil {
		pl, err := p.newPlane(ctx, snap.answers)
		if err != nil {
			return nil, info, err
		}
		snap = &snapshot{gen: gen, answers: snap.answers, plane: pl, streamPool: snap.streamPool}
		p.snap.Store(snap)
	}
	info.Answers = len(snap.answers)
	return snap, info, nil
}

// buildSnapshot computes the derived state for generation gen, applying
// the journal delta to old when the incremental path applies and falling
// back to full re-evaluation otherwise.
func (p *Prepared) buildSnapshot(ctx context.Context, old *snapshot, gen uint64) (*snapshot, RefreshInfo, error) {
	if old != nil && p.deltaOK {
		if changes, ok := p.eng.db.ChangesSince(old.gen); ok {
			d, ok, err := eval.Delta(ctx, p.q, p.eng.db, changes, old.answers)
			if err != nil {
				return nil, RefreshInfo{}, err
			}
			if ok {
				snap, err := applyDelta(ctx, old, d, gen)
				if err != nil {
					return nil, RefreshInfo{}, err
				}
				return snap, RefreshInfo{
					Mode:      "delta",
					Added:     len(d.Added),
					Removed:   len(d.Removed),
					Rechecked: d.Rechecked,
					Answers:   len(snap.answers),
				}, nil
			}
		}
	}
	answers, err := eval.EvaluateContext(ctx, p.q, p.eng.db)
	if err != nil {
		return nil, RefreshInfo{}, err
	}
	return &snapshot{gen: gen, answers: answers},
		RefreshInfo{Mode: "rebuild", Answers: len(answers)}, nil
}

// applyDelta merges an answer-set delta into a new snapshot: removed
// answers, found by binary search, drop out, added ones merge in canonical
// order, and the score plane — when the old snapshot had built one — is
// rebased by each answer's provenance (surviving scores copied, only delta
// pairs evaluated) instead of rebuilt.
func applyDelta(ctx context.Context, old *snapshot, d eval.DeltaResult, gen uint64) (*snapshot, error) {
	dead := make([]int, 0, len(d.Removed))
	for _, t := range d.Removed {
		if i, ok := relation.Search(old.answers, t); ok {
			dead = append(dead, i)
		}
	}
	merged, from := relation.Merge(old.answers, dead, d.Added)
	snap := &snapshot{gen: gen, answers: merged}
	if old.plane != nil {
		pl, err := old.plane.Rebase(ctx, merged, from)
		if err != nil {
			return nil, err
		}
		snap.plane = pl
	}
	return snap, nil
}

// storePool keeps the stream-order pool an exhausted online evaluation
// produced at generation gen (the current one, under the engine read
// lock): on the published snapshot when it is of gen, or as a fresh
// snapshot otherwise — the stream already paid for Q(D), so later calls
// skip re-evaluation. The pool is dropped when another caller holds the
// gate; it is an optimization, not worth waiting for.
func (p *Prepared) storePool(pool []relation.Tuple, gen uint64) {
	select {
	case p.gate <- struct{}{}:
	default:
		return
	}
	defer func() { <-p.gate }()
	if old := p.snap.Load(); old != nil && old.gen == gen {
		if old.streamPool == nil {
			p.snap.Store(&snapshot{gen: gen, answers: old.answers, plane: old.plane, streamPool: pool})
		}
		return
	}
	sorted := slices.Clone(pool)
	slices.SortFunc(sorted, relation.Tuple.Compare)
	p.snap.Store(&snapshot{gen: gen, answers: sorted, streamPool: pool})
}

// coldCache reports, under the engine read lock, whether the handle holds
// no snapshot of the current generation and none the change journal can
// patch incrementally: then Q(D) must be evaluated from scratch anyway, and
// a decide streams that evaluation to stop at the first valid set.
func (p *Prepared) coldCache() bool {
	p.eng.mu.RLock()
	defer p.eng.mu.RUnlock()
	if p.current() != nil {
		return false
	}
	old := p.snap.Load()
	if !p.deltaOK || old == nil {
		return true
	}
	_, ok := p.eng.db.ChangesSince(old.gen)
	return !ok
}

// objectiveOver builds the bound objective function for answers of schema.
func (s settings) objectiveOver(schema relation.Schema) *objective.Objective {
	var kind objective.Kind
	switch s.objective {
	case MaxMin:
		kind = objective.MaxMin
	case Mono:
		kind = objective.Mono
	default:
		kind = objective.MaxSum
	}
	var rel objective.Relevance
	if s.relevance != nil {
		f := s.relevance
		rel = objective.RelevanceFunc(func(t relation.Tuple) float64 {
			return f(Row{schema: schema, tuple: t})
		})
	}
	var dis objective.Distance
	switch {
	case s.distAttr != nil:
		dis = objective.CategoryDistance{Col: schema.AttrIndex(string(*s.distAttr))}
	case s.distance != nil:
		f := s.distance
		dis = objective.DistanceFunc(func(a, b relation.Tuple) float64 {
			return f(Row{schema: schema, tuple: a}, Row{schema: schema, tuple: b})
		})
	}
	return objective.New(kind, rel, dis, s.lambda)
}

// newPlane builds the score plane under the Prepare-time δrel/δdis. The
// plane holds no λ- or kind-dependent state, so one plane serves every call
// that keeps those bindings.
func (p *Prepared) newPlane(ctx context.Context, answers []relation.Tuple) (*objective.Plane, error) {
	pl, err := objective.NewPlaneContext(ctx, p.base.objectiveOver(p.schema), answers, objective.PlaneOptions{})
	if err != nil {
		return nil, err
	}
	// Fill the matrix eagerly when the plane keeps one: a Prepared handle
	// exists to be solved against many times, so the parallel fill is paid
	// once here rather than per solve.
	if _, err := pl.MaterializeContext(ctx); err != nil {
		return nil, err
	}
	return pl, nil
}

// planeMetrics reports the score plane cached by the latest published
// snapshot, for the service's /metrics aggregation: the regime name and the
// estimated resident bytes. ok is false while no plane is cached (cold
// handle, or the snapshot was invalidated).
func (p *Prepared) planeMetrics() (regime string, bytes int64, ok bool) {
	snap := p.snap.Load()
	if snap == nil || snap.plane == nil {
		return "", 0, false
	}
	return snap.plane.Regime().String(), snap.plane.MemoryFootprint(), true
}

// checkSet validates and converts a caller-provided candidate set: it must
// have exactly k rows, each matching the query head arity, with values of
// supported Go types. Failures are typed ArgErrors on the "set" field, so
// serving layers classify them as user errors.
func (p *Prepared) checkSet(set [][]interface{}, k int) ([]relation.Tuple, error) {
	if len(set) != k {
		return nil, argErrorf("set", "candidate set has %d rows, want exactly k = %d", len(set), k)
	}
	out := make([]relation.Tuple, len(set))
	for i, row := range set {
		t, err := toTuple(row, p.q.Arity())
		if err != nil {
			return nil, argErrorf("set", "candidate row %d %v", i, err)
		}
		out[i] = t
	}
	return out, nil
}

// The five problem-specific methods are thin shims over the unified
// Request → Plan → Execute pipeline (Do): each compiles its arguments into
// a Request and unwraps the matching Response field. They are retained as
// the convenient typed surface; Do is the single audited execution path
// underneath all of them.

// Diversify finds a k-set maximizing the objective (the optimization form
// of QRD). Auto and Exact run exact branch-and-bound; Greedy and
// LocalSearch trade optimality for speed, as the paper's conclusion
// prescribes for the intractable cells; Online maintains an anytime
// selection while the query evaluates. ctx cancels the (potentially
// exponential) exact search mid-flight.
func (p *Prepared) Diversify(ctx context.Context, opts ...Option) (*Selection, error) {
	resp, err := p.Do(ctx, Request{Problem: ProblemDiversify, Options: opts})
	if err != nil {
		return nil, err
	}
	return resp.Selection, nil
}

// Decide answers QRD: does a k-subset of the query result with objective
// value at least the bound exist (satisfying the constraints, if any)?
//
// The solver is chosen per the paper's complexity map: the PTIME modular
// algorithm for Fmono without constraints (Theorem 5.4); otherwise, with a
// cold answer-set cache, early-terminating online evaluation (Section 1);
// and exact search on the cached answer set in the remaining cases. Errors
// from an applicable solver are surfaced — only the online path's "this
// setting does not stream" refusals (Fmono, constraints) fall through to
// exact search.
func (p *Prepared) Decide(ctx context.Context, opts ...Option) (bool, error) {
	resp, err := p.Do(ctx, Request{Problem: ProblemDecide, Options: opts})
	if err != nil {
		return false, err
	}
	return resp.Decided(), nil
}

// Count answers RDC: how many valid k-subsets reach the bound?
func (p *Prepared) Count(ctx context.Context, opts ...Option) (*big.Int, error) {
	resp, err := p.Do(ctx, Request{Problem: ProblemCount, Options: opts})
	if err != nil {
		return nil, err
	}
	return resp.Count, nil
}

// InTopR answers DRP: does the given set (specified by attribute values per
// row, in schema order) rank among the top r candidate sets? The rank
// threshold comes from WithRank.
func (p *Prepared) InTopR(ctx context.Context, set [][]interface{}, opts ...Option) (bool, error) {
	resp, err := p.Do(ctx, Request{Problem: ProblemInTopR, Set: set, Options: opts})
	if err != nil {
		return false, err
	}
	return resp.TopR(), nil
}

// Rank computes rank(U) exactly: 1 + the number of candidate k-sets scoring
// strictly above F(U) (Section 4.1). It is the function-problem companion
// of InTopR; expect exponential cost in the general setting (Theorem 6.1)
// and polynomial cost for Fmono without constraints (Theorem 6.4 applies to
// the decision; the exact rank is computed by exhaustive counting here).
func (p *Prepared) Rank(ctx context.Context, set [][]interface{}, opts ...Option) (int, error) {
	resp, err := p.Do(ctx, Request{Problem: ProblemRank, Set: set, Options: opts})
	if err != nil {
		return 0, err
	}
	return resp.Rank, nil
}
