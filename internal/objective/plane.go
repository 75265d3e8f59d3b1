// The interned score plane: answer tuples are interned into dense int IDs
// at prepare time, the relevance vector δrel is precomputed per ID, and the
// symmetric pairwise distance δdis is served from one of three stores,
// chosen from the plane's input alone (see regime.go): per-category ID lists
// when δdis is a CategoryDistance (category.go), a packed triangular
// []float64 (filled in parallel across GOMAXPROCS workers) when it fits
// MaxMatrixBytes, and otherwise direct evaluation of δdis with nothing
// stored. Every solver then runs on IDs and contiguous float loads instead
// of interface dispatch plus Tuple.Key() string hashing per lookup: the same
// compute-shared-subexpressions-once discipline that factorised databases
// (Bakibayev et al., FDB) apply to query plans, applied here to scoring.
//
// The plane assumes the paper's contract for δdis: symmetric with a zero
// diagonal. Pair values are evaluated in canonical (lower ID, higher ID)
// argument order; an asymmetric distance function would be observed in
// canonical order only.
package objective

import (
	"context"
	"math"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/ctxpoll"
	"repro/internal/relation"
)

// MaxMatrixBytes is the memory guard for the materialized distance matrix:
// 64 MiB holds the packed triangle of n = 4096 answers. Larger planes
// evaluate δdis directly.
const MaxMatrixBytes = 64 << 20

// PlaneOptions tune plane construction.
type PlaneOptions struct {
	// Streaming builds an appendable plane for online procedures: IDs are
	// assigned in arrival order via Append, distances are always evaluated
	// directly, and Materialize is a no-op.
	Streaming bool
}

// Plane is the interned score plane over one answer set. It holds only the
// λ-independent score data (relevance vector, pairwise distances, cached
// row sums), so a single plane serves solves under any Kind and λ as long
// as the δrel/δdis functions are unchanged; Objective.EvalIDs and friends
// combine it with the per-call Kind and λ.
//
// A plane is safe for concurrent readers (including concurrent lazy
// materialization); Append is single-writer.
type Plane struct {
	answers []relation.Tuple
	rel     []float64
	maxRel  float64
	keys    []string // precomputed Tuple.Key()s when a Keyed impl is present

	relFn     Relevance
	disFn     Distance
	keyedRel  KeyedRelevance // non-nil when relFn accepts precomputed keys
	keyedDis  KeyedDistance  // non-nil when disFn accepts precomputed keys
	streaming bool
	regime    Regime // the resolved serving regime, fixed at construction

	triReady atomic.Bool
	tri      []float64 // packed lower triangle, index(i<j) = j(j-1)/2 + i

	cats *Categories // built with the plane in RegimeCategory

	mu         sync.Mutex // guards materialization and the lazy scalars below
	haveMaxDis bool
	maxDis     float64
	maxDisN    int // the n maxDis was computed at (streaming planes grow)
	rowSums    []float64
}

// NewPlane builds a plane over answers. Distances are not computed yet:
// the matrix is filled on first use (until then Dis evaluates δdis), so
// relevance-only consumers pay O(n) and nothing more. A category plane
// groups and orders its answers here, in O(n log n).
func NewPlane(o *Objective, answers []relation.Tuple, opts PlaneOptions) *Plane {
	p, _ := NewPlaneContext(context.Background(), o, answers, opts)
	return p
}

// NewPlaneContext is NewPlane under a cancellation context (the O(n)
// relevance fill polls it).
func NewPlaneContext(ctx context.Context, o *Objective, answers []relation.Tuple, opts PlaneOptions) (*Plane, error) {
	p := &Plane{
		answers:   answers,
		relFn:     o.Rel,
		disFn:     o.Dis,
		streaming: opts.Streaming,
		regime:    resolveRegime(len(answers), opts.Streaming, o.Dis),
	}
	if kr, ok := o.Rel.(KeyedRelevance); ok {
		p.keyedRel = kr
	}
	if kd, ok := o.Dis.(KeyedDistance); ok {
		p.keyedDis = kd
	}
	poll := ctxpoll.New(ctx)
	if p.keyedRel != nil || p.keyedDis != nil {
		p.keys = make([]string, len(answers))
		for i, t := range answers {
			if poll.Stop() {
				return nil, poll.Err()
			}
			p.keys[i] = t.Key()
		}
	}
	p.rel = make([]float64, len(answers))
	for i := range answers {
		if poll.Stop() {
			return nil, poll.Err()
		}
		r := p.rawRel(i)
		p.rel[i] = r
		if r > p.maxRel {
			p.maxRel = r
		}
	}
	if err := p.buildCategories(ctx); err != nil {
		return nil, err
	}
	return p, nil
}

// buildCategories builds the category store of a RegimeCategory plane from
// its answers and relevance vector. Other regimes have nothing to build.
func (p *Plane) buildCategories(ctx context.Context) error {
	if p.regime != RegimeCategory {
		return nil
	}
	cs, err := buildCategories(ctx, p.disFn.(CategoryDistance), p.answers, p.rel)
	if err != nil {
		return err
	}
	p.setCategories(cs)
	return nil
}

// setCategories installs a category store and records the maximum
// distance: 1 when two categories exist, else 0.
func (p *Plane) setCategories(cs *Categories) {
	p.cats = cs
	p.maxDis, p.haveMaxDis, p.maxDisN = 0, true, len(p.answers)
	if cs.Count() > 1 {
		p.maxDis = 1
	}
}

// Categories returns the store of a RegimeCategory plane, nil in every
// other regime.
func (p *Plane) Categories() *Categories { return p.cats }

// Len reports the number of interned answers.
func (p *Plane) Len() int { return len(p.answers) }

// Tuple returns the answer tuple interned as id.
func (p *Plane) Tuple(id int) relation.Tuple { return p.answers[id] }

// Answers returns the interned answer slice in ID order (shared; do not
// mutate).
func (p *Plane) Answers() []relation.Tuple { return p.answers }

// Rel returns δrel of the answer interned as id.
func (p *Plane) Rel(id int) float64 { return p.rel[id] }

// MaxRel returns max δrel over the interned answers (0 when empty, matching
// the solvers' optimistic-bound seed).
func (p *Plane) MaxRel() float64 { return p.maxRel }

// Materialized reports whether the packed distance matrix is filled.
func (p *Plane) Materialized() bool { return p.triReady.Load() }

// Regime reports the plane's resolved serving regime.
func (p *Plane) Regime() Regime { return p.regime }

// MemoryFootprint estimates the plane's resident bytes: the per-answer
// score state plus whatever the regime stores (matrix or category lists).
// An estimate for operators and planners, not an allocator-exact
// accounting.
func (p *Plane) MemoryFootprint() int64 {
	n := int64(len(p.answers))
	b := n * 8 // relevance vector
	b += n * 8 // answer slice headers (tuples themselves are shared)
	if p.keys != nil {
		b += n * 16 // string headers; backing bytes are shared with tuples
	}
	if p.triReady.Load() {
		b += int64(len(p.tri)) * 8
	}
	if p.cats != nil {
		b += p.cats.bytes()
	}
	return b
}

// rawRel evaluates δrel for id through the keyed fast path when available.
func (p *Plane) rawRel(id int) float64 {
	if p.keyedRel != nil {
		return p.keyedRel.RelKey(p.keys[id])
	}
	return p.relFn.Rel(p.answers[id])
}

// rawDis evaluates δdis for i < j in canonical argument order, through the
// keyed fast path when available.
func (p *Plane) rawDis(i, j int) float64 {
	if p.keyedDis != nil {
		return p.keyedDis.DisKeys(p.keys[i], p.keys[j])
	}
	return p.disFn.Dis(p.answers[i], p.answers[j])
}

// triIndex packs the lower triangle row-by-row: cell (i, j) with i < j lives
// at j(j-1)/2 + i. The packing is independent of n, so streaming planes
// could grow it row-by-row.
func triIndex(i, j int) int { return j*(j-1)/2 + i }

// Dis returns δdis between the answers interned as i and j: a category
// comparison on a category plane, a contiguous float load when the matrix
// is filled, an evaluation of δdis otherwise, and 0 on the diagonal.
func (p *Plane) Dis(i, j int) float64 {
	if p.cats != nil {
		return p.cats.dis(i, j)
	}
	if i == j {
		return 0
	}
	if i > j {
		i, j = j, i
	}
	if p.triReady.Load() {
		return p.tri[triIndex(i, j)]
	}
	return p.rawDis(i, j)
}

// Materialize is MaterializeContext under context.Background.
func (p *Plane) Materialize() bool {
	ok, _ := p.MaterializeContext(context.Background())
	return ok
}

// MaterializeContext fills the packed triangular float64 matrix in parallel
// across GOMAXPROCS workers. Planes whose regime keeps no matrix (category,
// direct, streaming) report false: they have nothing to build. It is
// idempotent and safe under concurrent readers: until the fill completes,
// Dis keeps evaluating δdis.
func (p *Plane) MaterializeContext(ctx context.Context) (bool, error) {
	if p.regime != RegimeMaterialized {
		return false, nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.triReady.Load() {
		return true, nil
	}
	n := len(p.answers)
	tri := make([]float64, n*(n-1)/2)
	maxDis, err := p.fillParallel(ctx, tri)
	if err != nil {
		return false, err
	}
	p.tri = tri
	p.maxDis, p.haveMaxDis, p.maxDisN = maxDis, true, n
	p.triReady.Store(true)
	return true, nil
}

// fillParallel computes every (i < j) cell of tri, striping whole rows
// across workers via an atomic row counter, and returns the maximum cell.
// Each cell is a pure function of its pair, so the result is deterministic
// regardless of scheduling; the max merge is order-independent.
func (p *Plane) fillParallel(ctx context.Context, tri []float64) (float64, error) {
	n := len(p.answers)
	if n < 2 {
		return 0, nil
	}
	workers := runtime.GOMAXPROCS(0)
	if workers > n-1 {
		workers = n - 1
	}
	if workers < 1 {
		workers = 1
	}
	const rowChunk = 8
	var next atomic.Int64
	next.Store(1) // row j ranges over [1, n)
	maxes := make([]float64, workers)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			poll := ctxpoll.New(ctx)
			localMax := 0.0
			for {
				lo := int(next.Add(rowChunk)) - rowChunk
				if lo >= n {
					break
				}
				hi := lo + rowChunk
				if hi > n {
					hi = n
				}
				for j := lo; j < hi; j++ {
					if poll.Stop() {
						errs[w] = poll.Err()
						return
					}
					off := j * (j - 1) / 2
					for i := 0; i < j; i++ {
						d := p.rawDis(i, j)
						tri[off+i] = d
						if d > localMax {
							localMax = d
						}
					}
				}
			}
			maxes[w] = localMax
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return 0, err
		}
	}
	maxDis := 0.0
	for _, m := range maxes {
		if m > maxDis {
			maxDis = m
		}
	}
	return maxDis, nil
}

// MaxDis is MaxDisContext under context.Background.
func (p *Plane) MaxDis() float64 {
	v, _ := p.MaxDisContext(context.Background())
	return v
}

// MaxDisContext returns max pairwise δdis over the interned answers (0 when
// fewer than two). It materializes the matrix when the guard allows — the
// scan pays for every pair anyway — and otherwise scans without storing, so
// the memory guard holds even for this O(n²) pass.
func (p *Plane) MaxDisContext(ctx context.Context) (float64, error) {
	n := len(p.answers)
	p.mu.Lock()
	if p.haveMaxDis && p.maxDisN == n {
		v := p.maxDis
		p.mu.Unlock()
		return v, nil
	}
	p.mu.Unlock()
	if ok, err := p.MaterializeContext(ctx); err != nil {
		return 0, err
	} else if ok {
		p.mu.Lock()
		defer p.mu.Unlock()
		return p.maxDis, nil
	}
	poll := ctxpoll.New(ctx)
	maxDis := 0.0
	for j := 1; j < n; j++ {
		if poll.Stop() {
			return 0, poll.Err()
		}
		for i := 0; i < j; i++ {
			if d := p.Dis(i, j); d > maxDis {
				maxDis = d
			}
		}
	}
	p.mu.Lock()
	p.maxDis, p.haveMaxDis, p.maxDisN = maxDis, true, n
	p.mu.Unlock()
	return maxDis, nil
}

// RowSums returns, for each id, Σ over all answers of δdis(id, ·) — the
// shared subexpression of every Fmono score — accumulated in ascending ID
// order for reproducible floating point. A category plane counts each
// answer's category in O(n). Elsewhere the O(n²) scan polls ctx, and only
// a completed scan is cached; without a matrix the scan evaluates pairs
// without storing them, so the memory guard holds.
func (p *Plane) RowSums(ctx context.Context) ([]float64, error) {
	n := len(p.answers)
	p.mu.Lock()
	if p.rowSums != nil && len(p.rowSums) == n {
		sums := p.rowSums
		p.mu.Unlock()
		return sums, nil
	}
	if p.cats != nil {
		p.rowSums = p.cats.rowSums()
		sums := p.rowSums
		p.mu.Unlock()
		return sums, nil
	}
	p.mu.Unlock()
	if _, err := p.MaterializeContext(ctx); err != nil {
		return nil, err
	}
	poll := ctxpoll.New(ctx)
	sums := make([]float64, n)
	for i := 0; i < n; i++ {
		g := 0.0
		for j := 0; j < n; j++ {
			if poll.Stop() {
				return nil, poll.Err()
			}
			if j != i {
				g += p.Dis(i, j)
			}
		}
		sums[i] = g
	}
	p.mu.Lock()
	if p.rowSums == nil || len(p.rowSums) != n {
		p.rowSums = sums
	} else {
		sums = p.rowSums
	}
	p.mu.Unlock()
	return sums, nil
}

// Append interns a new answer on a streaming plane, returning its ID.
// Distances to it are evaluated on use, so an append is O(1) beyond its
// relevance evaluation. Single-writer: the streaming procedures append
// from the evaluation goroutine only.
func (p *Plane) Append(t relation.Tuple) int {
	if !p.streaming {
		panic("objective: Append on a non-streaming plane")
	}
	id := len(p.answers)
	p.answers = append(p.answers, t)
	if p.keys != nil {
		p.keys = append(p.keys, t.Key())
	}
	p.rel = append(p.rel, 0)
	r := p.rawRel(id)
	p.rel[id] = r
	if r > p.maxRel {
		p.maxRel = r
	}
	return id
}

// Rebase builds the plane over answers, an incrementally maintained answer
// set, given each answer's provenance: from[i] is the ID answers[i] had on
// p, or -1 for an answer p does not hold (relation.Merge returns both).
// Score state is carried over instead of recomputed — relevance values and
// keys are copied for carried answers, and when the matrix is filled (with
// the regime re-resolved at the new size) every carried pair is a float
// copy, so only the O(n·|added|) pairs touching a new answer evaluate δdis.
// A category store is edited in place of a rebuild. A direct plane stores
// no pairs, so nothing beyond the per-answer state is carried.
//
// The result is bit-identical to a plane built from scratch over answers:
// δrel/δdis are pure per-pair functions, so copied values equal recomputed
// ones, and the derived scalars (maxRel, maxDis) are rescanned. The plane
// shares answers, as a cold build does. The receiver is left untouched and
// remains valid — in-flight solves keep reading the old plane while the
// caller swaps the new one in.
//
// Contract: the plane is non-streaming, and the carried IDs in from
// ascend, as relation.Merge gives them.
func (p *Plane) Rebase(ctx context.Context, answers []relation.Tuple, from []int) (*Plane, error) {
	if p.streaming {
		panic("objective: Rebase on a streaming plane")
	}
	m := len(answers)
	// The regime is re-resolved at the new size: insert batches can push a
	// materialized plane over the guard (it evaluates directly) and retire
	// batches can bring an oversized one back under it (it re-materializes),
	// each matching what a cold build at the new size would pick.
	q := &Plane{
		answers:  answers,
		rel:      make([]float64, m),
		relFn:    p.relFn,
		disFn:    p.disFn,
		keyedRel: p.keyedRel,
		keyedDis: p.keyedDis,
		regime:   resolveRegime(m, false, p.disFn),
	}
	if p.keys != nil {
		q.keys = make([]string, m)
	}
	poll := ctxpoll.New(ctx)
	for id, o := range from {
		if poll.Stop() {
			return nil, poll.Err()
		}
		if o >= 0 {
			q.rel[id] = p.rel[o]
			if q.keys != nil {
				q.keys[id] = p.keys[o]
			}
		} else {
			if q.keys != nil {
				q.keys[id] = answers[id].Key()
			}
			q.rel[id] = q.rawRel(id)
		}
		if q.rel[id] > q.maxRel {
			q.maxRel = q.rel[id]
		}
	}
	// A category store is edited: survivors keep their lists, added
	// answers are filed into them.
	if q.regime == RegimeCategory {
		cs, err := p.cats.rebase(ctx, q.disFn.(CategoryDistance), q.answers, q.rel, from)
		if err != nil {
			return nil, err
		}
		q.setCategories(cs)
		return q, nil
	}
	if q.regime == RegimeMaterialized && p.triReady.Load() {
		// Matrix → matrix: copy carried pairs, evaluate pairs that
		// touch an added answer, and track the running max like the cold
		// fill does.
		tri := make([]float64, m*(m-1)/2)
		maxDis := 0.0
		for b := 1; b < m; b++ {
			if poll.Stop() {
				return nil, poll.Err()
			}
			off := b * (b - 1) / 2
			ob := from[b]
			for a := 0; a < b; a++ {
				var d float64
				if oa := from[a]; oa >= 0 && ob >= 0 {
					d = p.tri[triIndex(oa, ob)]
				} else {
					d = q.rawDis(a, b)
				}
				tri[off+a] = d
				if d > maxDis {
					maxDis = d
				}
			}
		}
		q.tri = tri
		q.maxDis, q.haveMaxDis, q.maxDisN = maxDis, true, m
		q.triReady.Store(true)
	}
	// Otherwise nothing is stored: a materialized-regime plane without a
	// source matrix fills its own on first use, as a cold build does.
	return q, nil
}

// EvalIDs computes F(U) for a candidate set given by plane IDs, mirroring
// Eval's accumulation order exactly so the two paths agree to the last bit
// (for symmetric δdis with a zero diagonal, per the paper's contract).
func (o *Objective) EvalIDs(p *Plane, ids []int) float64 {
	switch o.Kind {
	case MaxSum:
		k := len(ids)
		if k == 0 {
			return 0
		}
		relSum := 0.0
		for _, id := range ids {
			relSum += p.rel[id]
		}
		disSum := 0.0
		for a := range ids {
			for b := a + 1; b < len(ids); b++ {
				disSum += p.Dis(ids[a], ids[b])
			}
		}
		return float64(k-1)*(1-o.Lambda)*relSum + o.Lambda*2*disSum
	case MaxMin:
		if len(ids) == 0 {
			return 0
		}
		minRel := infPos()
		for _, id := range ids {
			if r := p.rel[id]; r < minRel {
				minRel = r
			}
		}
		minDis := 0.0
		if len(ids) >= 2 {
			minDis = infPos()
			for a := range ids {
				for b := a + 1; b < len(ids); b++ {
					if d := p.Dis(ids[a], ids[b]); d < minDis {
						minDis = d
					}
				}
			}
		}
		return (1-o.Lambda)*minRel + o.Lambda*minDis
	case Mono:
		n := p.Len()
		var sums []float64
		if n > 1 && o.Lambda != 0 {
			// Background never cancels, so the scan cannot fail.
			sums, _ = p.RowSums(context.Background())
		}
		sum := 0.0
		for _, id := range ids {
			sum += (1 - o.Lambda) * p.rel[id]
			if sums != nil {
				sum += o.Lambda / float64(n-1) * sums[id]
			}
		}
		return sum
	default:
		return 0
	}
}

// MonoScoresPlane is MonoScores on the interned plane: v(t) per answer from
// the precomputed relevance vector and cached distance row sums. After the
// first completed call the per-solve cost drops from O(n²) interface calls
// to O(n) float arithmetic; until then ctx cancels the row-sum scan.
func (o *Objective) MonoScoresPlane(ctx context.Context, p *Plane) ([]float64, error) {
	n := p.Len()
	var sums []float64
	if n > 1 && o.Lambda != 0 {
		var err error
		if sums, err = p.RowSums(ctx); err != nil {
			return nil, err
		}
	}
	out := make([]float64, n)
	for i := 0; i < n; i++ {
		v := (1 - o.Lambda) * p.rel[i]
		if sums != nil {
			v += o.Lambda / float64(n-1) * sums[i]
		}
		out[i] = v
	}
	return out, nil
}

// MaxSumDeltaIDs is MaxSumDelta on plane IDs: the FMS gain of adding cand
// to the chosen IDs at target size k, accumulated in chosen order to match
// the tuple path bit-for-bit.
func (o *Objective) MaxSumDeltaIDs(p *Plane, chosen []int, cand, k int) float64 {
	d := float64(k-1) * (1 - o.Lambda) * p.rel[cand]
	for _, id := range chosen {
		d += o.Lambda * 2 * p.Dis(id, cand)
	}
	return d
}

func infPos() float64 { return math.Inf(1) }
