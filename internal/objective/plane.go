// The interned score plane: answer tuples are interned into dense int IDs
// at prepare time, the relevance vector δrel is precomputed per ID, and the
// symmetric pairwise distance matrix δdis is served under one of four
// regimes (see regime.go): from per-category ID lists when δdis is a
// CategoryDistance (category.go), materialized as a packed triangular
// []float64 (filled in parallel across GOMAXPROCS workers), indexed by a
// vantage-point tree with O(n) memory (index.go), or — when neither fits —
// from a sharded, entry-capped memoizing cache. Every solver then runs on
// IDs and contiguous float loads instead of interface dispatch plus Tuple.Key()
// string hashing per lookup: the same compute-shared-subexpressions-once
// discipline that factorised databases (Bakibayev et al., FDB) apply to
// query plans, applied here to scoring — and, in the indexed regime, the
// complementary discipline of never materializing pairs evaluation won't
// touch.
//
// The plane assumes the paper's contract for δdis: symmetric with a zero
// diagonal. Pair values are evaluated once in canonical (lower ID, higher
// ID) argument order; an asymmetric distance function would be observed in
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
// 64 MiB holds the packed triangle of n = 4096 answers. Larger planes serve
// from the metric index (auto) or the sharded memoizing cache (an explicit
// materialized request), and the memo's entry budget derives from it.
const MaxMatrixBytes = 64 << 20

// memoShards is the number of lock shards in the fallback cache; a power of
// two so the hash can mask.
const memoShards = 64

// PlaneOptions tune plane construction.
type PlaneOptions struct {
	// Regime requests a distance-storage strategy; RegimeAuto (the zero
	// value) resolves from n. See resolveRegime for the fallback rules
	// when an explicit request does not fit MaxMatrixBytes.
	Regime Regime
	// Streaming builds an appendable plane for online procedures: IDs are
	// assigned in arrival order via Append, distances are always served
	// from the memoizing cache, and Materialize is a no-op.
	Streaming bool
}

// Plane is the interned score plane over one answer set. It holds only the
// λ-independent score data (relevance vector, pairwise distances, cached
// row sums), so a single plane serves solves under any Kind and λ as long
// as the δrel/δdis functions are unchanged; Objective.EvalIDs and friends
// combine it with the per-call Kind and λ.
//
// A plane is safe for concurrent readers (including concurrent lazy
// materialization and memo fills); Append is single-writer.
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
	want      Regime // the caller's requested regime (for Rebase carry-over)
	regime    Regime // the resolved serving regime, fixed at construction

	triReady atomic.Bool
	tri      []float64 // packed lower triangle, index(i<j) = j(j-1)/2 + i

	idx atomic.Pointer[MetricIndex] // lazily built in RegimeIndexed

	cats *Categories // built with the plane in RegimeCategory

	shards []memoShard
	// shardCap bounds each memo shard by entries (total budget ≈ the
	// matrix guard for the memoized regime, O(n) for the indexed regime);
	// a full shard evicts one victim per insert — Go's randomized map
	// iteration order is the eviction policy — so a long-lived plane
	// serving on-demand pairs cannot grow O(n²) memory over its lifetime.
	shardCap      int
	memoEvictions atomic.Int64

	mu         sync.Mutex // guards materialization and the lazy scalars below
	haveMaxDis bool
	maxDis     float64
	maxDisN    int // the n maxDis was computed at (streaming planes grow)
	rowSums    []float64
}

type memoShard struct {
	mu sync.Mutex
	m  map[uint64]float64
}

// memoShardCap derives the per-shard entry cap. The memoized regime keeps
// roughly the matrix guard's byte budget (entries are ~16 bytes of key+value
// before map overhead); the indexed regime — whose whole point is O(n)
// memory — caps the memo at ~4 entries per answer, enough to absorb the
// incidental Dis calls of quality evaluation and local search without
// re-growing a quadratic cache behind the index's back.
func memoShardCap(regime Regime, n int) int {
	entries := MaxMatrixBytes / 16
	if regime == RegimeIndexed {
		entries = min(entries, 4*n+1024)
	}
	return entries / memoShards
}

// NewPlane builds a plane over answers. Distances are not computed yet:
// materialization (or memoization on demand) happens on first use, so
// relevance-only consumers pay O(n) and nothing more. A category plane
// groups and orders its answers here, in O(n log n).
func NewPlane(o *Objective, answers []relation.Tuple, opts PlaneOptions) *Plane {
	p, _ := NewPlaneContext(context.Background(), o, answers, opts)
	return p
}

// NewPlaneContext is NewPlane under a cancellation context (the O(n)
// relevance fill polls it).
func NewPlaneContext(ctx context.Context, o *Objective, answers []relation.Tuple, opts PlaneOptions) (*Plane, error) {
	regime := resolveRegime(opts.Regime, len(answers), opts.Streaming, o.Dis)
	p := &Plane{
		answers:   answers,
		relFn:     o.Rel,
		disFn:     o.Dis,
		streaming: opts.Streaming,
		want:      opts.Regime,
		regime:    regime,
		shardCap:  memoShardCap(regime, len(answers)),
		shards:    make([]memoShard, memoShards),
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
// its answers and relevance vector, and records the maximum distance: 1
// when two categories exist, else 0. Other regimes have nothing to build.
func (p *Plane) buildCategories(ctx context.Context) error {
	if p.regime != RegimeCategory {
		return nil
	}
	cs, err := buildCategories(ctx, p.disFn.(CategoryDistance), p.answers, p.rel)
	if err != nil {
		return err
	}
	p.cats = cs
	p.maxDis, p.haveMaxDis, p.maxDisN = 0, true, len(p.answers)
	if cs.Count() > 1 {
		p.maxDis = 1
	}
	return nil
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

// MemoStats reports the memo cache's resident entry count and the number of
// evictions its entry cap has forced so far.
func (p *Plane) MemoStats() (entries, evictions int64) {
	for s := range p.shards {
		shard := &p.shards[s]
		shard.mu.Lock()
		entries += int64(len(shard.m))
		shard.mu.Unlock()
	}
	return entries, p.memoEvictions.Load()
}

// MemoryFootprint estimates the plane's resident bytes: the per-answer
// score state plus whatever the regime stores (matrix, index, memo
// entries at ~48 bytes each with map overhead). An estimate for operators
// and planners, not an allocator-exact accounting.
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
	if ix := p.idx.Load(); ix != nil {
		b += ix.Bytes()
	}
	if p.cats != nil {
		b += p.cats.bytes()
	}
	entries, _ := p.MemoStats()
	b += entries * 48
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
// keyed fast path when available. It does not consult or fill any cache.
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
// is filled, a memoized evaluation otherwise, and 0 on the diagonal.
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
	return p.memoDis(i, j)
}

// memoDis serves a pair from the sharded cache, computing and storing it on
// a miss. The user function runs outside the shard lock (it may be slow); a
// racing duplicate computation stores the same deterministic value. A full
// shard evicts one resident entry before storing — the victim is whatever
// Go's randomized map iteration yields first, a zero-bookkeeping stand-in
// for random replacement — so the cache stays capped while still following
// the working set of long request streams.
func (p *Plane) memoDis(i, j int) float64 {
	key := uint64(i)<<32 | uint64(j)
	s := &p.shards[(key*0x9E3779B97F4A7C15)>>(64-6)]
	s.mu.Lock()
	if d, ok := s.m[key]; ok {
		s.mu.Unlock()
		return d
	}
	s.mu.Unlock()
	d := p.rawDis(i, j)
	s.mu.Lock()
	if s.m == nil {
		s.m = make(map[uint64]float64)
	}
	if _, ok := s.m[key]; !ok && len(s.m) >= p.shardCap {
		for victim := range s.m {
			delete(s.m, victim)
			break
		}
		p.memoEvictions.Add(1)
	}
	s.m[key] = d
	s.mu.Unlock()
	return d
}

// Materialize is MaterializeContext under context.Background.
func (p *Plane) Materialize() bool {
	ok, _ := p.MaterializeContext(context.Background())
	return ok
}

// MaterializeContext fills the packed triangular float64 matrix in parallel
// across GOMAXPROCS workers. Planes whose regime keeps no matrix (indexed,
// memoized, streaming) report false and keep serving on demand. It is
// idempotent and safe under concurrent readers: until the fill completes,
// Dis keeps answering from the cache.
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

// EnsureReadyContext builds whatever the plane's regime serves from — the
// matrix or the metric index — so prepare-time eager construction pays the
// build cost once instead of on the first solve. Category planes built
// their store with the plane; memoized (and streaming) planes have nothing
// to build.
func (p *Plane) EnsureReadyContext(ctx context.Context) error {
	switch p.regime {
	case RegimeMaterialized:
		_, err := p.MaterializeContext(ctx)
		return err
	case RegimeIndexed:
		_, err := p.IndexContext(ctx)
		return err
	default:
		return nil
	}
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
	// Memoized regime: scan through Dis so the pairs this pass pays for
	// warm the cache (bounded by memoCap) for the search walk that follows.
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

// MaxDisBoundContext returns an admissible upper bound on the maximum
// pairwise δdis: the exact maximum where it is already known or cheap (the
// matrix fill computes it), and in the indexed regime
// the O(n) triangle-inequality bound 2·max δdis(pivot₀, ·) — so the exact
// search's optimistic bound never pays the O(n²) scan a large indexed plane
// exists to avoid. A looser bound only weakens pruning, never correctness.
func (p *Plane) MaxDisBoundContext(ctx context.Context) (float64, error) {
	p.mu.Lock()
	if p.haveMaxDis && p.maxDisN == len(p.answers) {
		v := p.maxDis
		p.mu.Unlock()
		return v, nil
	}
	p.mu.Unlock()
	if p.regime == RegimeIndexed {
		ix, err := p.IndexContext(ctx)
		if err != nil {
			return 0, err
		}
		return ix.MaxDisUpperBound(), nil
	}
	return p.MaxDisContext(ctx)
}

// RowSums returns, for each id, Σ over all answers of δdis(id, ·) — the
// shared subexpression of every Fmono score — accumulated in ascending ID
// order for reproducible floating point. A category plane counts each
// answer's category in O(n). Elsewhere the O(n²) scan polls ctx, and only
// a completed scan is cached; without a matrix the scan computes pairs
// directly without storing them, so the memory guard holds.
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
	dis := p.Dis
	if !p.triReady.Load() {
		// The scan never asks for the diagonal (j != i below).
		dis = func(i, j int) float64 {
			if i > j {
				i, j = j, i
			}
			return p.rawDis(i, j)
		}
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
				g += dis(i, j)
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

// appendAnswer interns one more answer — the shared growth step behind the
// streaming Append and the incremental Extend/Rebase: the tuple (and its
// precomputed key, when a Keyed scorer is present) joins the ID space, its
// relevance is evaluated once, and the running max is maintained.
func (p *Plane) appendAnswer(t relation.Tuple) int {
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

// appendCopied interns the answer src interned as oldID, carrying its
// already-evaluated relevance (and key) over instead of recomputing them.
func (p *Plane) appendCopied(src *Plane, oldID int) int {
	id := len(p.answers)
	p.answers = append(p.answers, src.answers[oldID])
	if p.keys != nil {
		p.keys = append(p.keys, src.keys[oldID])
	}
	r := src.rel[oldID]
	p.rel = append(p.rel, r)
	if r > p.maxRel {
		p.maxRel = r
	}
	return id
}

// Append interns a new answer on a streaming plane, returning its ID.
// Distances to it are memoized on first use, so an append is O(1) beyond
// its relevance evaluation. Single-writer: the streaming procedures append
// from the evaluation goroutine only.
func (p *Plane) Append(t relation.Tuple) int {
	if !p.streaming {
		panic("objective: Append on a non-streaming plane")
	}
	return p.appendAnswer(t)
}

// Extend returns a new plane over the old answers plus added (which must be
// sorted ascending by Tuple.Compare and disjoint from the old answers, as
// the old answers themselves must be sorted). See Rebase.
func (p *Plane) Extend(ctx context.Context, added []relation.Tuple) (*Plane, error) {
	return p.Rebase(ctx, added, nil)
}

// Retire returns a new plane with the given interned IDs tombstoned out of
// the answer set. See Rebase.
func (p *Plane) Retire(ctx context.Context, retired []int) (*Plane, error) {
	return p.Rebase(ctx, nil, retired)
}

// Rebase builds the plane for an incrementally maintained answer set: the
// current answers minus the retired IDs, merged with the added tuples in
// canonical order. Score state is carried over instead of recomputed —
// relevance values and keys are copied for surviving IDs, and when the
// matrix is filled (with the regime re-resolved at the new size) every
// surviving pair is a float copy, so only the O(n·|added|)
// pairs touching a new tuple evaluate δdis. In the memoized and indexed
// regimes nothing is precomputed, exactly as on a cold build — the metric
// index rebuilds lazily over the merged answers — and the cache entries of
// surviving pairs are carried across under their new IDs.
//
// The result is bit-identical to a plane built from scratch over the new
// answer set: δrel/δdis are pure per-pair functions, so copied values equal
// recomputed ones, and the derived scalars (maxRel, maxDis) are rescanned.
// The receiver is left untouched and remains valid — in-flight solves keep
// reading the old plane while the caller swaps the new one in.
//
// Contract: the plane is non-streaming, its answers are sorted ascending by
// Tuple.Compare, and added is sorted and disjoint from the surviving
// answers. Retired IDs must be valid; duplicates are tolerated.
func (p *Plane) Rebase(ctx context.Context, added []relation.Tuple, retired []int) (*Plane, error) {
	if p.streaming {
		panic("objective: Rebase on a streaming plane")
	}
	n := len(p.answers)
	alive := make([]bool, n)
	for i := range alive {
		alive[i] = true
	}
	dead := 0
	for _, id := range retired {
		if alive[id] {
			alive[id] = false
			dead++
		}
	}
	m := n - dead + len(added)
	// The regime is re-resolved at the new size: insert batches can push a
	// materialized plane over the guard (it degrades) and retire batches
	// can bring an oversized one back under it (it re-materializes), each
	// matching what a cold build at the new size would pick.
	newRegime := resolveRegime(p.want, m, false, p.disFn)
	q := &Plane{
		answers:  make([]relation.Tuple, 0, m),
		rel:      make([]float64, 0, m),
		relFn:    p.relFn,
		disFn:    p.disFn,
		keyedRel: p.keyedRel,
		keyedDis: p.keyedDis,
		want:     p.want,
		regime:   newRegime,
		shardCap: memoShardCap(newRegime, m),
		shards:   make([]memoShard, memoShards),
	}
	if p.keys != nil {
		q.keys = make([]string, 0, m)
	}
	// Merge surviving old IDs with the added tuples in ascending order,
	// recording each new ID's provenance (old ID, or -1 for added).
	poll := ctxpoll.New(ctx)
	fromOld := make([]int, 0, m)
	i, j := 0, 0
	for i < n || j < len(added) {
		if poll.Stop() {
			return nil, poll.Err()
		}
		for i < n && !alive[i] {
			i++
		}
		if i >= n && j >= len(added) {
			break // only tombstones remained
		}
		switch {
		case i >= n:
			q.appendAnswer(added[j])
			fromOld = append(fromOld, -1)
			j++
		case j >= len(added) || p.answers[i].Compare(added[j]) < 0:
			q.appendCopied(p, i)
			fromOld = append(fromOld, i)
			i++
		default:
			q.appendAnswer(added[j])
			fromOld = append(fromOld, -1)
			j++
		}
	}
	// The retire path can lower the max relevance: rescan so the bound
	// matches a cold build exactly.
	if dead > 0 {
		q.maxRel = 0
		for _, r := range q.rel {
			if r > q.maxRel {
				q.maxRel = r
			}
		}
	}
	// A category store is rebuilt from the carried δrel values: grouping
	// and sorting is cheap next to the delta evaluation that fed it.
	if err := q.buildCategories(ctx); err != nil {
		return nil, err
	}
	if q.cats != nil {
		return q, nil
	}
	if q.regime == RegimeMaterialized && p.triReady.Load() {
		// Matrix → matrix: copy surviving pairs, evaluate pairs that
		// touch an added tuple, and track the running max like the cold
		// fill does.
		tri := make([]float64, m*(m-1)/2)
		maxDis := 0.0
		for b := 1; b < m; b++ {
			if poll.Stop() {
				return nil, poll.Err()
			}
			off := b * (b - 1) / 2
			ob := fromOld[b]
			for a := 0; a < b; a++ {
				var d float64
				if oa := fromOld[a]; oa >= 0 && ob >= 0 {
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
		return q, nil
	}
	// No matrix to carry (indexed and memoized regimes, or a matrix whose
	// source wasn't filled): distances stay on demand and — in the
	// indexed regime — the index rebuilds lazily on first use, which is
	// trivially identical to a cold build since it is a pure function of
	// the merged answer set. Carry cached pairs of surviving IDs across
	// under their new IDs so the memo warmth survives the rebase, holding
	// the new plane's per-shard cap (no evictions during carry: cold pairs
	// just stay uncarried).
	if !p.triReady.Load() {
		old2new := make([]int, n)
		for k := range old2new {
			old2new[k] = -1
		}
		for newID, oldID := range fromOld {
			if oldID >= 0 {
				old2new[oldID] = newID
			}
		}
		for s := range p.shards {
			shard := &p.shards[s]
			shard.mu.Lock()
			for key, d := range shard.m {
				oi, oj := int(key>>32), int(key&0xffffffff)
				ni, nj := old2new[oi], old2new[oj]
				if ni < 0 || nj < 0 {
					continue
				}
				if ni > nj {
					ni, nj = nj, ni
				}
				nkey := uint64(ni)<<32 | uint64(nj)
				ns := &q.shards[(nkey*0x9E3779B97F4A7C15)>>(64-6)]
				if ns.m == nil {
					ns.m = make(map[uint64]float64)
				}
				if len(ns.m) >= q.shardCap {
					continue
				}
				ns.m[nkey] = d
			}
			shard.mu.Unlock()
		}
	}
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
