package diversification

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// ErrUnknownStatement is returned by Service calls naming a statement that
// was never registered (or was deregistered). Serving layers map it to a
// not-found status.
var ErrUnknownStatement = errors.New("diversification: unknown statement")

// ErrOverloaded is returned when the admission queue is full: the
// concurrency limit is saturated and MaxQueue requests are already
// waiting. Serving layers map it to a retryable too-many-requests status —
// shedding load at the door is what keeps tail latency bounded for the
// requests that do get in.
var ErrOverloaded = errors.New("diversification: service overloaded (admission queue full)")

// ServiceConfig tunes a Service.
type ServiceConfig struct {
	// MaxConcurrent bounds how many requests execute simultaneously; 0
	// means GOMAXPROCS. Solves are CPU-bound, so admitting more than the
	// core count only adds contention.
	MaxConcurrent int
	// MaxQueue bounds how many admitted-but-waiting requests may queue for
	// an execution slot before new arrivals are rejected with
	// ErrOverloaded; 0 means 4×MaxConcurrent. Negative disables queueing
	// (full slots reject immediately).
	MaxQueue int
	// DefaultTimeout is applied to requests whose context carries no
	// deadline of its own; 0 leaves them unbounded. The deadline covers
	// queue wait plus execution, so a request cannot consume a slot
	// longer than the caller is still listening.
	DefaultTimeout time.Duration
	// ShutdownGrace bounds how long Close waits for in-flight requests to
	// drain before giving up (default 5s). A Close context with an earlier
	// deadline wins.
	ShutdownGrace time.Duration
	// CacheEntries bounds the generation-keyed result cache; 0 means the
	// default (1024 entries), negative disables caching and request
	// coalescing entirely. The cache is exact by construction — keys embed
	// the database generation, which every mutation advances — so the only
	// reason to disable it is measurement.
	CacheEntries int
}

// CacheMetrics is the result cache's counter block inside Metrics. All
// fields stay zero when the cache is disabled.
type CacheMetrics struct {
	Hits          int64 `json:"hits"`          // served from a stored response
	Misses        int64 `json:"misses"`        // cacheable requests that executed a solve
	Coalesced     int64 `json:"coalesced"`     // followers served by a concurrent identical solve
	Evictions     int64 `json:"evictions"`     // entries dropped by the LRU bound
	Entries       int64 `json:"entries"`       // entries currently stored
	Invalidations int64 `json:"invalidations"` // entries swept because their generation went stale
}

// Metrics is a point-in-time snapshot of the service counters, exported
// with stable JSON field names for the wire protocol.
type Metrics struct {
	Statements int   `json:"statements"`
	Requests   int64 `json:"requests"` // admitted calls, including refreshes
	Failures   int64 `json:"failures"` // calls that returned an error
	Rejected   int64 `json:"rejected"` // shed by the admission queue
	// CanceledWaiting counts requests whose context expired while they
	// were waiting — parked in the admission queue, or waiting on a
	// coalesced solve — so every arrival lands in exactly one of
	// Requests, Rejected or CanceledWaiting.
	CanceledWaiting int64 `json:"canceled_waiting"`
	InFlight        int64 `json:"in_flight"`   // currently executing
	QueueDepth      int64 `json:"queue_depth"` // currently waiting for a slot
	QueuePeak       int64 `json:"queue_peak"`  // high-water mark of QueueDepth

	// Cache is the generation-keyed result cache's counter block; all
	// zeros when caching is disabled (ServiceConfig.CacheEntries < 0).
	Cache CacheMetrics `json:"cache"`

	// Durability carries the write-ahead-log and recovery counters of a
	// durable engine; nil (and absent on the wire) for in-memory engines.
	Durability *DurabilityMetrics `json:"durability,omitempty"`

	// Plane aggregates the cached score planes across registered
	// statements; nil (and absent on the wire) while no statement has a
	// plane resident.
	Plane *PlaneMetrics `json:"plane,omitempty"`

	// Cluster carries a coordinator's shard fan-out counters; nil (and
	// absent on the wire) outside cluster-coordinator mode.
	Cluster *ClusterMetrics `json:"cluster,omitempty"`
}

// PlaneMetrics aggregates the score planes cached by the registered
// statements' published snapshots: how many are resident, how each serves
// distances (regime name -> count) and the estimated bytes they hold.
type PlaneMetrics struct {
	Planes         int64            `json:"planes"`
	Regimes        map[string]int64 `json:"regimes,omitempty"`
	EstimatedBytes int64            `json:"estimated_bytes"`
}

// Service is the serving facade over one Engine: a named statement
// registry (prepare once under a name, query it forever), per-request
// deadlines, and a bounded admission semaphore so a traffic burst degrades
// into fast rejections instead of a convoy. It is the layer cmd/divserve
// exposes over HTTP; embedders can use it directly for the same admission
// discipline in-process.
//
// A Service is safe for concurrent use, including concurrently with
// Engine mutations: every query runs under the engine's read lock via the
// Prepared pipeline.
type Service struct {
	eng *Engine
	cfg ServiceConfig

	mu    sync.RWMutex
	stmts map[string]*Prepared

	sem chan struct{}

	// cache is the generation-keyed result cache, nil when disabled;
	// flights (guarded by fmu) coalesces concurrent identical-key misses
	// onto one pipeline execution.
	cache   *resultCache
	fmu     sync.Mutex
	flights map[string]*flight

	requests        atomic.Int64
	failures        atomic.Int64
	rejected        atomic.Int64
	canceledWaiting atomic.Int64
	inFlight        atomic.Int64
	queued          atomic.Int64
	peak            atomic.Int64

	// closed flips once in Close: new admissions are rejected while
	// in-flight requests drain.
	closed atomic.Bool
}

// NewService wraps an engine in a serving facade. Zero-value config fields
// take the documented defaults.
func NewService(e *Engine, cfg ServiceConfig) *Service {
	if cfg.MaxConcurrent <= 0 {
		cfg.MaxConcurrent = runtime.GOMAXPROCS(0)
	}
	if cfg.MaxQueue == 0 {
		cfg.MaxQueue = 4 * cfg.MaxConcurrent
	}
	if cfg.MaxQueue < 0 {
		cfg.MaxQueue = 0
	}
	if cfg.CacheEntries == 0 {
		cfg.CacheEntries = defaultCacheEntries
	}
	s := &Service{
		eng:   e,
		cfg:   cfg,
		stmts: make(map[string]*Prepared),
		sem:   make(chan struct{}, cfg.MaxConcurrent),
	}
	if cfg.CacheEntries > 0 {
		s.cache = newResultCache(cfg.CacheEntries)
		s.flights = make(map[string]*flight)
	}
	return s
}

// Engine returns the engine the service fronts; mutations go through it.
func (s *Service) Engine() *Engine { return s.eng }

// Register compiles src under name: parse, validate, classify and bind the
// options once, exactly as Engine.Prepare does. Re-registering a name
// replaces its statement atomically; in-flight requests on the old handle
// finish against it. The error for an invalid query or option set is the
// Prepare error, typed (ArgError) where the argument was at fault.
func (s *Service) Register(name, src string, opts ...Option) error {
	if name == "" {
		return argErrorf("statement", "name must be non-empty")
	}
	p, err := s.eng.Prepare(src, opts...)
	if err != nil {
		return err
	}
	s.mu.Lock()
	s.stmts[name] = p
	s.mu.Unlock()
	return nil
}

// Deregister removes a named statement, reporting whether it existed.
func (s *Service) Deregister(name string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, ok := s.stmts[name]
	delete(s.stmts, name)
	return ok
}

// Prepared returns the registered statement's handle, for callers that
// want the full Prepared surface (plans, batches) on a named statement.
func (s *Service) Prepared(name string) (*Prepared, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	p, ok := s.stmts[name]
	return p, ok
}

// Statements lists the registered statement names, sorted.
func (s *Service) Statements() []string {
	s.mu.RLock()
	names := make([]string, 0, len(s.stmts))
	for name := range s.stmts {
		names = append(names, name)
	}
	s.mu.RUnlock()
	sort.Strings(names)
	return names
}

// Metrics snapshots the service counters.
func (s *Service) Metrics() Metrics {
	s.mu.RLock()
	n := len(s.stmts)
	stmts := make([]*Prepared, 0, n)
	for _, st := range s.stmts {
		stmts = append(stmts, st)
	}
	s.mu.RUnlock()
	m := Metrics{
		Statements:      n,
		Requests:        s.requests.Load(),
		Failures:        s.failures.Load(),
		Rejected:        s.rejected.Load(),
		CanceledWaiting: s.canceledWaiting.Load(),
		InFlight:        s.inFlight.Load(),
		QueueDepth:      s.queued.Load(),
		QueuePeak:       s.peak.Load(),
	}
	if s.cache != nil {
		m.Cache = CacheMetrics{
			Hits:          s.cache.hits.Load(),
			Misses:        s.cache.misses.Load(),
			Coalesced:     s.cache.coalesced.Load(),
			Evictions:     s.cache.evictions.Load(),
			Entries:       int64(s.cache.len()),
			Invalidations: s.cache.invalidations.Load(),
		}
	}
	if dm, ok := s.eng.durabilityMetrics(); ok {
		m.Durability = &dm
	}
	var pm PlaneMetrics
	for _, st := range stmts {
		regime, bytes, ok := st.planeMetrics()
		if !ok {
			continue
		}
		pm.Planes++
		if pm.Regimes == nil {
			pm.Regimes = make(map[string]int64)
		}
		pm.Regimes[regime]++
		pm.EstimatedBytes += bytes
	}
	if pm.Planes > 0 {
		m.Plane = &pm
	}
	return m
}

// withDeadline applies the configured default timeout to contexts that
// carry no deadline of their own.
func (s *Service) withDeadline(ctx context.Context) (context.Context, context.CancelFunc) {
	if s.cfg.DefaultTimeout <= 0 {
		return ctx, func() {}
	}
	if _, ok := ctx.Deadline(); ok {
		return ctx, func() {}
	}
	return context.WithTimeout(ctx, s.cfg.DefaultTimeout)
}

// admit acquires an execution slot, queueing up to MaxQueue waiters and
// rejecting beyond that. The returned release func must be called when the
// request finishes. Waiting respects ctx: a caller that gives up (deadline,
// disconnect) leaves the queue immediately.
func (s *Service) admit(ctx context.Context) (func(), error) {
	if s.closed.Load() {
		s.rejected.Add(1)
		return nil, ErrOverloaded
	}
	select {
	case s.sem <- struct{}{}:
	default:
		// All slots busy: join the bounded queue.
		q := s.queued.Add(1)
		if q > int64(s.cfg.MaxQueue) {
			s.queued.Add(-1)
			s.rejected.Add(1)
			return nil, ErrOverloaded
		}
		for {
			peak := s.peak.Load()
			if q <= peak || s.peak.CompareAndSwap(peak, q) {
				break
			}
		}
		select {
		case s.sem <- struct{}{}:
			s.queued.Add(-1)
		case <-ctx.Done():
			// Neither admitted nor shed: without its own counter this
			// outcome would make Requests+Rejected undercount arrivals.
			s.queued.Add(-1)
			s.canceledWaiting.Add(1)
			return nil, ctx.Err()
		}
	}
	s.inFlight.Add(1)
	return func() {
		s.inFlight.Add(-1)
		<-s.sem
	}, nil
}

// Close drains the service for shutdown: new admissions are rejected with
// ErrOverloaded immediately, and Close waits — up to ctx's deadline or
// ShutdownGrace, whichever is earlier — for every in-flight and queued
// request to finish. It returns nil when the service drained, or an error
// naming how many requests were still running when the grace expired
// (they keep running; the caller decides whether to hard-stop). Close is
// idempotent; it does not close the engine.
func (s *Service) Close(ctx context.Context) error {
	s.closed.Store(true)
	grace := s.cfg.ShutdownGrace
	if grace <= 0 {
		grace = 5 * time.Second
	}
	if _, ok := ctx.Deadline(); !ok {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, grace)
		defer cancel()
	}
	ticker := time.NewTicker(2 * time.Millisecond)
	defer ticker.Stop()
	for {
		inflight, queued := s.inFlight.Load(), s.queued.Load()
		if inflight == 0 && queued == 0 {
			return nil
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("diversification: shutdown grace expired with %d in flight, %d queued", inflight, queued)
		case <-ticker.C:
		}
	}
}

// Do answers a Request against a registered statement. The fast path is a
// hash lookup: with caching enabled, the request canonicalizes into a
// (statement, merged settings, database generation) key, and a stored
// response for that exact key is returned without touching the admission
// gate — the generation in the key proves it is not stale. Concurrent
// identical-key misses coalesce onto one pipeline execution; everything
// else goes through the admission gate (apply the default deadline, wait
// for or be refused an execution slot) and the statement's Request → Plan
// → Execute pipeline.
func (s *Service) Do(ctx context.Context, name string, req Request) (*Response, error) {
	p, ok := s.Prepared(name)
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownStatement, name)
	}
	ctx, cancel := s.withDeadline(ctx)
	defer cancel()
	if s.cache == nil || s.closed.Load() {
		// No cache, or draining: the plain admission path (which rejects
		// closed services) handles it.
		return s.execute(ctx, p, req)
	}
	base, cacheable := p.requestKey(req)
	if !cacheable {
		return s.execute(ctx, p, req)
	}
	start := time.Now()
	key := fmt.Sprintf("g%d|%s", s.eng.Generation(), base)
	if resp, ok := s.cache.get(key); ok {
		s.requests.Add(1)
		return markCached(resp, time.Since(start)), nil
	}
	fl, leader := s.joinFlight(key)
	if !leader {
		select {
		case <-fl.done:
			if fl.err == nil && fl.resp != nil && !fl.resp.Degraded {
				s.requests.Add(1)
				s.cache.coalesced.Add(1)
				return markCached(cacheableCopy(fl.resp), time.Since(start)), nil
			}
			// The leader failed or answered approximately under its own
			// deadline pressure; neither outcome may poison this caller —
			// run our own solve under our own context.
			s.cache.misses.Add(1)
			return s.execute(ctx, p, req)
		case <-ctx.Done():
			s.canceledWaiting.Add(1)
			return nil, ctx.Err()
		}
	}
	// Double-checked lookup: a previous leader may have stored this key
	// between our miss and our flight registration. It stores before it
	// releases its flight, and flight handoff goes through fmu, so a hit
	// here observes the completed put — which makes "exactly one solve per
	// (key, generation)" a guarantee rather than best-effort suppression.
	if resp, ok := s.cache.get(key); ok {
		s.finishFlight(key, fl, resp, nil)
		s.requests.Add(1)
		return markCached(resp, time.Since(start)), nil
	}
	s.cache.misses.Add(1)
	var resp *Response
	var err error
	func() {
		// Store, then publish, inside a defer: the entry must be visible
		// before the flight closes (a request landing between the two
		// would otherwise re-solve), and followers must be woken even if
		// the pipeline panics.
		defer func() {
			if err == nil && resp != nil && !resp.Degraded && resp.Generation != 0 {
				// Store under the generation the solve actually ran at (a
				// mutation may have slipped between key computation and
				// the engine lock); degraded and deadline-shaped responses
				// are never stored.
				s.cache.put(fmt.Sprintf("g%d|%s", resp.Generation, base), resp.Generation, cacheableCopy(resp))
			}
			s.finishFlight(key, fl, resp, err)
		}()
		resp, err = s.execute(ctx, p, req)
	}()
	return resp, err
}

// execute runs one request through the admission gate and the pipeline,
// maintaining the request/failure counters. It is the single accounting
// point shared by cached and uncached paths.
func (s *Service) execute(ctx context.Context, p *Prepared, req Request) (*Response, error) {
	release, err := s.admit(ctx)
	if err != nil {
		return nil, err
	}
	defer release()
	s.requests.Add(1)
	resp, err := p.Do(ctx, req)
	if err != nil {
		s.failures.Add(1)
		return nil, err
	}
	return resp, nil
}

// Refresh brings a registered statement's caches up to date (snapshot and
// eagerly materialized plane), through the same admission gate as queries:
// a refresh is rebuild-shaped work and must not bypass the concurrency
// bound.
func (s *Service) Refresh(ctx context.Context, name string) (RefreshInfo, error) {
	p, ok := s.Prepared(name)
	if !ok {
		return RefreshInfo{}, fmt.Errorf("%w: %q", ErrUnknownStatement, name)
	}
	ctx, cancel := s.withDeadline(ctx)
	defer cancel()
	release, err := s.admit(ctx)
	if err != nil {
		return RefreshInfo{}, err
	}
	defer release()
	s.requests.Add(1)
	info, err := p.Refresh(ctx)
	if err != nil {
		s.failures.Add(1)
	}
	return info, err
}

// SnapshotInfo is the wire form of a completed snapshot.
type SnapshotInfo struct {
	// Generation the snapshot captured; recovery from it replays only the
	// log records above this.
	Generation uint64 `json:"generation"`
}

// Snapshot persists the engine's full database and prunes the write-ahead
// log, through the same admission gate as queries — serializing the store
// is rebuild-shaped work and must not bypass the concurrency bound. It
// fails with ErrNotDurable on an in-memory engine.
func (s *Service) Snapshot(ctx context.Context) (SnapshotInfo, error) {
	ctx, cancel := s.withDeadline(ctx)
	defer cancel()
	release, err := s.admit(ctx)
	if err != nil {
		return SnapshotInfo{}, err
	}
	defer release()
	s.requests.Add(1)
	gen, err := s.eng.Snapshot(ctx)
	if err != nil {
		s.failures.Add(1)
		return SnapshotInfo{}, err
	}
	return SnapshotInfo{Generation: gen}, nil
}
