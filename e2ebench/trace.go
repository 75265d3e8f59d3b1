package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	diversification "repro"
	"repro/httpapi"
	"repro/internal/cluster"
	"repro/internal/load"
)

// span is one timed interval at a layer boundary, recorded by the
// benchmark's own wrappers around the calls into each layer. Spans of one
// operation share Op; Parent is the span whose interval encloses this one
// (0 for a root).
type span struct {
	Op     int               `json:"op"`
	ID     int               `json:"id"`
	Parent int               `json:"parent"`
	Name   string            `json:"name"`
	Start  int64             `json:"start"` // ns since the trace began
	End    int64             `json:"end"`
	Attrs  map[string]string `json:"attrs,omitempty"`
}

func (s *span) ms() float64 { return float64(s.End-s.Start) / 1e6 }

// tracer keeps spans in memory until the run ends.
type tracer struct {
	epoch time.Time
	on    atomic.Bool

	mu      sync.Mutex
	pending []span // server spans of the operation in flight
	spans   []span
	nextID  int
}

func (tr *tracer) now() int64 { return time.Since(tr.epoch).Nanoseconds() }

// wrap records every request h serves, while tracing is on, as a span
// named name.
func (tr *tracer) wrap(name string, attrs map[string]string, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !tr.on.Load() {
			h.ServeHTTP(w, r)
			return
		}
		start := tr.now()
		h.ServeHTTP(w, r)
		end := tr.now()
		a := map[string]string{"route": r.URL.Path}
		for k, v := range attrs {
			a[k] = v
		}
		tr.mu.Lock()
		tr.pending = append(tr.pending, span{Name: name, Start: start, End: end, Attrs: a})
		tr.mu.Unlock()
	})
}

// drop discards server spans recorded outside any kept operation.
func (tr *tracer) drop() {
	tr.mu.Lock()
	tr.pending = nil
	tr.mu.Unlock()
}

// finish files operation op: root is its client span, and the server
// spans recorded since the previous operation nest under it by time
// (operations run one at a time, so every such span belongs to op). The
// shadow spans are roots of their own. It returns the index of root in
// tr.spans.
func (tr *tracer) finish(op int, root span, shadow []span) int {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	tree := append([]span{root}, tr.pending...)
	tr.pending = nil
	sort.SliceStable(tree[1:], func(i, j int) bool {
		a, b := tree[1+i], tree[1+j]
		return a.Start < b.Start || a.Start == b.Start && a.End > b.End
	})
	var open []int // indices of enclosing spans, innermost last
	for i := range tree {
		tr.nextID++
		tree[i].Op, tree[i].ID = op, tr.nextID
		for len(open) > 0 && tree[open[len(open)-1]].End < tree[i].End {
			open = open[:len(open)-1]
		}
		if len(open) > 0 {
			tree[i].Parent = tree[open[len(open)-1]].ID
		}
		open = append(open, i)
	}
	for i := range shadow {
		tr.nextID++
		shadow[i].Op, shadow[i].ID = op, tr.nextID
	}
	at := len(tr.spans)
	tr.spans = append(append(tr.spans, tree...), shadow...)
	return at
}

// selfMs is a span's duration minus the part of it its children cover.
func selfMs(s span, children []span) float64 {
	iv := make([][2]int64, 0, len(children))
	for _, c := range children {
		iv = append(iv, [2]int64{max(c.Start, s.Start), min(c.End, s.End)})
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	covered, reach := int64(0), s.Start
	for _, v := range iv {
		if v[1] <= reach {
			continue
		}
		covered += v[1] - max(v[0], reach)
		reach = v[1]
	}
	return float64(s.End-s.Start-covered) / 1e6
}

// stack is the traced run's in-process copy of a workload's deployment:
// the same generated inputs and statement settings, served by
// httpapi.NewHandler (and NewClusterHandler) on loopback with every
// mounted handler wrapped in a timing span.
type stack struct {
	addr    string
	servers []*http.Server
	serving sync.WaitGroup // one per server, done when Serve returns
	engines []*diversification.Engine
	svcs    []*diversification.Service // the served engines' services
	coord   *cluster.Coordinator
	opts    []diversification.Option

	// The shadow replays each read on engines[0] outside the root span:
	// a second Service for service.do, a second Prepared for the plan and
	// execute stages.
	shadowSvc  *diversification.Service
	shadowPrep *diversification.Prepared
}

// twin is a second registration of the statement. The overhead
// measurement sends each read to both, once traced and once not, so the
// two copies see identical work (and identical cache histories).
const twin = statement + "_twin"

func newStack(ctx context.Context, w *workload, ds *dataset, dir string, tr *tracer) (*stack, error) {
	st := &stack{opts: []diversification.Option{
		// divserve's flag defaults plus the flags serveArgs passes.
		diversification.WithK(3),
		diversification.WithObjective(diversification.MaxSum),
		diversification.WithLambda(0.5),
		diversification.WithAlgorithm(diversification.Greedy),
		diversification.WithRelevance(diversification.AttrRelevance(ds.relAttr)),
		diversification.WithDistance(diversification.AttrDistance(ds.disAttr)),
	}}
	built := false
	defer func() {
		if !built {
			st.close()
		}
	}()
	shards := 1
	if w.cluster {
		shards = 2
	}
	var addrs []string
	for i := 0; i < shards; i++ {
		var keep func([]interface{}) bool
		name, attrs := "httpapi.server", map[string]string(nil)
		if w.cluster {
			keep = func(row []interface{}) bool { return cluster.ShardOf(row, shards) == i }
			name, attrs = "cluster.shard", map[string]string{"shard": fmt.Sprint(i)}
		}
		e, err := openEngine(ctx, ds, filepath.Join(dir, fmt.Sprintf("data%d", i)), keep, w.durable)
		if err != nil {
			return nil, err
		}
		st.engines = append(st.engines, e)
		svc := diversification.NewService(e, diversification.ServiceConfig{})
		for _, n := range []string{statement, twin} {
			if err := svc.Register(n, ds.stmt, st.opts...); err != nil {
				return nil, err
			}
		}
		st.svcs = append(st.svcs, svc)
		addr, err := st.serve(tr.wrap(name, attrs, httpapi.NewHandler(svc)))
		if err != nil {
			return nil, err
		}
		addrs = append(addrs, addr)
	}
	st.addr = addrs[0]
	var err error
	if w.cluster {
		if st.coord, err = cluster.New(cluster.Config{Shards: addrs, Slack: -1, DistanceAttr: ds.disAttr}); err != nil {
			return nil, err
		}
		if st.addr, err = st.serve(tr.wrap("cluster.coordinator", nil, httpapi.NewClusterHandler(st.coord))); err != nil {
			return nil, err
		}
	}
	st.shadowSvc = diversification.NewService(st.engines[0], diversification.ServiceConfig{})
	if err := st.shadowSvc.Register(statement, ds.stmt, st.opts...); err != nil {
		return nil, err
	}
	if st.shadowPrep, err = st.engines[0].Prepare(ds.stmt, st.opts...); err != nil {
		return nil, err
	}
	built = true
	return st, nil
}

// openEngine loads ds into a new engine, keeping the rows keep accepts. A
// durable engine is seeded as the served one is: loaded without fsync,
// snapshotted, closed, then recovered with fsync always.
func openEngine(ctx context.Context, ds *dataset, dir string, keep func([]interface{}) bool, durable bool) (*diversification.Engine, error) {
	fill := func(e *diversification.Engine) error {
		for _, t := range ds.tables {
			if err := load.TSVFilter(e, t.name, t.file, keep); err != nil {
				return err
			}
		}
		return nil
	}
	if !durable {
		e := diversification.NewEngine()
		return e, fill(e)
	}
	e, _, err := diversification.OpenEngine(diversification.DurabilityConfig{Dir: dir, Fsync: "off"})
	if err != nil {
		return nil, err
	}
	if err := fill(e); err != nil {
		e.Close()
		return nil, err
	}
	if _, err := e.Snapshot(ctx); err != nil {
		e.Close()
		return nil, err
	}
	if err := e.Close(); err != nil {
		return nil, err
	}
	e, _, err = diversification.OpenEngine(diversification.DurabilityConfig{Dir: dir, Fsync: "always"})
	return e, err
}

func (st *stack) serve(h http.Handler) (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	srv := &http.Server{Handler: h}
	st.servers = append(st.servers, srv)
	st.serving.Add(1)
	go func() {
		defer st.serving.Done()
		_ = srv.Serve(l) // ErrServerClosed once close shuts it down
	}()
	return l.Addr().String(), nil
}

// close shuts the servers down, waits for them, and closes the engines.
// Errors are dropped: the run has measured everything it reports.
func (st *stack) close() {
	for _, s := range st.servers {
		_ = s.Close()
	}
	st.serving.Wait()
	for _, e := range st.engines {
		_ = e.Close()
	}
}

// request lowers a shape onto the library's typed request.
func request(sh shape) (diversification.Request, error) {
	obj, err := diversification.ParseObjective(sh.Objective)
	if err != nil {
		return diversification.Request{}, err
	}
	k, l := sh.K, sh.Lambda
	return diversification.Request{K: &k, Lambda: &l, Objective: &obj}, nil
}

// shadow replays a read outside its root span: service.do through the
// second Service, then pipeline.plan and pipeline.execute on the second
// Prepared. In cluster mode it replays the shard's side on shard 0: the
// coreset extraction, then a plan and execute at k′ = 2k (the coordinator
// asks each shard for k plus a slack of k).
func (st *stack) shadow(ctx context.Context, tr *tracer, sh shape) ([]span, error) {
	req, err := request(sh)
	if err != nil {
		return nil, err
	}
	t0 := tr.now()
	cached := false
	if st.coord != nil {
		cs, err := st.shadowSvc.Coreset(ctx, statement, diversification.CoresetSpec{K: req.K, Lambda: req.Lambda, Objective: req.Objective})
		if err != nil {
			return nil, fmt.Errorf("shadow coreset: %w", err)
		}
		cached = cs.Cached
		kPrime := 2 * sh.K
		req.K = &kPrime
	} else {
		resp, err := st.shadowSvc.Do(ctx, statement, req)
		if err != nil {
			return nil, fmt.Errorf("shadow service: %w", err)
		}
		cached = resp.Cached
	}
	t1 := tr.now()
	pl, err := st.shadowPrep.Plan(ctx, req)
	if err != nil {
		return nil, fmt.Errorf("shadow plan: %w", err)
	}
	t2 := tr.now()
	resp, err := pl.Execute(ctx)
	if err != nil {
		return nil, fmt.Errorf("shadow execute: %w", err)
	}
	t3 := tr.now()
	return []span{
		{Name: "service.do", Start: t0, End: t1, Attrs: map[string]string{"cached": fmt.Sprint(cached)}},
		{Name: "pipeline.plan", Start: t1, End: t2, Attrs: map[string]string{"refresh": resp.Refresh.Mode}},
		{Name: "pipeline.execute", Start: t2, End: t3},
	}, nil
}

// cacheCounts sums the result-cache counters of the served engines.
func (st *stack) cacheCounts() (hits, misses int64) {
	for _, s := range st.svcs {
		m := s.Metrics()
		hits += m.Cache.Hits
		misses += m.Cache.Misses
	}
	return hits, misses
}

// probes times Q(D) evaluation and plane construction on engines[0] in
// isolation: eval.full_ms is Engine.QueryContext of the statement, and
// objective.build_ms is a fresh Prepare plus Refresh minus that.
func (st *stack) probes(ctx context.Context, ds *dataset) (evalMs, buildMs float64, answers int, err error) {
	var evals, builds []float64
	for i := 0; i < 3; i++ {
		start := time.Now()
		rs, err := st.engines[0].QueryContext(ctx, ds.stmt)
		if err != nil {
			return 0, 0, 0, err
		}
		evals = append(evals, msSince(start))
		answers = rs.Len()
		start = time.Now()
		p, err := st.engines[0].Prepare(ds.stmt, st.opts...)
		if err != nil {
			return 0, 0, 0, err
		}
		if _, err := p.Refresh(ctx); err != nil {
			return 0, 0, 0, err
		}
		builds = append(builds, msSince(start))
	}
	return median(evals), median(builds) - median(evals), answers, nil
}

// traceState is what a traced run measured.
type traceState struct {
	spans     []span // the traced window's operations, in order
	ops       []opFacts
	rec       *recorder
	overhead  float64 // %, traced vs untraced twin pairs
	pairs     int
	evalMs    float64
	buildMs   float64
	answers   int
	hitRatio  float64
	lookups   int64
	walFsyncs int64
	walBytes  int64
	planeB    int64
	regime    string
	coreset   []float64 // rows the shards shipped per cluster read
}

// opFacts is what the client knows about one traced operation.
type opFacts struct {
	read bool
	ok   bool
	root int // index of the root span in traceState.spans
}

// runTraced replays w's seeded stream one operation at a time against the
// in-process stack: first the overhead pairs, then the traced window, in
// which every read is followed by its shadow replay.
func runTraced(ctx context.Context, cfg *config, w *workload, out string) (*result, error) {
	dir := filepath.Join(cfg.work, w.name+"-traced")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	ds, err := w.gen(rand.New(rand.NewSource(cfg.seed)), dir, cfg.toy)
	if err != nil {
		return nil, fmt.Errorf("generating inputs: %w", err)
	}
	tr := &tracer{epoch: time.Now()}
	st, err := newStack(ctx, w, ds, dir, tr)
	if err != nil {
		return nil, err
	}
	defer st.close()
	ts := &traceState{rec: &recorder{}}
	if ts.evalMs, ts.buildMs, ts.answers, err = st.probes(ctx, ds); err != nil {
		return nil, fmt.Errorf("probes: %w", err)
	}
	t := newTarget(st.addr, ds)
	for _, n := range []string{statement, twin} {
		t.stmt = n
		if _, err := t.firstAnswer(ctx, probe, bootLimit); err != nil {
			return nil, err
		}
	}
	t.stmt = statement
	if _, err := st.shadow(ctx, tr, probe); err != nil {
		return nil, err
	}

	src := w.newSource(cfg.seed, ds)
	next := 0
	warm := &recorder{}
	ts.overhead, ts.pairs, next = overheadPairs(ctx, t, tr, src, warm, time.Now().Add(cfg.seconds/2))

	h0, m0 := st.cacheCounts()
	d0 := st.svcs[0].Metrics().Durability
	until := time.Now().Add(cfg.seconds)
	tr.on.Store(true)
	for ; ctx.Err() == nil && time.Now().Before(until); next++ {
		o := src.at(next)
		from := time.Now()
		ms, ok := t.do(ctx, ts.rec, o, from)
		start := from.Sub(tr.epoch).Nanoseconds()
		root := span{Name: "client", Start: start, End: start + int64(ms*1e6), Attrs: map[string]string{"op": opKind(o)}}
		var shadow []span
		if o.read && ok {
			if shadow, err = st.shadow(ctx, tr, o.shape); err != nil {
				return nil, err
			}
			if st.coord != nil {
				rows := 0.0
				for _, s := range st.coord.Metrics().Cluster.ShardStats {
					rows += float64(s.LastCoresetSize)
				}
				ts.coreset = append(ts.coreset, rows)
			}
		}
		ts.ops = append(ts.ops, opFacts{read: o.read, ok: ok, root: tr.finish(next, root, shadow)})
	}
	tr.on.Store(false)
	tr.mu.Lock()
	ts.spans = tr.spans
	tr.mu.Unlock()
	if ctx.Err() != nil {
		return nil, ctx.Err()
	}
	h1, m1 := st.cacheCounts()
	ts.lookups = (h1 - h0) + (m1 - m0)
	ts.hitRatio = float64(h1-h0) / float64(max(1, ts.lookups))
	m := st.svcs[0].Metrics()
	if d0 != nil && m.Durability != nil {
		ts.walFsyncs, ts.walBytes = m.Durability.Fsyncs-d0.Fsyncs, m.Durability.WALBytes-d0.WALBytes
	}
	var planes []map[string]int64
	for _, s := range st.svcs {
		if p := s.Metrics().Plane; p != nil {
			// Per statement: the service also holds the twin's plane.
			ts.planeB += p.EstimatedBytes / p.Planes
			planes = append(planes, p.Regimes)
		}
	}
	ts.regime = regimeNames(planes)

	if err := writeTrace(out, w.name, cfg.seed, ts.spans); err != nil {
		return nil, err
	}
	r := &result{
		Workload:  w.name,
		Seed:      cfg.seed,
		Seconds:   cfg.seconds.Seconds(),
		Trace:     true,
		Correct:   warm.wrong == 0 && ts.rec.wrong == 0,
		Attempted: ts.rec.attempted,
		Failed:    ts.rec.failed,
		Metrics:   tracedMetrics(ts),
		Layers:    layers(ts.spans),
		Attrs:     map[string]string{"regime": ts.regime},
		Host:      hostInfo(),
	}
	return r, nil
}

func opKind(o op) string {
	switch {
	case !o.read:
		return "write"
	case o.fresh:
		return "fresh-read"
	default:
		return "read"
	}
}

// overheadPairs measures what tracing adds (trace.overhead_pct), with
// spans off and on over the same work: each read of the stream's
// first operations (at most 500, and only until the deadline) is sent to
// the statement and to its twin back to back, one copy traced and one
// not, alternating which copy goes first and which is traced. Writes go
// once, untraced. It returns the median over pairs of traced / untraced
// latency − 1, in percent (a median, so that one pair caught by a host
// stall cannot swing it), the number of pairs, and the stream position
// reached.
func overheadPairs(ctx context.Context, t *target, tr *tracer, src source, rec *recorder, until time.Time) (pct float64, pairs, next int) {
	var ratios []float64
	for ; next < 500 && ctx.Err() == nil && time.Now().Before(until); next++ {
		o := src.at(next)
		if !o.read {
			t.do(ctx, rec, o, time.Now())
			continue
		}
		order := []string{statement, twin}
		if next/2%2 == 1 {
			order[0], order[1] = order[1], order[0]
		}
		var on, off float64
		for k, n := range order {
			traced := (k == 0) == (next%2 == 1)
			tr.on.Store(traced)
			t.stmt = n
			ms, ok := t.read(ctx, rec, o.shape, o.fresh, time.Now())
			tr.on.Store(false)
			tr.drop()
			if !ok {
				break
			}
			if traced {
				on = ms
			} else {
				off = ms
			}
		}
		if on > 0 && off > 0 {
			ratios = append(ratios, on/off)
		}
	}
	t.stmt = statement
	if len(ratios) == 0 {
		return 0, 0, next
	}
	return (median(ratios) - 1) * 100, len(ratios), next
}

func writeTrace(dir, workload string, seed int64, spans []span) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, fmt.Sprintf("trace-%s.json", workload)))
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(map[string]any{"workload": workload, "seed": seed, "spans": spans}); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// layerRow is one row of the per-layer table: a layer's span count, the
// p50/p95 of its self time and its share of root (client) time. The
// shadow layers (service, pipeline) replay reads outside the root span,
// so their share compares their size with the request's.
type layerRow struct {
	Name      string  `json:"name"`
	N         int     `json:"n"`
	SelfP50   float64 `json:"self_p50_ms"`
	SelfP95   float64 `json:"self_p95_ms"`
	RootShare float64 `json:"root_share"`
}

// layers groups the traced spans by name and computes self times.
func layers(spans []span) []layerRow {
	children := map[int][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := map[string][]float64{}
	var names []string
	rootMs := 0.0
	for _, s := range spans {
		if s.Name == "client" {
			rootMs += s.ms()
		}
		if _, ok := self[s.Name]; !ok {
			names = append(names, s.Name)
		}
		self[s.Name] = append(self[s.Name], selfMs(s, children[s.ID]))
	}
	out := make([]layerRow, 0, len(names))
	for _, n := range names {
		sum := 0.0
		for _, v := range self[n] {
			sum += v
		}
		out = append(out, layerRow{Name: n, N: len(self[n]), SelfP50: median(self[n]), SelfP95: percentile(self[n], 95), RootShare: sum / max(rootMs, 1e-9)})
	}
	return out
}

// tracedMetrics derives the per-layer metrics of a traced run: the
// set BENCHMARK.json lists, then extras for the layers a workload exercises.
func tracedMetrics(ts *traceState) []metric {
	byID := map[int]*span{}
	children := map[int][]span{}
	for i := range ts.spans {
		s := &ts.spans[i]
		byID[s.ID] = s
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], *s)
		}
	}
	var server, clientSelf, writeServer, fanout, coordSelf, skew []float64
	for _, o := range ts.ops {
		if !o.ok {
			continue
		}
		root := ts.spans[o.root]
		kids := children[root.ID]
		if len(kids) != 1 {
			continue
		}
		front := kids[0]
		if !o.read {
			writeServer = append(writeServer, front.ms())
			continue
		}
		server = append(server, front.ms())
		clientSelf = append(clientSelf, root.ms()-front.ms())
		if front.Name == "cluster.coordinator" {
			shards := children[front.ID]
			lo, hi := 0.0, 0.0
			for i, s := range shards {
				if i == 0 || s.ms() < lo {
					lo = s.ms()
				}
				hi = max(hi, s.ms())
			}
			fanout = append(fanout, hi)
			coordSelf = append(coordSelf, selfMs(front, shards))
			if lo > 0 {
				skew = append(skew, hi/lo)
			}
		}
	}
	var do, plan, exec, overhead, planFresh, planWarm []float64
	deltas, rebuilds := 0, 0
	for i := 0; i+2 < len(ts.spans); i++ {
		s := ts.spans[i]
		if s.Name != "service.do" {
			continue
		}
		p, x := ts.spans[i+1], ts.spans[i+2]
		do = append(do, s.ms())
		plan = append(plan, p.ms())
		exec = append(exec, x.ms())
		if s.Attrs["cached"] == "false" {
			overhead = append(overhead, s.ms()-p.ms()-x.ms())
		}
		switch p.Attrs["refresh"] {
		case "delta":
			deltas++
			planFresh = append(planFresh, p.ms())
		case "rebuild":
			rebuilds++
			planFresh = append(planFresh, p.ms())
		default:
			planWarm = append(planWarm, p.ms())
		}
	}
	rec := ts.rec
	ms := []metric{
		{"httpapi.server_ms", median(server), "ms", len(server)},
		{"httpapi.client_self_ms", median(clientSelf), "ms", len(clientSelf)},
		{"httpapi.resp_bytes", median(rec.respBytes), "B", len(rec.respBytes)},
		{"service.do_ms", median(do), "ms", len(do)},
		{"service.hit_ratio", ts.hitRatio, "ratio", int(ts.lookups)},
		{"pipeline.plan_ms", median(plan), "ms", len(plan)},
		{"pipeline.execute_ms", median(exec), "ms", len(exec)},
		{"eval.full_ms", ts.evalMs, "ms", 3},
		{"eval.answers", float64(ts.answers), "count", 1},
		{"objective.build_ms", ts.buildMs, "ms", 3},
		{"approx.steps", median(rec.steps), "count", len(rec.steps)},
		{"trace.overhead_pct", ts.overhead, "%", ts.pairs},
		{"objective.plane_bytes", float64(ts.planeB), "B", 1},
	}
	if len(overhead) > 0 {
		ms = append(ms, metric{"service.overhead_ms", median(overhead), "ms", len(overhead)})
	}
	if len(planFresh) > 0 {
		ms = append(ms,
			metric{"pipeline.plan_fresh_ms", median(planFresh), "ms", len(planFresh)},
			metric{"pipeline.plan_warm_ms", median(planWarm), "ms", len(planWarm)},
			metric{"pipeline.delta_ratio", float64(deltas) / float64(deltas+rebuilds), "ratio", deltas + rebuilds})
	}
	if n := len(writeServer); n > 0 {
		ms = append(ms,
			metric{"engine.write_server_ms", median(writeServer), "ms", n},
			metric{"wal.fsyncs_per_write", float64(ts.walFsyncs) / float64(n), "count", n},
			metric{"wal.bytes_per_row", float64(ts.walBytes) / float64(n), "B", n})
	}
	if len(fanout) > 0 {
		ms = append(ms,
			metric{"cluster.fanout_ms", median(fanout), "ms", len(fanout)},
			metric{"cluster.self_ms", median(coordSelf), "ms", len(coordSelf)},
			metric{"cluster.shard_skew", median(skew), "ratio", len(skew)},
			metric{"cluster.coreset_rows", median(ts.coreset), "count", len(ts.coreset)})
	}
	return ms
}

// printClusterSplit explains cluster-read-100k's extra server time over
// warm-read-100k by the cluster's own layers.
func printClusterSplit(w io.Writer, results []*result) {
	var single, clustered *result
	for _, r := range results {
		switch {
		case r.Trace && r.Workload == "warm-read-100k":
			single = r
		case r.Trace && r.Workload == "cluster-read-100k":
			clustered = r
		}
	}
	if single == nil || clustered == nil {
		return
	}
	get := func(r *result, name string) float64 {
		m, _ := r.value(name)
		return m.Value
	}
	fmt.Fprintf(w, "cluster-read-100k split: coordinator p50 %.3f ms vs warm-read-100k engine p50 %.3f ms (%+.3f ms): "+
		"slowest shard cluster.fanout_ms %.3f, whose coreset solve at k'=2k on half the rows is pipeline.execute_ms %.3f; "+
		"coordinator merge, final solve and coding cluster.self_ms %.3f\n",
		get(clustered, "httpapi.server_ms"), get(single, "httpapi.server_ms"),
		get(clustered, "httpapi.server_ms")-get(single, "httpapi.server_ms"),
		get(clustered, "cluster.fanout_ms"), get(clustered, "pipeline.execute_ms"), get(clustered, "cluster.self_ms"))
}
