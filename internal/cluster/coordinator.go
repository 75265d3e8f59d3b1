package cluster

import (
	"context"
	"fmt"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	diversification "repro"
	"repro/httpapi"
)

// Config parameterizes a Coordinator.
type Config struct {
	// Shards are the shard server base addresses, index order fixed for
	// the cluster's lifetime ("host:port" or full "http://..." URLs).
	Shards []string

	// Slack sets the per-shard coreset budget k′ = k + slack. Negative
	// defers to the shard-side default (slack = k, i.e. k′ = 2k); zero is
	// the tight budget (k′ = k), trading union richness for shard work.
	Slack int

	// DistanceAttr names the answer attribute whose inequality defines the
	// 0/1 δdis the merge re-evaluates over the coreset rows. Cluster mode
	// cannot ship pairwise distances (they are quadratic), so an
	// attribute-based distance is the cluster contract; empty means zero
	// distance, so the merge ranks by the shipped relevance alone.
	DistanceAttr string

	// Timeout bounds each shard fan-out call; zero means the shard
	// client's default.
	Timeout time.Duration
}

// shardState is one shard's client plus the coordinator's observations of
// it, all atomics so the fan-out goroutines update them without locks.
type shardState struct {
	addr   string
	client *httpapi.Client

	requests    atomic.Int64
	errors      atomic.Int64
	lastLatency atomic.Int64
	maxLatency  atomic.Int64
	lastCoreset atomic.Int64
}

func (sh *shardState) observe(elapsed time.Duration, err error) {
	sh.requests.Add(1)
	ns := elapsed.Nanoseconds()
	sh.lastLatency.Store(ns)
	for {
		max := sh.maxLatency.Load()
		if ns <= max || sh.maxLatency.CompareAndSwap(max, ns) {
			break
		}
	}
	if err != nil {
		sh.errors.Add(1)
	}
}

// Coordinator fans diversify requests out to the cluster's shards and
// merges their k′-coresets with diversification.MergeCoresets, one greedy
// solve over the union; it holds no engine of its own. It implements
// httpapi.Backend, so cmd/divserve serves it over the same wire protocol as
// a single engine.
type Coordinator struct {
	cfg    Config
	shards []*shardState

	requests atomic.Int64
	failures atomic.Int64
	fanOuts  atomic.Int64
	fanErrs  atomic.Int64
	partials atomic.Int64
}

// New builds a Coordinator over the configured shard addresses. Addresses
// without a scheme get "http://".
func New(cfg Config) (*Coordinator, error) {
	if len(cfg.Shards) == 0 {
		return nil, fmt.Errorf("cluster: coordinator needs at least one shard")
	}
	c := &Coordinator{cfg: cfg}
	for _, addr := range cfg.Shards {
		addr = strings.TrimSpace(addr)
		if addr == "" {
			return nil, fmt.Errorf("cluster: empty shard address")
		}
		if !strings.Contains(addr, "://") {
			addr = "http://" + addr
		}
		c.shards = append(c.shards, &shardState{
			addr:   addr,
			client: &httpapi.Client{BaseURL: addr, DefaultTimeout: cfg.Timeout},
		})
	}
	return c, nil
}

// shardResult is one shard's outcome in a fan-out.
type shardResult[T any] struct {
	val     T
	err     error
	elapsed time.Duration
}

// fan calls call on every shard that skip does not exclude (nil skips
// none), all concurrently, and waits for them. Each call's latency and
// outcome land on its shard's counters, and a failure counts in
// fan_out_errors. Results are indexed by shard; a skipped shard's is zero.
func fan[T any](c *Coordinator, skip func(i int) bool, call func(i int, sh *shardState) (T, error)) []shardResult[T] {
	out := make([]shardResult[T], len(c.shards))
	var wg sync.WaitGroup
	for i, sh := range c.shards {
		if skip != nil && skip(i) {
			continue
		}
		wg.Add(1)
		go func(i int, sh *shardState) {
			defer wg.Done()
			t0 := time.Now()
			v, err := call(i, sh)
			elapsed := time.Since(t0)
			sh.observe(elapsed, err)
			if err != nil {
				c.fanErrs.Add(1)
			}
			out[i] = shardResult[T]{val: v, err: err, elapsed: elapsed}
		}(i, sh)
	}
	wg.Wait()
	return out
}

// Do fans the diversify request to every shard and merges the returned
// coresets with one greedy solve over their union. Only the
// diversify problem distributes — decide/count/in-top-r/rank interrogate
// the full answer set, which no shard holds — and only prepared-binding
// requests do: per-request candidate sets, constraints and scoring
// closures have no sound cluster semantics.
//
// The merged response is byte-deterministic given fixed shard responses:
// the merge solves over the deduplicated rows in canonical tuple order, so
// greedy's accumulation and tie-break order reproduce a single engine's at
// S=1.
func (c *Coordinator) Do(ctx context.Context, name string, qr httpapi.QueryRequest) (*diversification.Response, error) {
	c.requests.Add(1)
	resp, err := c.do(ctx, name, qr)
	if err != nil {
		c.failures.Add(1)
	}
	return resp, err
}

// validateClusterRequest rejects request shapes that do not distribute.
func validateClusterRequest(qr httpapi.QueryRequest) error {
	req, err := qr.ToRequest()
	if err != nil {
		return err
	}
	if req.Problem != diversification.ProblemDiversify {
		return &diversification.ArgError{Field: "problem", Reason: fmt.Sprintf("%s does not distribute: it interrogates the full answer set, which no shard holds; the cluster coordinator serves diversify only", req.Problem)}
	}
	if req.Set != nil {
		return &diversification.ArgError{Field: "set", Reason: "per-request candidate sets are not supported in cluster mode"}
	}
	if len(qr.Constraints) > 0 {
		return &diversification.ArgError{Field: "constraints", Reason: "constraints are not supported in cluster mode (the coreset merge runs the greedy heuristic)"}
	}
	if qr.RelevanceAttr != "" || qr.DistanceAttr != "" {
		field := "relevance_attr"
		if qr.RelevanceAttr == "" {
			field = "distance_attr"
		}
		return &diversification.ArgError{Field: field, Reason: "per-request scoring overrides are not supported in cluster mode (shards ship scores under their prepared bindings)"}
	}
	if req.Bound != nil || req.Rank != nil {
		field := "bound"
		if req.Bound == nil {
			field = "rank"
		}
		return &diversification.ArgError{Field: field, Reason: "bound/rank apply to decide/count/in-top-r/rank, which do not distribute"}
	}
	if req.Objective != nil && *req.Objective == diversification.Mono {
		return &diversification.ArgError{Field: "objective", Reason: "mono objective is not coreset-mergeable (its value depends on all of Q(D), which no shard holds)"}
	}
	if alg := req.Algorithm; alg != nil && *alg != diversification.Auto && *alg != diversification.Greedy {
		return &diversification.ArgError{Field: "algorithm", Reason: fmt.Sprintf("%s is not available in cluster mode: the coreset merge's 2-approximation holds for the greedy composition only", *alg)}
	}
	return nil
}

// fanOut issues the coreset request to every shard concurrently.
func (c *Coordinator) fanOut(ctx context.Context, name string, qr httpapi.QueryRequest) []shardResult[*diversification.Coreset] {
	cr := httpapi.CoresetRequest{K: qr.K, Lambda: qr.Lambda, Objective: qr.Objective, TimeoutMillis: qr.TimeoutMillis}
	if c.cfg.Slack >= 0 {
		slack := c.cfg.Slack
		cr.Slack = &slack
	}
	out := fan(c, nil, func(_ int, sh *shardState) (*diversification.Coreset, error) {
		cs, err := sh.client.Coreset(ctx, name, cr)
		if err == nil {
			sh.lastCoreset.Store(int64(len(cs.Rows)))
		}
		return cs, err
	})
	c.fanOuts.Add(1)
	return out
}

// do fans out and hands the coresets to the library merge. A failed or
// degraded shard becomes a degradation note naming its address, and an
// explain gains a trailer with the per-shard coreset sizes and the slowest
// shard. Only when every shard failed is the query an error.
func (c *Coordinator) do(ctx context.Context, name string, qr httpapi.QueryRequest) (*diversification.Response, error) {
	if err := validateClusterRequest(qr); err != nil {
		return nil, err
	}
	start := time.Now()
	results := c.fanOut(ctx, name, qr)
	parts := make([]*diversification.Coreset, len(results))
	var notes []string
	var firstErr error
	for i, r := range results {
		if r.err != nil {
			if firstErr == nil {
				firstErr = r.err
			}
			notes = append(notes, fmt.Sprintf("shard[%d] %s: %v", i, c.shards[i].addr, r.err))
			continue
		}
		parts[i] = r.val
		if r.val.Degraded && r.val.DegradedFrom != "" {
			notes = append(notes, fmt.Sprintf("shard[%d] %s: %s", i, c.shards[i].addr, r.val.DegradedFrom))
		}
	}
	if !slices.ContainsFunc(parts, func(cs *diversification.Coreset) bool { return cs != nil }) {
		return nil, fmt.Errorf("cluster: all %d shards failed: %w", len(c.shards), firstErr)
	}
	resp, err := diversification.MergeCoresets(ctx, parts, c.cfg.DistanceAttr, qr.Explain)
	if err != nil {
		return nil, err
	}
	resp.Elapsed = time.Since(start)
	if firstErr != nil {
		c.partials.Add(1)
	}
	if len(notes) > 0 {
		resp.DegradedFrom = strings.Join(notes, "; ")
	}
	if !qr.Explain {
		return resp, nil
	}
	sizes := make([]string, len(results))
	slowest := 0
	for i, r := range results {
		sizes[i] = "-"
		if r.err == nil {
			sizes[i] = strconv.Itoa(len(r.val.Rows))
		}
		if r.elapsed > results[slowest].elapsed {
			slowest = i
		}
	}
	slackDesc := "shard default (k)"
	if c.cfg.Slack >= 0 {
		slackDesc = strconv.Itoa(c.cfg.Slack)
	}
	resp.Explain += fmt.Sprintf("cluster:   %d shards, slack %s\n", len(c.shards), slackDesc) +
		fmt.Sprintf("coresets:  [%s] rows, %d merged unique\n", strings.Join(sizes, " "), resp.Stats.Answers) +
		fmt.Sprintf("slowest:   shard[%d] %s (%s)\n", slowest, c.shards[slowest].addr, results[slowest].elapsed.Round(time.Microsecond))
	return resp, nil
}

// Refresh fans the refresh to every shard and merges the reports: counts
// sum, the mode is the worst any shard performed (warm < delta < rebuild).
// Unlike queries there is no partial success — refresh is a control-plane
// call whose caller needs to know the whole cluster is current.
func (c *Coordinator) Refresh(ctx context.Context, name string) (diversification.RefreshInfo, error) {
	c.requests.Add(1)
	results := fan(c, nil, func(_ int, sh *shardState) (diversification.RefreshInfo, error) {
		return sh.client.Refresh(ctx, name)
	})
	var merged diversification.RefreshInfo
	rank := map[string]int{"": 0, "warm": 1, "delta": 2, "rebuild": 3}
	for i, r := range results {
		if r.err != nil {
			c.failures.Add(1)
			return diversification.RefreshInfo{}, fmt.Errorf("cluster: refresh shard[%d] %s: %w", i, c.shards[i].addr, r.err)
		}
		info := r.val
		if rank[info.Mode] > rank[merged.Mode] {
			merged.Mode = info.Mode
		}
		merged.Added += info.Added
		merged.Removed += info.Removed
		merged.Rechecked += info.Rechecked
		merged.Answers += info.Answers
	}
	return merged, nil
}

// Mutate routes each row to its owning shard by the partition hash and
// applies the per-shard batches concurrently. Applied counts sum; the
// reported generation is the sum of the touched shards' post-batch
// generations (an advisory watermark, not the full cluster's). A shard
// failure is an error naming the first failed shard; the other shards'
// batches still apply, and the error reports their summed applied count,
// making the partial batch observable rather than hidden.
func (c *Coordinator) Mutate(ctx context.Context, table string, rows [][]interface{}, del bool) (httpapi.MutateBody, error) {
	c.requests.Add(1)
	batches := make([][][]interface{}, len(c.shards))
	for _, row := range rows {
		i := ShardOf(row, len(c.shards))
		batches[i] = append(batches[i], row)
	}
	results := fan(c, func(i int) bool { return len(batches[i]) == 0 }, func(i int, sh *shardState) (httpapi.MutateBody, error) {
		if del {
			return sh.client.Delete(ctx, table, batches[i])
		}
		return sh.client.Insert(ctx, table, batches[i])
	})
	var out httpapi.MutateBody
	failed := -1
	for i, r := range results {
		if r.err != nil {
			if failed < 0 {
				failed = i
			}
			continue
		}
		out.Applied += r.val.Applied
		out.Generation += r.val.Generation
	}
	if failed >= 0 {
		c.failures.Add(1)
		return out, fmt.Errorf("cluster: mutate shard[%d] %s (%d rows applied on other shards): %w",
			failed, c.shards[failed].addr, out.Applied, results[failed].err)
	}
	return out, nil
}

// Snapshot asks every shard to persist; generations sum into the cluster
// watermark. Any failure is an error — a partially persisted cluster is
// not a snapshot.
func (c *Coordinator) Snapshot(ctx context.Context) (diversification.SnapshotInfo, error) {
	c.requests.Add(1)
	results := fan(c, nil, func(_ int, sh *shardState) (diversification.SnapshotInfo, error) {
		return sh.client.Snapshot(ctx)
	})
	var out diversification.SnapshotInfo
	for i, r := range results {
		if r.err != nil {
			c.failures.Add(1)
			return diversification.SnapshotInfo{}, fmt.Errorf("cluster: snapshot shard[%d] %s: %w", i, c.shards[i].addr, r.err)
		}
		out.Generation += r.val.Generation
	}
	return out, nil
}

// Metrics reports the coordinator's own counters with the cluster block
// populated; shard-internal counters live on the shards' own /metrics.
func (c *Coordinator) Metrics() diversification.Metrics {
	cm := &diversification.ClusterMetrics{
		Shards:         len(c.shards),
		FanOuts:        c.fanOuts.Load(),
		FanOutErrors:   c.fanErrs.Load(),
		PartialResults: c.partials.Load(),
	}
	for _, sh := range c.shards {
		cm.ShardStats = append(cm.ShardStats, diversification.ClusterShardMetrics{
			Addr:            sh.addr,
			Requests:        sh.requests.Load(),
			Errors:          sh.errors.Load(),
			LastLatencyNS:   sh.lastLatency.Load(),
			MaxLatencyNS:    sh.maxLatency.Load(),
			LastCoresetSize: sh.lastCoreset.Load(),
		})
	}
	return diversification.Metrics{
		Requests: c.requests.Load(),
		Failures: c.failures.Load(),
		Cluster:  cm,
	}
}

// Health aggregates shard liveness: "ok" when every shard answers with
// full health, "degraded" when any shard is down or itself degraded — the
// coordinator still serves (partial) answers, so degraded means "expect
// flagged results", not "take me out of rotation".
func (c *Coordinator) Health(ctx context.Context) httpapi.HealthBody {
	errs := make([]error, len(c.shards))
	bodies := make([]httpapi.HealthBody, len(c.shards))
	var wg sync.WaitGroup
	for i, sh := range c.shards {
		wg.Add(1)
		go func(i int, sh *shardState) {
			defer wg.Done()
			bodies[i], errs[i] = sh.client.Health(ctx)
		}(i, sh)
	}
	wg.Wait()
	for i := range c.shards {
		if errs[i] != nil || bodies[i].Status != "ok" {
			return httpapi.HealthBody{Status: "degraded", ReadOnly: false}
		}
	}
	return httpapi.HealthBody{Status: "ok"}
}
