package diversification

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
)

// BatchItem is one variant in a DiversifyBatch call: the per-item options
// are applied over the Prepare-time settings exactly as a Diversify call's
// options would be, so a batch sweeps (λ, k, objective, constraint, …)
// variants of one prepared query.
type BatchItem struct {
	Opts []Option
}

// BatchResult pairs one BatchItem's selection with its error. Exactly one
// of Selection and Err is non-nil.
type BatchResult struct {
	Selection *Selection
	Err       error
}

// DiversifyBatch solves many variants of the prepared query concurrently
// over one shared answer set and score plane: the cached Q(D) (and its
// interned relevance/distance plane) is materialized once, then the items
// are distributed across a worker pool. Every item routes through the same
// Request → Plan → Execute pipeline as a standalone call, so results[i]
// always corresponds to items[i], regardless of scheduling, and each item's
// outcome is identical to a standalone Diversify(ctx, items[i].Opts...)
// call — the concurrency changes wall-clock, not answers. In particular an
// item overriding WithRelevance/WithDistance bypasses the shared plane
// exactly as a single call does.
//
// The pool size is the handle's WithParallelism setting when given
// (WithParallelism(0) and the default both mean GOMAXPROCS here). Item
// solves themselves run sequentially — the pool already spends the worker
// budget, and inheriting a Prepare-time WithParallelism(n) per item would
// oversubscribe n×n — unless an item's own Opts carry WithParallelism.
//
// The returned error reports failures of the shared evaluation (query
// evaluation or plane build); per-item failures (including "no candidate
// set") land in their slot's Err.
func (p *Prepared) DiversifyBatch(ctx context.Context, items []BatchItem) ([]BatchResult, error) {
	if len(items) == 0 {
		return nil, nil
	}
	// Warm the shared answer-set and plane caches once, so the concurrent
	// item solves share one plane instead of racing to build duplicates.
	// This is the same snapshot + eager-plane acquisition Refresh performs
	// for the Prepare-time bindings; items whose options override the
	// scoring bindings plan their own per-instance plane regardless.
	if p.base.algorithm != Online {
		p.eng.mu.RLock()
		_, err := p.refresh(ctx)
		p.eng.mu.RUnlock()
		if err != nil {
			return nil, err
		}
	}
	workers := runtime.GOMAXPROCS(0)
	if p.base.parallelSet && p.base.parallelism > 0 {
		workers = p.base.parallelism
	}
	if workers > len(items) {
		workers = len(items)
	}
	results := make([]BatchResult, len(items))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(items) {
					return
				}
				// Item solves run sequentially unless the item itself opts
				// in: the pool already uses the handle's worker budget, and
				// inheriting a Prepare-time WithParallelism(n) here would
				// oversubscribe n×n.
				opts := append([]Option{WithParallelism(1)}, items[i].Opts...)
				resp, err := p.Do(ctx, Request{Problem: ProblemDiversify, Options: opts})
				if err != nil {
					results[i] = BatchResult{Err: err}
					continue
				}
				results[i] = BatchResult{Selection: resp.Selection}
			}
		}()
	}
	wg.Wait()
	return results, nil
}
