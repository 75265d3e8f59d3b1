package diversification

import (
	"container/list"
	"sync"
	"sync/atomic"
	"time"
)

// defaultCacheEntries is the result cache's entry bound when
// ServiceConfig.CacheEntries is left zero. Entries are whole *Response
// values — a selection of k rows plus stats — so even the default bound
// stays small next to the answer-set snapshots the engine already holds.
const defaultCacheEntries = 1024

// resultCache is the Service's generation-keyed response cache. Keys embed
// the database generation (see Prepared.requestKey), so a lookup can only ever
// find a response computed against the exact database state the caller
// sees: Engine.Insert/Delete advance the generation and thereby invalidate
// every prior entry by construction — no heuristic TTLs, no explicit
// invalidation hooks, no stale hits.
//
// Entries at dead generations are reclaimed two ways: the LRU bound evicts
// them under capacity pressure like any other entry, and a store at a newer
// generation sweeps them eagerly (counted as invalidations) so a burst of
// mutations cannot leave the cache full of unreachable responses.
type resultCache struct {
	mu      sync.Mutex
	cap     int
	entries map[string]*list.Element
	lru     *list.List // front = most recently used
	lastGen uint64     // newest generation ever stored

	hits          atomic.Int64
	misses        atomic.Int64
	coalesced     atomic.Int64
	evictions     atomic.Int64
	invalidations atomic.Int64
}

// cacheEntry is one stored response: the key it lives under, the
// generation baked into that key (for the stale-generation sweep) and the
// immutable normalized response.
type cacheEntry struct {
	key  string
	gen  uint64
	resp *Response
}

func newResultCache(capacity int) *resultCache {
	return &resultCache{
		cap:     capacity,
		entries: make(map[string]*list.Element),
		lru:     list.New(),
	}
}

// get returns the stored response for key, bumping its recency. The
// returned response is the immutable stored copy; callers must mark and
// stamp it via markCached before handing it out.
func (c *resultCache) get(key string) (*Response, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[key]
	if !ok {
		return nil, false
	}
	c.lru.MoveToFront(el)
	c.hits.Add(1)
	return el.Value.(*cacheEntry).resp, true
}

// put stores a normalized response copy under key at generation gen,
// sweeping entries from older generations and evicting past the LRU bound.
// Stores for generations older than the newest ever stored are dropped:
// they are already invalidated.
func (c *resultCache) put(key string, gen uint64, resp *Response) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if gen < c.lastGen {
		return
	}
	if gen > c.lastGen {
		c.lastGen = gen
		var next *list.Element
		for el := c.lru.Front(); el != nil; el = next {
			next = el.Next()
			e := el.Value.(*cacheEntry)
			if e.gen < gen {
				c.lru.Remove(el)
				delete(c.entries, e.key)
				c.invalidations.Add(1)
			}
		}
	}
	if el, ok := c.entries[key]; ok {
		el.Value.(*cacheEntry).resp = resp
		c.lru.MoveToFront(el)
		return
	}
	c.entries[key] = c.lru.PushFront(&cacheEntry{key: key, gen: gen, resp: resp})
	for c.lru.Len() > c.cap {
		el := c.lru.Back()
		e := el.Value.(*cacheEntry)
		c.lru.Remove(el)
		delete(c.entries, e.key)
		c.evictions.Add(1)
	}
}

// len reports the current entry count.
func (c *resultCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// cacheableCopy normalizes a freshly computed response into its stored
// form: a shallow copy (the answer fields — Selection rows, Count — are
// immutable by contract and shared) with the per-request advisory fields
// rewritten to what a repeat of the same request would observe. Elapsed is
// cleared (hits stamp their own lookup time) and Refresh collapses to
// "warm": by construction a hit means the snapshot for this generation was
// already materialized, however the original miss acquired it.
func cacheableCopy(r *Response) *Response {
	c := *r
	c.Elapsed = 0
	if c.Refresh.Mode != "" {
		c.Refresh = RefreshInfo{Mode: "warm", Answers: r.Refresh.Answers}
	}
	return &c
}

// markCached produces the response a cache hit (or a coalesced follower)
// hands out: a shallow copy of the stored response flagged Cached, with
// the caller's own elapsed time and — when the request asked for an
// explain report — a trailing line recording that no solve ran for this
// call. The stored response is never handed out directly, so a caller
// mutating its copy cannot poison later hits.
func markCached(r *Response, elapsed time.Duration) *Response {
	c := *r
	c.Cached = true
	c.Elapsed = elapsed
	if c.Explain != "" {
		c.Explain += "cached:    true (served from the generation-keyed result cache)\n"
	}
	return &c
}

// flight is one in-progress solve shared by coalesced identical requests:
// the leader executes and publishes resp/err before closing done; the
// followers wait on done (or their own context) instead of solving.
type flight struct {
	done chan struct{}
	resp *Response
	err  error
}

// joinFlight returns the in-progress flight for key, creating it (leader =
// true) when none exists. The caller that created the flight must complete
// it with finishFlight.
func (s *Service) joinFlight(key string) (*flight, bool) {
	s.fmu.Lock()
	defer s.fmu.Unlock()
	if fl, ok := s.flights[key]; ok {
		return fl, false
	}
	fl := &flight{done: make(chan struct{})}
	s.flights[key] = fl
	return fl, true
}

// finishFlight publishes the leader's outcome and wakes the followers. The
// flight is removed from the map first, so a request arriving after the
// outcome is published starts a fresh flight (or hits the cache) instead
// of observing a completed one.
func (s *Service) finishFlight(key string, fl *flight, resp *Response, err error) {
	s.fmu.Lock()
	delete(s.flights, key)
	s.fmu.Unlock()
	fl.resp, fl.err = resp, err
	close(fl.done)
}
