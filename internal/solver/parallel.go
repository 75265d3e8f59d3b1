// The exact search: one frame walk for every worker count, all pruning
// against one shared atomic incumbent bound. One worker walks the whole tree
// as a single root frame. More workers cut the tree at a split depth into
// prefix frames fed to a pool. The frames partition the one-worker walk's
// leaf order into contiguous blocks, so merging frame results in frame order
// reproduces the one-worker outcome byte-for-byte:
//
//   - First-witness searches (QRD existence) take the earliest frame's
//     witness — exactly the first valid set in DFS order.
//   - Best-set searches (the optimization form) take the earliest frame
//     achieving the global maximum, whose recorded witness is its first
//     maximal leaf. Scores are replayed through the same incremental push
//     order, so they agree to the last bit.
//   - Counting searches add per-frame counts; each qualifying leaf is
//     counted exactly once regardless of scheduling.
//
// Pruning stays admissible throughout: the shared incumbent never exceeds
// the true optimum (it only ever holds achievable leaf values), so no
// optimal leaf is ever cut, only the order and amount of wasted work differ
// between runs. A best-set search warm-starts the incumbent from the greedy
// heuristics of internal/approx, so pruning bites from the first node.
package solver

import (
	"context"
	"math"
	"sync"
	"sync/atomic"

	"repro/internal/approx"
	"repro/internal/core"
	"repro/internal/ctxpoll"
)

// parMode selects how frame results merge.
type parMode int

const (
	// modeFirst stops at the first admitted leaf in DFS order (QRD).
	modeFirst parMode = iota
	// modeBest tracks the maximum-score leaf (optimization QRD).
	modeBest
	// modeCountAll counts every admitted leaf (RDC).
	modeCountAll
	// modeCountCap counts admitted leaves up to a cap (DRP).
	modeCountCap
)

// parallelism resolves the effective worker count for the exact search on
// in: the instance's Parallelism when above 1, one worker otherwise.
func parallelism(in *core.Instance) int {
	if in.Parallelism <= 1 {
		return 1
	}
	return in.Parallelism
}

// splitDepth picks the prefix depth, at most k, at which the tree is cut
// into frames: the instance's ParallelDepth when set, otherwise the smallest
// depth whose frame count comfortably oversubscribes the workers (so the
// atomic frame queue balances skewed subtree sizes — cheap work stealing).
func splitDepth(in *core.Instance, n, k, workers int) int {
	d := in.ParallelDepth
	if d <= 0 {
		const oversubscribe = 8
		d = 1
		for frames := n; frames < oversubscribe*workers && d < k && d < 3; {
			d++
			frames = frames * (n - d + 1) / d // C(n, d) from C(n, d-1)
		}
	}
	return min(d, k)
}

// atomicMax is a lock-free monotone float64 maximum. Floats are stored as
// order-preserving uint64 bits so compare-and-swap can race freely.
type atomicMax struct{ bits atomic.Uint64 }

// orderedBits maps float64 to uint64 preserving <.
func orderedBits(f float64) uint64 {
	b := math.Float64bits(f)
	if b&(1<<63) != 0 {
		return ^b
	}
	return b | 1<<63
}

func fromOrderedBits(u uint64) float64 {
	if u&(1<<63) != 0 {
		return math.Float64frombits(u &^ (1 << 63))
	}
	return math.Float64frombits(^u)
}

func newAtomicMax() *atomicMax {
	m := &atomicMax{}
	m.bits.Store(orderedBits(math.Inf(-1)))
	return m
}

// Load returns the current maximum.
func (m *atomicMax) Load() float64 { return fromOrderedBits(m.bits.Load()) }

// Raise lifts the maximum to at least f.
func (m *atomicMax) Raise(f float64) {
	nb := orderedBits(f)
	for {
		ob := m.bits.Load()
		if ob >= nb || m.bits.CompareAndSwap(ob, nb) {
			return
		}
	}
}

// parShared is the cross-frame coordination state.
type parShared struct {
	best    *atomicMax   // modeBest: global incumbent bound
	winner  atomic.Int64 // modeFirst: earliest frame index holding a witness
	count   atomic.Int64 // modeCountCap: qualifying leaves found so far
	several bool         // more than one frame, so frames stop on each other's results
}

// frameSpec is one unit of work: a selection prefix (pushed in ascending
// index order, exactly as the one-worker walk would) plus the index its
// extension resumes from. The root frame has no prefix.
type frameSpec struct {
	prefix []int
	next   int
}

// frameRes is one frame's contribution to the merged outcome.
type frameRes struct {
	exists bool
	value  float64
	sel    []int
	count  int64
}

// parOutcome is the merged result of a frame walk.
type parOutcome struct {
	frameRes
	canceled bool
}

// frameWalk runs the exact search and merges the outcome. One worker walks
// the whole tree as a single root frame; more workers cut it at the split
// depth into prefix frames (the same recursion, stopping there) and drain
// them from an atomic queue. master must be a freshly built search (no
// pushes); each worker clones it per frame with frame-local stats, poller
// and callbacks.
func frameWalk(ctx context.Context, master *search, mode parMode, workers, capR int) parOutcome {
	var out parOutcome
	if master.canceled {
		out.canceled = true
		return out
	}
	if master.k < 0 || master.k > len(master.answers) {
		return out // no k-subset exists: nothing to explore
	}
	frames := []frameSpec{{}}
	if workers > 1 {
		frames = master.cutFrames(splitDepth(master.in, len(master.answers), master.k, workers))
		if master.canceled {
			out.canceled = true
			return out
		}
		master.stats.Frames = len(frames)
	}
	sh := &parShared{best: master.sharedBest, several: len(frames) > 1}
	sh.winner.Store(math.MaxInt64)

	results := make([]frameRes, len(frames))
	stats := make([]Stats, len(frames))
	if workers > len(frames) {
		workers = len(frames)
	}
	var next atomic.Int64
	var anyCanceled atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(frames) {
					return
				}
				if skipFrame(sh, mode, i, capR) {
					continue
				}
				if runFrame(ctx, master, frames[i], mode, i, capR, sh, &results[i], &stats[i]) {
					anyCanceled.Store(true)
					return
				}
			}
		}()
	}
	wg.Wait()

	for i := range stats {
		master.stats.Nodes += stats[i].Nodes
		master.stats.Leaves += stats[i].Leaves
		master.stats.Pruned += stats[i].Pruned
	}
	// Merge even when cancelled: the partial incumbent / count rides along
	// with ctx's error (the anytime contract). Only a completed walk is
	// Explored, and only a completed walk's merge carries any guarantee.
	out.canceled = anyCanceled.Load()
	master.stats.Explored = !out.canceled

	switch mode {
	case modeFirst:
		for _, r := range results {
			if r.exists {
				out.frameRes = r
				break
			}
		}
	case modeBest:
		for _, r := range results {
			if r.exists && (!out.exists || r.value > out.value) {
				out.frameRes = r
			}
		}
	case modeCountAll, modeCountCap:
		for i := range results {
			out.count += results[i].count
		}
	}
	return out
}

// skipFrame reports that frame i cannot contribute to the merged outcome
// and need not run at all.
func skipFrame(sh *parShared, mode parMode, i, capR int) bool {
	switch mode {
	case modeFirst:
		return sh.winner.Load() < int64(i)
	case modeCountCap:
		return sh.count.Load() >= int64(capR)
	default:
		return false
	}
}

// runFrame replays one prefix and walks its subtree with frame-local state,
// reporting whether the walk was cancelled by ctx.
func runFrame(ctx context.Context, master *search, fr frameSpec, mode parMode, idx, capR int, sh *parShared, res *frameRes, st *Stats) bool {
	fs := *master
	fs.stats = st
	fs.poller = ctxpoll.New(ctx)
	fs.sel = make([]int, 0, fs.k)
	fs.relSum, fs.pairSum = 0, 0
	fs.minRel, fs.minDis = math.Inf(1), math.Inf(1)
	switch mode {
	case modeFirst:
		fs.found = func(sel []int, f float64) bool {
			res.exists, res.value = true, f
			res.sel = append([]int(nil), sel...)
			// Publish the earliest witness-holding frame so later frames
			// stop; earlier frames keep running — theirs would win.
			for {
				w := sh.winner.Load()
				if w <= int64(idx) || sh.winner.CompareAndSwap(w, int64(idx)) {
					break
				}
			}
			return false
		}
		if idx > 0 { // frame 0 has no earlier frame to defer to
			fs.abandon = func() bool { return sh.winner.Load() < int64(idx) }
		}
	case modeBest:
		fs.found = func(sel []int, f float64) bool {
			if !res.exists || f > res.value {
				res.exists, res.value = true, f
				res.sel = append(res.sel[:0], sel...)
				sh.best.Raise(f)
			}
			return true
		}
	case modeCountAll:
		fs.found = func(sel []int, f float64) bool {
			res.count++
			return true
		}
	case modeCountCap:
		fs.found = func(sel []int, f float64) bool {
			res.count++
			return sh.count.Add(1) < int64(capR)
		}
		if sh.several {
			fs.abandon = func() bool { return sh.count.Load() >= int64(capR) }
		}
	}
	for _, i := range fr.prefix {
		fs.push(i)
	}
	fs.recurse(fr.next)
	return fs.canceled
}

// warmStart seeds the shared incumbent from the objective-matched greedy
// heuristic: its set's exact leaf value (replayed through the incremental
// push order, so it is achievable bit-for-bit) becomes the initial pruning
// bound. It returns the greedy result, nil when skipped: under constraints a
// greedy set may violate Σ, and an unachievable bound would prune
// soundly-scored optima.
func warmStart(ctx context.Context, in *core.Instance, master *search) (*approx.Result, error) {
	g, ids, err := approx.Incumbent(ctx, in)
	if err != nil || ids == nil {
		return nil, err
	}
	master.sharedBest.Raise(master.valueAt(ids))
	master.stats.Warm = true
	return &g, nil
}
