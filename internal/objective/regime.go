// Plane regimes: how a score plane stores (or avoids storing) the n(n-1)/2
// pairwise δdis values. The regime is resolved once per plane from the answer
// count, the memory guard and the caller's request, and recorded so planners
// and metrics can report it.
package objective

import "fmt"

// Regime selects the distance-storage strategy of a score plane.
type Regime int

const (
	// RegimeAuto picks from n and the memory guard: the materialized
	// float64 triangle when it fits, the metric index above it (for
	// n >= IndexedMinN), and the memoizing cache for small answer sets
	// whose guard is tighter than the triangle.
	RegimeAuto Regime = iota
	// RegimeMaterialized is the packed triangular []float64 filled in
	// parallel — O(n²) memory, O(1) exact lookups. Falls back to
	// RegimeMemoized when the triangle would exceed the memory guard.
	RegimeMaterialized
	// RegimeIndexed stores no pairs at all: a vantage-point tree plus a
	// pivot table (O(n) memory) serve the greedy solvers through exact
	// triangle-inequality pruning, and everything else evaluates pairs on
	// demand through a small capped memo. Pruning assumes δdis satisfies
	// the triangle inequality (the same metric assumption under which the
	// greedy procedures carry their 2-approximation guarantees); for a
	// non-metric δdis, force RegimeMemoized instead.
	RegimeIndexed
	// RegimeMemoized serves every pair on demand from the sharded,
	// entry-capped memo cache — the regime that assumes nothing about δdis.
	RegimeMemoized
)

// IndexedMinN is the answer count below which RegimeAuto never picks the
// metric index: under it, the guard-constrained fallback stays the memoizing
// cache (index construction would cost more than it saves, and small planes
// are where non-metric distance tables show up in practice).
const IndexedMinN = 4096

// String returns the lowercase regime name.
func (r Regime) String() string {
	switch r {
	case RegimeAuto:
		return "auto"
	case RegimeMaterialized:
		return "materialized"
	case RegimeIndexed:
		return "indexed"
	case RegimeMemoized:
		return "memoized"
	default:
		return fmt.Sprintf("Regime(%d)", int(r))
	}
}

// ParseRegime maps the textual regime names to the enum; the empty string
// selects RegimeAuto.
func ParseRegime(s string) (Regime, error) {
	switch s {
	case "auto", "":
		return RegimeAuto, nil
	case "materialized":
		return RegimeMaterialized, nil
	case "indexed":
		return RegimeIndexed, nil
	case "memoized":
		return RegimeMemoized, nil
	default:
		return 0, fmt.Errorf("objective: unknown plane regime %q", s)
	}
}

// resolveRegime turns a requested regime into the one that will actually
// serve, holding the memory guard. Streaming planes always memoize (IDs grow,
// the matrix cannot); an explicit materialized request that does not fit
// degrades to memoized (matching Materialize's historical refusal); auto
// takes the matrix when its 8·n(n−1)/2 bytes fit the guard, the metric index
// above it, and keeps small answer sets on the assumption-free memo cache.
func resolveRegime(want Regime, n int, maxBytes int64, streaming bool) Regime {
	if streaming {
		return RegimeMemoized
	}
	fits := int64(n)*int64(n-1)/2*8 <= maxBytes
	switch want {
	case RegimeMaterialized:
		if fits {
			return RegimeMaterialized
		}
		return RegimeMemoized
	case RegimeIndexed, RegimeMemoized:
		return want
	}
	switch {
	case fits:
		return RegimeMaterialized
	case n >= IndexedMinN:
		return RegimeIndexed
	default:
		return RegimeMemoized
	}
}
