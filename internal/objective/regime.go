// Plane regimes: how a score plane stores (or avoids storing) the n(n-1)/2
// pairwise δdis values. The regime is resolved once per plane from the answer
// count, the distance's type and the caller's request, and recorded so
// planners and metrics can report it.
package objective

import "fmt"

// Regime selects the distance-storage strategy of a score plane.
type Regime int

const (
	// RegimeAuto picks RegimeCategory for a CategoryDistance; otherwise
	// the materialized float64 triangle when it fits MaxMatrixBytes
	// (n ≤ 4096), the metric index above it.
	RegimeAuto Regime = iota
	// RegimeMaterialized is the packed triangular []float64 filled in
	// parallel — O(n²) memory, O(1) exact lookups. Falls back to
	// RegimeMemoized when the triangle would exceed MaxMatrixBytes.
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
	// RegimeCategory serves a CategoryDistance from per-category ID lists
	// (category.go): O(n) memory, a distance is two int loads, and the
	// greedy procedures walk each category's best answers. Requesting it
	// is requesting auto.
	RegimeCategory
)

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
	case RegimeCategory:
		return "category"
	default:
		return fmt.Sprintf("Regime(%d)", int(r))
	}
}

// resolveRegime turns a requested regime into the one that will actually
// serve. Streaming planes always memoize (IDs grow, the matrix cannot); an
// explicit materialized request whose triangle exceeds MaxMatrixBytes
// degrades to memoized (matching Materialize's historical refusal); auto
// takes the category lists when δdis is a CategoryDistance, else the matrix
// when its 8·n(n−1)/2 bytes fit MaxMatrixBytes and the metric index above
// it.
func resolveRegime(want Regime, n int, streaming bool, dis Distance) Regime {
	if streaming {
		return RegimeMemoized
	}
	if _, ok := dis.(CategoryDistance); ok && (want == RegimeAuto || want == RegimeCategory) {
		return RegimeCategory
	}
	fits := int64(n)*int64(n-1)/2*8 <= MaxMatrixBytes
	switch want {
	case RegimeMaterialized:
		if fits {
			return RegimeMaterialized
		}
		return RegimeMemoized
	case RegimeIndexed, RegimeMemoized:
		return want
	}
	// Auto, or a category request over another distance.
	if fits {
		return RegimeMaterialized
	}
	return RegimeIndexed
}
