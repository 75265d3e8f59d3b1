// Plane regimes: how a score plane stores (or avoids storing) the n(n-1)/2
// pairwise δdis values. The regime is resolved once per plane from its input
// alone (the distance's type, the answer count and whether the plane
// streams) and recorded so planners and metrics can report it.
package objective

import "fmt"

// Regime names the distance store of a score plane.
type Regime int

const (
	// RegimeMaterialized is the packed triangular []float64 filled in
	// parallel: O(n²) memory, O(1) exact lookups.
	RegimeMaterialized Regime = iota
	// RegimeDirect stores no pairs: every distance is an evaluation of
	// δdis, so it assumes nothing about the function and holds O(n) memory.
	RegimeDirect
	// RegimeCategory serves a CategoryDistance from per-category ID lists
	// (category.go): O(n) memory, a distance is two int loads, and the
	// greedy procedures walk each category's best answers.
	RegimeCategory
)

// String returns the lowercase regime name.
func (r Regime) String() string {
	switch r {
	case RegimeMaterialized:
		return "materialized"
	case RegimeDirect:
		return "direct"
	case RegimeCategory:
		return "category"
	default:
		return fmt.Sprintf("Regime(%d)", int(r))
	}
}

// resolveRegime picks a plane's store. Streaming planes evaluate directly
// (IDs grow, so no matrix can be sized up front); otherwise a
// CategoryDistance takes the category lists, any other distance the matrix
// when its 8·n(n−1)/2 bytes fit MaxMatrixBytes, and direct evaluation above
// that.
func resolveRegime(n int, streaming bool, dis Distance) Regime {
	if streaming {
		return RegimeDirect
	}
	if _, ok := dis.(CategoryDistance); ok {
		return RegimeCategory
	}
	if int64(n)*int64(n-1)/2*8 <= MaxMatrixBytes {
		return RegimeMaterialized
	}
	return RegimeDirect
}
