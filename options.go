package diversification

import (
	"fmt"
	"math"
	"runtime"

	"repro/internal/objective"
)

// Objective identifies one of the paper's three objective-function families
// (Section 3, after Gollapudi & Sharma): max-sum (FMS), max-min (FMM) and
// mono-objective (Fmono). The zero value is MaxSum.
type Objective int

const (
	// MaxSum is FMS: (k-1)(1-λ)·Σ δrel + 2λ·Σ pairwise δdis.
	MaxSum Objective = iota
	// MaxMin is FMM: (1-λ)·min δrel + λ·min pairwise δdis.
	MaxMin
	// Mono is Fmono: per-tuple relevance plus mean distance to the entire
	// answer set Q(D) — the one objective whose value depends on all of
	// Q(D), not just the selected set.
	Mono
)

// String returns the conventional lowercase name ("max-sum", "max-min",
// "mono").
func (o Objective) String() string {
	switch o {
	case MaxSum:
		return "max-sum"
	case MaxMin:
		return "max-min"
	case Mono:
		return "mono"
	default:
		return fmt.Sprintf("Objective(%d)", int(o))
	}
}

func (o Objective) valid() bool { return o == MaxSum || o == MaxMin || o == Mono }

// ParseObjective maps the textual objective names (including the paper's
// FMS/FMM/Fmono abbreviations) to the typed enum; the empty string selects
// the default MaxSum.
func ParseObjective(s string) (Objective, error) {
	switch s {
	case "max-sum", "FMS", "":
		return MaxSum, nil
	case "max-min", "FMM":
		return MaxMin, nil
	case "mono", "Fmono":
		return Mono, nil
	default:
		return 0, argErrorf("objective", "unknown objective %q", s)
	}
}

// Algorithm selects the solving strategy. The zero value is Auto.
type Algorithm int

const (
	// Auto picks for the instance: exact branch-and-bound search (pruned
	// by admissible bounds, with the modular shortcut applying to Fmono).
	Auto Algorithm = iota
	// Exact forces the exact branch-and-bound search.
	Exact
	// Greedy runs the objective-matched polynomial heuristic (max-sum
	// dispersion greedy, Gonzalez farthest-point, or exact top-k for the
	// modular Fmono). No constraint support.
	Greedy
	// LocalSearch improves a greedy seed by single-swap hill climbing. No
	// constraint support.
	LocalSearch
	// Online maintains an anytime selection while the query evaluates —
	// the paper's embed-diversification-in-evaluation mode (Section 1).
	// FMS/FMM only, no constraint support.
	Online
)

// String returns the conventional lowercase name.
func (a Algorithm) String() string {
	switch a {
	case Auto:
		return "auto"
	case Exact:
		return "exact"
	case Greedy:
		return "greedy"
	case LocalSearch:
		return "local-search"
	case Online:
		return "online"
	default:
		return fmt.Sprintf("Algorithm(%d)", int(a))
	}
}

func (a Algorithm) valid() bool {
	switch a {
	case Auto, Exact, Greedy, LocalSearch, Online:
		return true
	default:
		return false
	}
}

// ParseAlgorithm maps the textual algorithm names to the typed enum; the
// empty string selects Auto.
func ParseAlgorithm(s string) (Algorithm, error) {
	switch s {
	case "auto", "":
		return Auto, nil
	case "exact":
		return Exact, nil
	case "greedy":
		return Greedy, nil
	case "local-search":
		return LocalSearch, nil
	case "online":
		return Online, nil
	default:
		return 0, argErrorf("algorithm", "unknown algorithm %q", s)
	}
}

// PlaneRegime selects how the score plane stores pairwise distances. The
// zero value PlaneAuto lets the planner pick from the answer count and the
// plane memory limit; the other values force a regime (falling back to the
// memo cache when a quadratic store would exceed the limit).
type PlaneRegime int

const (
	// PlaneAuto resolves the regime from n and the memory limit: the
	// float64 matrix when it fits, otherwise the metric index for large
	// metric candidate sets, with the sharded memo cache as the small-n
	// fallback.
	PlaneAuto PlaneRegime = iota
	// PlaneMaterialized forces the full float64 triangular matrix — exact,
	// O(n²) memory.
	PlaneMaterialized
	// PlaneIndexed forces the metric (vantage-point) index — O(n) memory,
	// exact distances computed on demand with index-pruned greedy scans.
	PlaneIndexed
	// PlaneMemoized forces the sharded memoizing cache — O(pairs touched)
	// memory with random eviction beyond the per-shard cap.
	PlaneMemoized
)

// String returns the conventional lowercase name.
func (r PlaneRegime) String() string {
	switch r {
	case PlaneAuto:
		return "auto"
	case PlaneMaterialized:
		return "materialized"
	case PlaneIndexed:
		return "indexed"
	case PlaneMemoized:
		return "memoized"
	default:
		return fmt.Sprintf("PlaneRegime(%d)", int(r))
	}
}

func (r PlaneRegime) valid() bool {
	switch r {
	case PlaneAuto, PlaneMaterialized, PlaneIndexed, PlaneMemoized:
		return true
	default:
		return false
	}
}

// toObjective lowers the public enum to the objective package's Regime,
// which it mirrors value for value.
func (r PlaneRegime) toObjective() objective.Regime { return objective.Regime(r) }

// ParsePlaneRegime maps the textual regime names to the typed enum; the
// empty string selects PlaneAuto.
func ParsePlaneRegime(s string) (PlaneRegime, error) {
	switch s {
	case "auto", "":
		return PlaneAuto, nil
	case "materialized":
		return PlaneMaterialized, nil
	case "indexed":
		return PlaneIndexed, nil
	case "memoized":
		return PlaneMemoized, nil
	default:
		return 0, argErrorf("plane-regime", "unknown plane regime %q", s)
	}
}

// ArgError reports an invalid caller-supplied argument: which field was at
// fault and why. Every validation failure of the option set, the request
// compiler and the candidate-set checks wraps into one, so serving layers
// can tell user errors (map to HTTP 400) from internal failures (500) with
// a single errors.As test.
type ArgError struct {
	// Field names the offending argument in its user-facing spelling:
	// "k", "lambda", "objective", "algorithm", "rank", "bound", "set",
	// "problem", "parallelism", "plane-memory-limit", "plane-regime".
	Field string
	// Reason says what was wrong with it, including the rejected value.
	Reason string
}

// Error renders "diversification: invalid <field>: <reason>".
func (e *ArgError) Error() string {
	return fmt.Sprintf("diversification: invalid %s: %s", e.Field, e.Reason)
}

// argErrorf builds an ArgError with a formatted reason.
func argErrorf(field, format string, args ...interface{}) *ArgError {
	return &ArgError{Field: field, Reason: fmt.Sprintf(format, args...)}
}

// settings is the resolved option state shared by Prepare and the per-call
// overrides. The defaults are the paper's: constant relevance 1, zero
// distance, λ = 0.5, objective FMS, automatic solver selection.
type settings struct {
	k             int
	objective     Objective
	algorithm     Algorithm
	lambda        float64
	relevance     func(Row) float64
	distance      func(Row, Row) float64
	constraints   []string
	bound         float64
	rank          int
	planeMaxBytes int64
	planeRegime   PlaneRegime
	parallelism   int  // solver workers; 0 = GOMAXPROCS, 1 = sequential
	parallelSet   bool // WithParallelism given (0 means auto, not default)
	incremental   bool // maintain caches from the change journal (default on)

	// dirty records which scoring bindings a per-call option replaced;
	// Prepared.call clears it before applying the call's options, so a set
	// bit means "this call overrides the prepared δrel/δdis" and the cached
	// score plane (whose values bake those functions in) must not be used.
	dirty uint8
}

const (
	dirtyRelevance uint8 = 1 << iota
	dirtyDistance
	dirtyPlaneLimit
	dirtyPlaneRegime
)

func defaultSettings() settings {
	return settings{lambda: 0.5, incremental: true}
}

// validate rejects inconsistent settings with typed ArgErrors; it is the
// single checkpoint for both Prepare-time and per-call option sets, so a
// serving layer can classify any failure it produces as a user error.
func (s *settings) validate() error {
	if s.k < 0 {
		return argErrorf("k", "must be non-negative, got %d", s.k)
	}
	if !s.objective.valid() {
		return argErrorf("objective", "unknown objective %s", s.objective)
	}
	if !s.algorithm.valid() {
		return argErrorf("algorithm", "unknown algorithm %s", s.algorithm)
	}
	if math.IsNaN(s.lambda) || s.lambda < 0 || s.lambda > 1 {
		return argErrorf("lambda", "must be in [0,1], got %v", s.lambda)
	}
	if s.rank < 0 {
		return argErrorf("rank", "must be non-negative, got %d", s.rank)
	}
	if s.planeMaxBytes < 0 {
		return argErrorf("plane-memory-limit", "must be non-negative, got %d", s.planeMaxBytes)
	}
	if !s.planeRegime.valid() {
		return argErrorf("plane-regime", "unknown plane regime %s", s.planeRegime)
	}
	if s.parallelism < 0 {
		return argErrorf("parallelism", "must be non-negative, got %d", s.parallelism)
	}
	return nil
}

// workers resolves the effective solver worker count: the explicit
// WithParallelism value, GOMAXPROCS for WithParallelism(0), and 1
// (sequential) when the option was never given.
func (s *settings) workers() int {
	if !s.parallelSet {
		return 1
	}
	if s.parallelism == 0 {
		return runtime.GOMAXPROCS(0)
	}
	return s.parallelism
}

// An Option configures a prepared query at Prepare time or overrides its
// bindings for a single solve call.
type Option func(*settings)

// WithK sets the selection size k.
func WithK(k int) Option { return func(s *settings) { s.k = k } }

// WithObjective selects the objective-function family F.
func WithObjective(o Objective) Option { return func(s *settings) { s.objective = o } }

// WithAlgorithm selects the solving strategy.
func WithAlgorithm(a Algorithm) Option { return func(s *settings) { s.algorithm = a } }

// WithLambda sets the relevance/diversity trade-off λ ∈ [0,1]. Unlike the
// deprecated Request.Lambda/LambdaSet pair, WithLambda(0) means exactly
// λ = 0 (pure relevance, the tractable Section 8 setting); omitting the
// option keeps the default λ = 0.5.
func WithLambda(lambda float64) Option { return func(s *settings) { s.lambda = lambda } }

// WithRelevance sets δrel; nil restores the default constant 1.
func WithRelevance(f func(Row) float64) Option {
	return func(s *settings) {
		s.relevance = f
		s.dirty |= dirtyRelevance
	}
}

// WithDistance sets δdis; nil restores the default zero distance. The score
// plane fills its distance matrix across GOMAXPROCS workers, so f must be
// safe for concurrent use.
func WithDistance(f func(Row, Row) float64) Option {
	return func(s *settings) {
		s.distance = f
		s.dirty |= dirtyDistance
	}
}

// WithPlaneMemoryLimit caps the score plane's materialized distance matrix
// in bytes. Answer sets whose n(n-1)/2 pairwise entries would exceed the
// limit keep the precomputed relevance vector but serve distances from a
// sharded memoizing cache instead of a full matrix. Zero restores the
// default (64 MiB, n ≈ 4096).
func WithPlaneMemoryLimit(bytes int64) Option {
	return func(s *settings) {
		s.planeMaxBytes = bytes
		s.dirty |= dirtyPlaneLimit
	}
}

// WithPlaneRegime overrides the score plane's distance-storage regime. The
// default PlaneAuto picks from the answer count and the memory limit:
// materialized matrix when n(n-1)/2 float64 entries fit, the metric index
// above it for large candidate sets (which assumes a metric δdis), and the
// memo cache otherwise. Forcing PlaneMaterialized above the memory limit
// degrades to PlaneMemoized; PlaneIndexed and PlaneMemoized are always
// honored.
func WithPlaneRegime(r PlaneRegime) Option {
	return func(s *settings) {
		s.planeRegime = r
		s.dirty |= dirtyPlaneRegime
	}
}

// WithParallelism sets the worker count for the exact branch-and-bound
// search: n > 1 splits the search tree into prefix frames solved by n
// goroutines pruning against a shared atomic incumbent bound that is
// warm-started from the greedy heuristics, n = 1 keeps the sequential walk,
// and n = 0 uses GOMAXPROCS. The parallel search is deterministic: it
// returns byte-identical sets and scores to the sequential path — only the
// visited-node statistics differ run to run.
func WithParallelism(n int) Option {
	return func(s *settings) {
		s.parallelism = n
		s.parallelSet = true
	}
}

// WithIncrementalRefresh toggles incremental cache maintenance (on by
// default): after database mutations, a Prepared handle consults the
// relation change journal and — for delta-maintainable queries — applies
// the answer-set delta and extends/retires the score plane instead of
// rebuilding both from scratch. Turning it off forces the rebuild-on-
// every-mutation behavior; useful for differential testing and for
// measuring the incremental path's own speedup. A Prepare-time option:
// per-call overrides do not affect how the shared cache is maintained.
func WithIncrementalRefresh(on bool) Option {
	return func(s *settings) { s.incremental = on }
}

// AttrRelevance returns a δrel that reads the named attribute as a
// number: ints and floats coerce to float64, booleans to 0/1, anything
// else (including a missing attribute) to 0. It is the one definition of
// attribute-based relevance shared by the CLIs and the wire protocol's
// relevance_attr field.
func AttrRelevance(attr string) func(Row) float64 {
	return func(r Row) float64 {
		switch x := r.Get(attr).(type) {
		case int64:
			return float64(x)
		case float64:
			return x
		case bool:
			if x {
				return 1
			}
			return 0
		default:
			return 0
		}
	}
}

// AttrDistance returns the 0/1 δdis on the named attribute's inequality —
// rows agreeing on the attribute are distance 0, all others 1. Shared by
// the CLIs and the wire protocol's distance_attr field.
func AttrDistance(attr string) func(Row, Row) float64 {
	return func(a, b Row) float64 {
		if a.Get(attr) == b.Get(attr) {
			return 0
		}
		return 1
	}
}

// WithConstraints sets the compatibility constraints (class Cm, Section 9),
// replacing any previously configured set. Constraints given at Prepare
// time are parsed and validated once; per-call constraint overrides are
// compiled on that call.
func WithConstraints(constraints ...string) Option {
	return func(s *settings) { s.constraints = append([]string(nil), constraints...) }
}

// WithBound sets the objective bound B used by Decide and Count.
func WithBound(b float64) Option { return func(s *settings) { s.bound = b } }

// WithRank sets the rank threshold r used by InTopR.
func WithRank(r int) Option { return func(s *settings) { s.rank = r } }
