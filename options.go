package diversification

import (
	"fmt"
	"math"
	"runtime"

	"repro/internal/value"
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

// ArgError reports an invalid caller-supplied argument: which field was at
// fault and why. Every validation failure of the option set, the request
// compiler and the candidate-set checks wraps into one, so serving layers
// can tell user errors (map to HTTP 400) from internal failures (500) with
// a single errors.As test.
type ArgError struct {
	// Field names the offending argument in its user-facing spelling:
	// "k", "lambda", "objective", "algorithm", "rank", "bound", "set",
	// "constraints", "problem", "parallelism".
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
	k           int
	objective   Objective
	algorithm   Algorithm
	lambda      float64
	relevance   func(Row) float64
	distance    func(Row, Row) float64 // δdis as a function; nil when unset or distAttr
	distAttr    *AttrDistance          // δdis as an attribute; nil when unset or distance
	constraints []string
	bound       float64
	rank        int
	parallelism int  // solver workers; 0 = GOMAXPROCS, 1 = one walk
	parallelSet bool // WithParallelism given (0 means auto, not default)

	// dirty records which scoring bindings a per-call option replaced;
	// Prepared.call clears it before applying the call's options, so a set
	// bit means "this call overrides the prepared δrel/δdis" and the cached
	// score plane (whose values bake those functions in) must not be used.
	dirty uint8
}

const (
	dirtyRelevance uint8 = 1 << iota
	dirtyDistance
)

func defaultSettings() settings {
	return settings{lambda: 0.5}
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
	if s.parallelism < 0 {
		return argErrorf("parallelism", "must be non-negative, got %d", s.parallelism)
	}
	return nil
}

// workers resolves the effective solver worker count: the explicit
// WithParallelism value, GOMAXPROCS for WithParallelism(0), and 1 (one
// worker walking the whole tree) when the option was never given.
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

// Distance is what WithDistance accepts as δdis: a function of two rows,
// or an AttrDistance naming the attribute whose inequality is the distance.
type Distance interface {
	func(Row, Row) float64 | AttrDistance
}

// WithDistance sets δdis; a nil function (typed, such as a nil
// func(Row, Row) float64 variable) restores the default zero distance.
//
// An AttrDistance is data, not a closure: the score plane groups the
// answers by the attribute and serves every distance, Fmono row sum and
// greedy round from per-category lists, in O(n) memory at any answer
// count.
//
// A function is opaque to the plane: it must be symmetric with a zero
// diagonal and safe for concurrent use (the plane fills its distance
// matrix across GOMAXPROCS workers), and nothing more. Above 4,096 answers
// the plane stores no distances and calls the function for each pair it
// needs.
func WithDistance[D Distance](d D) Option {
	return func(s *settings) {
		switch d := any(d).(type) {
		case AttrDistance:
			s.distance, s.distAttr = nil, &d
		case func(Row, Row) float64:
			s.distance, s.distAttr = d, nil
		}
		s.dirty |= dirtyDistance
	}
}

// WithParallelism sets the worker count for the exact branch-and-bound
// search. Every count prunes against one incumbent bound, warm-started from
// the greedy heuristics for the best-set search. n = 1, the default, walks
// the whole tree with one worker; n > 1 splits it into prefix frames solved
// by n goroutines sharing the bound atomically; n = 0 uses GOMAXPROCS. The
// search is deterministic: every worker count returns byte-identical sets
// and scores — only the visited-node statistics differ run to run.
func WithParallelism(n int) Option {
	return func(s *settings) {
		s.parallelism = n
		s.parallelSet = true
	}
}

// AttrRelevance returns a δrel that reads the named attribute as a
// number: ints and floats coerce to float64, booleans to 0/1, anything
// else (including a missing attribute) to 0. It is the one definition of
// attribute-based relevance shared by the CLIs and the wire protocol's
// relevance_attr field.
func AttrRelevance(attr string) func(Row) float64 {
	return func(r Row) float64 {
		i := r.schema.AttrIndex(attr)
		if i < 0 || i >= len(r.tuple) {
			return 0
		}
		switch v := r.tuple[i]; v.Kind() {
		case value.KindInt, value.KindFloat, value.KindBool:
			return v.AsFloat()
		default:
			return 0
		}
	}
}

// AttrDistance is the 0/1 δdis on the named attribute's inequality: rows
// agreeing on the attribute are distance 0, all others 1. Two values agree
// when Row.Get returns equal values, so they have the same kind and the
// same payload: floats compare by ==, so a NaN agrees with nothing and −0
// agrees with +0, and the int 1 differs from the float 1.0. An attribute
// missing from the schema reads nil on every row, which is the zero
// distance. Shared by the CLIs, the wire protocol's distance_attr field and
// the coordinator's coreset merge; pass it to WithDistance as a value, as
// in WithDistance(AttrDistance("type")), so the plane can see the
// attribute.
type AttrDistance string

// Dis is the distance between rows a and b.
func (attr AttrDistance) Dis(a, b Row) float64 {
	if a.Get(string(attr)) == b.Get(string(attr)) {
		return 0
	}
	return 1
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
