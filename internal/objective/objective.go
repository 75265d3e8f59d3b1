// Package objective implements the bi-criteria objective functions of
// Section 3: max-sum diversification (FMS), max-min diversification (FMM)
// and the mono-objective formulation (Fmono), each defined from a relevance
// function δrel, a distance function δdis and the trade-off parameter
// λ ∈ [0,1]. λ = 0 yields relevance-only objectives and λ = 1 diversity-only
// objectives, the two extremes studied in Section 8.
package objective

import (
	"fmt"
	"math"

	"repro/internal/relation"
	"repro/internal/value"
)

// Relevance is δrel(·, Q): it scores a query answer's relevance to the query
// as a non-negative number (larger = more relevant). Implementations must be
// deterministic and PTIME, as the paper assumes.
type Relevance interface {
	Rel(t relation.Tuple) float64
}

// Distance is δdis(·, ·): a symmetric non-negative dissimilarity on answer
// tuples with δdis(t, t) = 0 (larger = more diverse).
type Distance interface {
	Dis(s, t relation.Tuple) float64
}

// RelevanceFunc adapts a function to the Relevance interface.
type RelevanceFunc func(t relation.Tuple) float64

// Rel invokes the function.
func (f RelevanceFunc) Rel(t relation.Tuple) float64 { return f(t) }

// DistanceFunc adapts a function to the Distance interface.
type DistanceFunc func(s, t relation.Tuple) float64

// Dis invokes the function.
func (f DistanceFunc) Dis(s, t relation.Tuple) float64 { return f(s, t) }

// ConstRelevance returns a relevance function that is constant c, the shape
// used throughout the diversity-only reductions (λ=1 proofs).
func ConstRelevance(c float64) Relevance {
	return RelevanceFunc(func(relation.Tuple) float64 { return c })
}

// ZeroDistance is the all-zero distance used by the relevance-only
// reductions (λ=0 proofs).
func ZeroDistance() Distance {
	return DistanceFunc(func(_, _ relation.Tuple) float64 { return 0 })
}

// TableRelevance scores tuples by lookup, with a default for misses. It is
// the programmatic analogue of Example 3.1's history-derived relevance.
type TableRelevance struct {
	Scores  map[string]float64 // keyed by Tuple.Key()
	Default float64
}

// Rel returns the stored score or the default.
func (tr *TableRelevance) Rel(t relation.Tuple) float64 {
	if s, ok := tr.Scores[t.Key()]; ok {
		return s
	}
	return tr.Default
}

// Set records a score for a tuple and returns the receiver for chaining.
func (tr *TableRelevance) Set(t relation.Tuple, s float64) *TableRelevance {
	if tr.Scores == nil {
		tr.Scores = make(map[string]float64)
	}
	tr.Scores[t.Key()] = s
	return tr
}

// AttrRelevance scores a tuple by a numeric attribute at a fixed column,
// scaled; negative results clamp to 0 to respect non-negativity.
func AttrRelevance(col int, scale float64) Relevance {
	return RelevanceFunc(func(t relation.Tuple) float64 {
		if col < 0 || col >= len(t) {
			return 0
		}
		v := t[col].AsFloat() * scale
		if v < 0 || math.IsNaN(v) {
			return 0
		}
		return v
	})
}

// HammingDistance counts positions at which two tuples differ — the
// "difference between their types" flavour of distance from Example 3.1,
// generalized to all columns.
func HammingDistance() Distance {
	return DistanceFunc(func(s, t relation.Tuple) float64 {
		n := len(s)
		if len(t) < n {
			n = len(t)
		}
		d := 0.0
		for i := 0; i < n; i++ {
			if !value.Equal(s[i], t[i]) {
				d++
			}
		}
		return d
	})
}

// WeightedHamming weighs per-column disagreement.
func WeightedHamming(weights []float64) Distance {
	return DistanceFunc(func(s, t relation.Tuple) float64 {
		d := 0.0
		for i := 0; i < len(weights) && i < len(s) && i < len(t); i++ {
			if !value.Equal(s[i], t[i]) {
				d += weights[i]
			}
		}
		return d
	})
}

// EuclideanDistance treats all columns as numeric coordinates.
func EuclideanDistance() Distance {
	return DistanceFunc(func(s, t relation.Tuple) float64 {
		n := len(s)
		if len(t) < n {
			n = len(t)
		}
		sum := 0.0
		for i := 0; i < n; i++ {
			d := s[i].AsFloat() - t[i].AsFloat()
			sum += d * d
		}
		return math.Sqrt(sum)
	})
}

// TableDistance is a symmetric pairwise lookup with a default; it realizes
// the explicitly tabulated distance functions of the lower-bound proofs
// (e.g. Figure 2). Keys are stored unordered.
type TableDistance struct {
	Pairs   map[[2]string]float64
	Default float64
}

// NewTableDistance creates an empty table with the given default.
func NewTableDistance(def float64) *TableDistance {
	return &TableDistance{Pairs: make(map[[2]string]float64), Default: def}
}

// Set records δdis(s, t) = d (symmetrically).
func (td *TableDistance) Set(s, t relation.Tuple, d float64) *TableDistance {
	td.Pairs[pairKey(s.Key(), t.Key())] = d
	return td
}

// Dis looks up the pair, returning 0 on identical tuples and the default on
// misses.
func (td *TableDistance) Dis(s, t relation.Tuple) float64 {
	a, b := s.Key(), t.Key()
	if a == b {
		return 0
	}
	if d, ok := td.Pairs[pairKey(a, b)]; ok {
		return d
	}
	return td.Default
}

func pairKey(a, b string) [2]string {
	if a > b {
		a, b = b, a
	}
	return [2]string{a, b}
}

// Kind identifies which of the paper's three objective functions is in use.
type Kind int

// The three objective functions of Gollapudi & Sharma as revised in
// Section 3.2.
const (
	MaxSum Kind = iota // FMS
	MaxMin             // FMM
	Mono               // Fmono
)

// String returns the paper's abbreviation.
func (k Kind) String() string {
	switch k {
	case MaxSum:
		return "FMS"
	case MaxMin:
		return "FMM"
	case Mono:
		return "Fmono"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Objective bundles δrel, δdis, λ and the function kind; its Eval method
// computes F(U) for a candidate set U ⊆ Q(D).
type Objective struct {
	Kind   Kind
	Rel    Relevance
	Dis    Distance
	Lambda float64
}

// New builds an objective, defaulting nil components to constant-1 relevance
// and zero distance, and clamping λ into [0,1].
func New(kind Kind, rel Relevance, dis Distance, lambda float64) *Objective {
	if rel == nil {
		rel = ConstRelevance(1)
	}
	if dis == nil {
		dis = ZeroDistance()
	}
	if lambda < 0 {
		lambda = 0
	}
	if lambda > 1 {
		lambda = 1
	}
	return &Objective{Kind: kind, Rel: rel, Dis: dis, Lambda: lambda}
}

// Eval computes F(U). For FMS and FMM, only U matters. For Fmono the whole
// answer space Q(D) enters through the normalized global distance term, so
// callers must pass it; result may be 0 for empty U.
//
//	FMS(U)  = (k-1)(1-λ)·Σ_{t∈U} δrel(t) + λ·Σ_{t≠t'∈U ordered} δdis(t,t')
//	FMM(U)  = (1-λ)·min_{t∈U} δrel(t) + λ·min_{t≠t'∈U} δdis(t,t')
//	Fmono(U)= Σ_{t∈U} [(1-λ)·δrel(t) + λ/(|Q(D)|-1)·Σ_{t'∈Q(D)} δdis(t,t')]
func (o *Objective) Eval(u []relation.Tuple, answers []relation.Tuple) float64 {
	switch o.Kind {
	case MaxSum:
		return o.evalMaxSum(u)
	case MaxMin:
		return o.evalMaxMin(u)
	case Mono:
		return o.evalMono(u, answers)
	default:
		panic(fmt.Sprintf("objective: unknown kind %d", o.Kind))
	}
}

func (o *Objective) evalMaxSum(u []relation.Tuple) float64 {
	k := len(u)
	if k == 0 {
		return 0
	}
	relSum := 0.0
	for _, t := range u {
		relSum += o.Rel.Rel(t)
	}
	disSum := 0.0
	for i := range u {
		for j := i + 1; j < len(u); j++ {
			disSum += o.Dis.Dis(u[i], u[j])
		}
	}
	// The paper's Σ_{t,t'∈U} ranges over ordered pairs: twice the
	// unordered sum (δdis is symmetric and zero on the diagonal).
	return float64(k-1)*(1-o.Lambda)*relSum + o.Lambda*2*disSum
}

func (o *Objective) evalMaxMin(u []relation.Tuple) float64 {
	if len(u) == 0 {
		return 0
	}
	minRel := math.Inf(1)
	for _, t := range u {
		if r := o.Rel.Rel(t); r < minRel || math.IsNaN(r) {
			minRel = r
		}
	}
	minDis := 0.0
	if len(u) >= 2 {
		minDis = math.Inf(1)
		for i := range u {
			for j := i + 1; j < len(u); j++ {
				if d := o.Dis.Dis(u[i], u[j]); d < minDis {
					minDis = d
				}
			}
		}
	}
	return (1-o.Lambda)*minRel + o.Lambda*minDis
}

func (o *Objective) evalMono(u []relation.Tuple, answers []relation.Tuple) float64 {
	n := len(answers)
	sum := 0.0
	for _, t := range u {
		sum += (1 - o.Lambda) * o.Rel.Rel(t)
		if n > 1 {
			g := 0.0
			for _, s := range answers {
				g += o.Dis.Dis(t, s)
			}
			sum += o.Lambda / float64(n-1) * g
		}
	}
	return sum
}

// MonoScores precomputes the per-tuple score
// v(t) = (1-λ)·δrel(t) + λ/(|Q(D)|-1)·Σ_{t'∈Q(D)} δdis(t,t') for every
// answer. Fmono(U) = Σ_{t∈U} v(t), the modularity that powers every PTIME
// algorithm for Fmono in the paper (Thm 5.4, Thm 6.4, Cor 8.1). The solvers
// read the same scores from MonoScoresPlane; this tuple-level form is the
// reference the plane must reproduce bit for bit.
func (o *Objective) MonoScores(answers []relation.Tuple) []float64 {
	n := len(answers)
	out := make([]float64, n)
	for i, t := range answers {
		v := (1 - o.Lambda) * o.Rel.Rel(t)
		if n > 1 {
			g := 0.0
			for _, s := range answers {
				g += o.Dis.Dis(t, s)
			}
			v += o.Lambda / float64(n-1) * g
		}
		out[i] = v
	}
	return out
}

// MaxSumDelta returns the increase of FMS when tuple t joins set u of target
// size k: the incremental form behind the max-sum greedy's running gains,
// and the tuple-level reference MaxSumDeltaIDs must reproduce bit for bit.
func (o *Objective) MaxSumDelta(u []relation.Tuple, t relation.Tuple, k int) float64 {
	d := float64(k-1) * (1 - o.Lambda) * o.Rel.Rel(t)
	for _, s := range u {
		d += o.Lambda * 2 * o.Dis.Dis(s, t)
	}
	return d
}
