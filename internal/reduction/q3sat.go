package reduction

import (
	"fmt"
	"math"
	"sync"

	"repro/internal/core"
	"repro/internal/objective"
	"repro/internal/relation"
	"repro/internal/sat"
)

// PrefixDistance is the inductive distance function δdis of the Theorem 5.2
// proof (Lemma 5.3), defined over Boolean tuples encoding truth assignments
// of a prenex QBF P1x1...Pmxm ψ:
//
//	δdis(t, s) = 1 iff P_{l+1}x_{l+1}...Pm xm ψ is true under the
//	             assignment encoded by the common prefix t^l of t and s,
//
// computed by the paper's branch recursion (case (i) for l = m−1 via ψ, and
// case (ii) descending through representative branch pairs), NOT by
// evaluating the quantified suffix directly. Lemma 5.3 — that the recursion
// coincides with suffix-QBF truth — is verified by the package tests
// against sat.QBF evaluation. Figure 2 is this function instantiated at
// m = 4.
//
// Dis is safe for concurrent use: the parallel matrix fill calls it from
// several workers.
type PrefixDistance struct {
	qbf *sat.QBF
	m   int

	mu   sync.Mutex // guards memo; the recursion runs outside it
	memo map[string]bool
}

// NewPrefixDistance builds the distance for the given QBF. The matrix's
// variables 1..m are positional; Prefix must cover all of them.
func NewPrefixDistance(q *sat.QBF) *PrefixDistance {
	return &PrefixDistance{qbf: q, m: len(q.Prefix), memo: make(map[string]bool)}
}

// Dis implements objective.Distance over Boolean tuples of arity m.
func (pd *PrefixDistance) Dis(s, t relation.Tuple) float64 {
	bs, bt := bits(s), bits(t)
	l := commonPrefix(bs, bt)
	if l >= pd.m {
		return 0 // identical tuples
	}
	if pd.delta(bs[:l]) {
		return 1
	}
	return 0
}

// delta is the paper's inductive definition: for a prefix p of length l,
// delta(p) is the value δdis assigns to any pair agreeing on p and
// differing at position l+1.
func (pd *PrefixDistance) delta(p []bool) bool {
	key := prefixKey(p)
	pd.mu.Lock()
	v, ok := pd.memo[key]
	pd.mu.Unlock()
	if ok {
		return v
	}
	l := len(p)
	var out bool
	if l == pd.m-1 {
		// Case (i): the two tuples are (p,1) and (p,0); consult ψ.
		one := pd.psi(append(append([]bool(nil), p...), true))
		zero := pd.psi(append(append([]bool(nil), p...), false))
		if pd.qbf.Prefix[l] == sat.ForAll {
			out = one && zero
		} else {
			out = one || zero
		}
	} else {
		// Case (ii): descend through the representative branch pairs
		// ((p,1,1,...,1),(p,1,0,...,0)) and ((p,0,1,...,1),(p,0,0,...,0)),
		// whose values are delta(p·1) and delta(p·0).
		one := pd.delta(append(append([]bool(nil), p...), true))
		zero := pd.delta(append(append([]bool(nil), p...), false))
		if pd.qbf.Prefix[l] == sat.ForAll {
			out = one && zero
		} else {
			out = one || zero
		}
	}
	// A racing worker may have stored the same key meanwhile; delta is a
	// pure function of p, so both wrote the same value.
	pd.mu.Lock()
	pd.memo[key] = out
	pd.mu.Unlock()
	return out
}

// psi evaluates the matrix under a complete assignment.
func (pd *PrefixDistance) psi(assign []bool) bool {
	a := make(sat.Assignment, len(assign))
	for i, b := range assign {
		a[i+1] = b
	}
	return pd.qbf.Matrix.Eval(a)
}

// AllZero reports whether the distance is identically zero — the corner
// case in which the paper's Theorem 6.2 rank argument degenerates (see
// Q3SATToDRPMono).
func (pd *PrefixDistance) AllZero() bool {
	// delta(ε) computes the whole tree; if any memoized entry is true the
	// function is not identically zero. Forcing evaluation of every prefix
	// is exponential in m, fine at gadget scale.
	var walk func(p []bool) bool
	walk = func(p []bool) bool {
		if len(p) >= pd.m {
			return false
		}
		if pd.delta(p) {
			return true
		}
		return walk(append(append([]bool(nil), p...), true)) ||
			walk(append(append([]bool(nil), p...), false))
	}
	return !walk(nil)
}

func prefixKey(p []bool) string {
	b := make([]byte, len(p))
	for i, v := range p {
		if v {
			b[i] = '1'
		} else {
			b[i] = '0'
		}
	}
	return string(b)
}

// Q3SATToQRDMono performs the Theorem 5.2 reduction: given a Q3SAT sentence
// ϕ = P1x1...Pmxm ψ, it builds a QRD(CQ, Fmono) instance — the Boolean
// database I01, the cube query, δrel ≡ 1, the Lemma 5.3 distance, λ = 1,
// k = 1 and B = 1 — such that ϕ is true iff a valid set exists. Note the
// size of D and Q is polynomial in |ϕ| while |Q(D)| = 2^m: the blow-up
// behind the PSPACE combined complexity.
func Q3SATToQRDMono(q *sat.QBF) *core.Instance {
	m := len(q.Prefix)
	db := relation.NewDatabase().Add(BoolRelation())
	return &core.Instance{
		Query: CubeQuery(m),
		DB:    db,
		Obj:   objective.New(objective.Mono, objective.ConstRelevance(1), NewPrefixDistance(q), 1),
		K:     1,
		B:     1,
	}
}

// starDistance is δ*dis of Theorem 6.2: the Lemma 5.3 distance reweighted
// around the all-ones tuple t̂ — pairs (t̂, (1,v...)) halved, pairs
// (t̂, (0,v...)) doubled — so that t̂ tops the Fmono ranking exactly when ϕ
// is true.
type starDistance struct {
	base *PrefixDistance
	m    int
}

func (sd *starDistance) Dis(s, t relation.Tuple) float64 {
	d := sd.base.Dis(s, t)
	if d == 0 {
		return 0
	}
	other, involved := sd.otherOfPair(s, t)
	if !involved {
		return d
	}
	if other[0].AsInt() == 1 {
		return d / 2
	}
	return d * 2
}

// otherOfPair reports whether the pair involves the all-ones tuple and if
// so returns the other tuple.
func (sd *starDistance) otherOfPair(s, t relation.Tuple) (relation.Tuple, bool) {
	if isAllOnes(s) {
		return t, true
	}
	if isAllOnes(t) {
		return s, true
	}
	return nil, false
}

func isAllOnes(t relation.Tuple) bool {
	for _, v := range t {
		if v.AsInt() != 1 {
			return false
		}
	}
	return true
}

// Q3SATToDRPMono performs the Theorem 6.2 reduction: ϕ is true iff
// rank({t̂}) ≤ r = 1 under δ*dis, with t̂ = (1,...,1), k = 1 and λ = 1.
//
// Known corner (errata): when δdis is identically zero yet ϕ is false
// (e.g. an unsatisfiable matrix), every singleton scores 0, so rank(t̂) = 1
// and the reduction's ⇐ direction fails; the paper's proof implicitly
// assumes a level l0 with a positive distance exists. The constructor
// reports this corner via the second return value so callers can account
// for it; the package tests document it explicitly.
func Q3SATToDRPMono(q *sat.QBF) (*core.Instance, bool) {
	m := len(q.Prefix)
	base := NewPrefixDistance(q)
	db := relation.NewDatabase().Add(BoolRelation())
	ones := make([]int64, m)
	for i := range ones {
		ones[i] = 1
	}
	in := &core.Instance{
		Query: CubeQuery(m),
		DB:    db,
		Obj:   objective.New(objective.Mono, objective.ConstRelevance(1), &starDistance{base: base, m: m}, 1),
		K:     1,
		R:     1,
		U:     []relation.Tuple{relation.Ints(ones...)},
	}
	return in, base.AllZero() && !q.Eval()
}

// doubleStarDistance is δ**dis of Theorem 7.2: zero across distinct
// X-blocks; within the block of tX, the Lemma 7.3 distance over the Y
// suffix, reweighted around t̆ = (tX, 1,...,1) — pairs (t̆, (tX,1,v...))
// quartered-to-half, pairs (t̆, (tX,0,v...)) quadrupled.
type doubleStarDistance struct {
	base *PrefixDistance // over the full m+n prefix (X quantifiers unused)
	m    int             // |X|
	n    int             // |Y|
}

func (dd *doubleStarDistance) Dis(s, t relation.Tuple) float64 {
	bs, bt := bits(s), bits(t)
	if commonPrefix(bs, bt) < dd.m {
		return 0 // distinct X-blocks
	}
	d := dd.base.Dis(s, t)
	if d == 0 {
		return 0
	}
	breve, other := dd.breveOf(s, t)
	if breve == nil {
		return d
	}
	if other[dd.m] { // y1 = 1
		return d / 2
	}
	return d * 4
}

// breveOf detects whether one of the pair is its block's t̆ = (tX, 1,...,1),
// returning (that tuple's bits, the other's bits); nil when neither is.
func (dd *doubleStarDistance) breveOf(s, t relation.Tuple) ([]bool, []bool) {
	bs, bt := bits(s), bits(t)
	if allTrue(bs[dd.m:]) {
		return bs, bt
	}
	if allTrue(bt[dd.m:]) {
		return bt, bs
	}
	return nil, nil
}

func allTrue(bs []bool) bool {
	for _, b := range bs {
		if !b {
			return false
		}
	}
	return true
}

// QBFToRDCMono performs the Theorem 7.2 parsimonious reduction from #QBF:
// given ϕ = ∃X ∀y1 P2y2 ... Pnyn ψ with |X| = m and |Y| = n ≥ 2, the number
// of valid sets of the returned instance equals the number of truth
// assignments of X satisfying ϕ. The instance uses the cube query over
// m+n variables, δrel ≡ 1, δ**dis, λ = 1, k = 1 and
// B = 2^(n+1)/(2^(m+n) − 1).
//
// yPrefix[0] must be ForAll (the problem's first Y quantifier); n = 1 is
// rejected because the paper's counting argument admits ties there.
func QBFToRDCMono(matrix *sat.CNF, m int, yPrefix []sat.Quantifier) (*core.Instance, error) {
	n := len(yPrefix)
	if n < 2 {
		return nil, fmt.Errorf("reduction: QBFToRDCMono requires n >= 2 Y-variables, got %d", n)
	}
	if yPrefix[0] != sat.ForAll {
		return nil, fmt.Errorf("reduction: #QBF instances start with a universal Y-quantifier")
	}
	full := make([]sat.Quantifier, m+n)
	for i := 0; i < m; i++ {
		full[i] = sat.Exists // positional only; never consulted by δ**
	}
	copy(full[m:], yPrefix)
	q := &sat.QBF{Prefix: full, Matrix: matrix}
	base := NewPrefixDistance(q)
	db := relation.NewDatabase().Add(BoolRelation())
	return &core.Instance{
		Query: CubeQuery(m + n),
		DB:    db,
		Obj: objective.New(objective.Mono, objective.ConstRelevance(1),
			&doubleStarDistance{base: base, m: m, n: n}, 1),
		K: 1,
		B: math.Pow(2, float64(n+1)) / (math.Pow(2, float64(m+n)) - 1),
	}, nil
}

// CountQBFFreeModels is the reference count for QBFToRDCMono: the number of
// X-assignments under which ∀y1 P2y2 ... Pnyn ψ holds.
func CountQBFFreeModels(matrix *sat.CNF, m int, yPrefix []sat.Quantifier) int64 {
	full := make([]sat.Quantifier, m+len(yPrefix))
	for i := 0; i < m; i++ {
		full[i] = sat.Exists
	}
	copy(full[m:], yPrefix)
	q := &sat.QBF{Prefix: full, Matrix: matrix}
	return q.CountFreeModels(m)
}

// Figure2QBF returns the running example of Figure 2:
// ϕ = ∃x1 ∀x2 ∃x3 ∀x4 ψ with ψ = (x1 ∨ x2 ∨ ¬x3) ∧ (¬x2 ∨ ¬x3 ∨ x4).
func Figure2QBF() *sat.QBF {
	return &sat.QBF{
		Prefix: []sat.Quantifier{sat.Exists, sat.ForAll, sat.Exists, sat.ForAll},
		Matrix: sat.NewCNF(sat.Clause{1, 2, -3}, sat.Clause{-2, -3, 4}),
	}
}

// Figure2Tuple returns ti (1-based, i in [1,16]) under the figure's column
// encoding: t1 = (1,1,1,1), t2 = (1,1,1,0), ..., t16 = (0,0,0,0) — x1 is
// the most significant bit and 1 sorts before 0.
func Figure2Tuple(i int) relation.Tuple {
	code := 16 - i // t16 = 0000, t1 = 1111
	xs := make([]int64, 4)
	for b := 0; b < 4; b++ {
		xs[b] = int64((code >> (3 - b)) & 1)
	}
	return relation.Ints(xs...)
}
