// Package core defines the shared problem-instance types of the paper's
// Section 4: the three analysis problems QRD (query result diversification),
// DRP (diversity ranking) and RDC (result diversity counting), and the
// Instance structure that bundles their common input — a database D, a query
// Q in some language LQ, an objective function F built from δrel, δdis and λ,
// the set size k, the bound B or rank r, and optionally a set Σ of
// compatibility constraints (Section 9).
package core

import (
	"context"
	"fmt"

	"repro/internal/compat"
	"repro/internal/objective"
	"repro/internal/query"
	"repro/internal/query/eval"
	"repro/internal/relation"
)

// Problem identifies one of the paper's three diversification problems.
type Problem int

// The three problems of Section 4.1.
const (
	QRD Problem = iota // does a valid set exist? (decision)
	DRP                // is rank(U) <= r? (decision)
	RDC                // how many valid sets are there? (counting)
)

// String returns the paper's abbreviation.
func (p Problem) String() string {
	switch p {
	case QRD:
		return "QRD"
	case DRP:
		return "DRP"
	case RDC:
		return "RDC"
	default:
		return fmt.Sprintf("Problem(%d)", int(p))
	}
}

// Instance is a problem instance shared by QRD, DRP and RDC. Its answer
// set, evaluated or installed, is kept in canonical order
// (relation.Tuple.Compare) wherever answers are looked up, so every lookup
// is a binary search (relation.Search).
type Instance struct {
	Query *query.Query
	DB    *relation.Database
	Obj   *objective.Objective
	K     int // candidate-set size k >= 1

	// B is the objective bound for QRD and RDC (F(U) >= B is "valid").
	B float64
	// R is the rank threshold for DRP (is rank(U) <= R?).
	R int
	// U is the candidate set whose rank DRP assesses.
	U []relation.Tuple

	// Sigma optionally holds compatibility constraints of Cm; nil means
	// the unconstrained problems of Sections 5-8.
	Sigma *compat.Set

	// Parallelism is the worker count for the exact branch-and-bound
	// search: values above 1 split the search tree into frames solved by
	// that many goroutines against a shared atomic incumbent bound. 0 and 1
	// run the sequential walk. The parallel search returns byte-identical
	// results to the sequential one; only Stats differ.
	Parallelism int
	// ParallelDepth is the tree depth at which the parallel search splits
	// the selection prefixes into frames; 0 picks a depth automatically
	// from |Q(D)| and the worker count.
	ParallelDepth int

	// PlaneRegime requests a distance-storage regime for the plane
	// (materialized matrix, metric index, or memo cache); the zero value
	// (objective.RegimeAuto) resolves from the answer count alone.
	PlaneRegime objective.Regime

	answers     []relation.Tuple // memoized Q(D)
	haveAnswers bool             // distinguishes an empty memo from no memo
	plane       *objective.Plane // memoized score plane over answers
}

// Answers computes (and memoizes) the answer set Q(D) in canonical order
// (relation.Tuple.Compare). Solvers that must avoid materializing Q(D) (the
// paper's early-termination motivation) use eval.Member directly instead.
func (in *Instance) Answers() []relation.Tuple {
	if !in.haveAnswers {
		in.answers = eval.Evaluate(in.Query, in.DB)
		in.haveAnswers = true
	}
	return in.answers
}

// AnswersContext is Answers under a cancellation context: the (possibly
// exponential, for FO queries) evaluation of Q(D) is interruptible, and the
// memo is only filled by a completed evaluation.
func (in *Instance) AnswersContext(ctx context.Context) ([]relation.Tuple, error) {
	if in.haveAnswers {
		return in.answers, nil
	}
	answers, err := eval.EvaluateContext(ctx, in.Query, in.DB)
	if err != nil {
		return nil, err
	}
	in.answers = answers
	in.haveAnswers = true
	return in.answers, nil
}

// SetAnswers overrides the memoized answer set; used by identity-query
// instances where Q(D) = D is available without evaluation, and by tests.
// A nil slice is a valid (empty) answer set, not an unset memo; use
// ResetAnswers to force re-evaluation. IsCandidate and the warm starts that
// intern a heuristic's set find answers by binary search, so they need ts
// in canonical order (relation.Tuple.Compare); solvers that look nothing
// up, such as greedy and the sequential exact search, take any order.
func (in *Instance) SetAnswers(ts []relation.Tuple) {
	in.answers = ts
	in.haveAnswers = true
	in.plane = nil
}

// ResetAnswers discards the memoized answer set so the next Answers call
// re-evaluates the query; used by benchmarks that measure evaluation cost.
func (in *Instance) ResetAnswers() {
	in.answers = nil
	in.haveAnswers = false
	in.plane = nil
}

// Plane returns the interned score plane over Answers(), building it lazily
// on first use (the one-shot path; Prepared handles inject a cached plane
// via SetPlane instead). Every solver scores through it.
func (in *Instance) Plane() *objective.Plane {
	p, _ := in.PlaneContext(context.Background())
	return p
}

// PlaneContext is Plane under a cancellation context: both the answer-set
// evaluation and the plane's relevance fill poll ctx. The instance-level
// plane is built unmaterialized — distances memoize on demand — so
// relevance-only consumers stay O(n); the exact search materializes the
// matrix itself when the memory guard allows.
func (in *Instance) PlaneContext(ctx context.Context) (*objective.Plane, error) {
	if in.plane != nil {
		return in.plane, nil
	}
	answers, err := in.AnswersContext(ctx)
	if err != nil {
		return nil, err
	}
	p, err := objective.NewPlaneContext(ctx, in.Obj, answers, objective.PlaneOptions{Regime: in.PlaneRegime})
	if err != nil {
		return nil, err
	}
	in.plane = p
	return p, nil
}

// SetPlane installs an externally built (e.g. Prepared-cached or streaming)
// score plane. The plane's interned answers must be Answers() in the same
// order; callers installing both use SetAnswers first, since SetAnswers
// invalidates the plane memo.
func (in *Instance) SetPlane(p *objective.Plane) { in.plane = p }

// ResultSchema is the schema RQ of the query result: one attribute per head
// variable.
func (in *Instance) ResultSchema() relation.Schema {
	return relation.NewSchema(in.Query.Name, in.Query.Head...)
}

// Eval scores a candidate set under the instance's objective, supplying the
// answer space that Fmono needs.
func (in *Instance) Eval(u []relation.Tuple) float64 {
	return in.Obj.Eval(u, in.Answers())
}

// SatisfiesConstraints reports U ⊨ Σ (trivially true without constraints).
func (in *Instance) SatisfiesConstraints(u []relation.Tuple) bool {
	if in.Sigma == nil {
		return true
	}
	return in.Sigma.Satisfies(u, in.ResultSchema())
}

// IsCandidate reports whether u is a candidate set for (Q, D, k) — and for
// (Q, D, Σ, k) when constraints are present: u ⊆ Q(D), |u| = k, u ⊨ Σ.
// Membership is a binary search of the memoized answer set, whose
// positions also tell repeated rows apart.
func (in *Instance) IsCandidate(u []relation.Tuple) bool {
	if len(u) != in.K {
		return false
	}
	answers := in.Answers()
	seen := make(map[int]bool, len(u))
	for _, t := range u {
		i, ok := relation.Search(answers, t)
		if !ok || seen[i] {
			return false // outside Q(D), or not a set
		}
		seen[i] = true
	}
	return in.SatisfiesConstraints(u)
}

// IsValid reports whether u is a valid set for (Q, D, k, F, B): a candidate
// set with F(u) >= B.
func (in *Instance) IsValid(u []relation.Tuple) bool {
	return in.IsCandidate(u) && in.Eval(u) >= in.B
}

// Language classifies the instance's query.
func (in *Instance) Language() query.Language { return in.Query.Classify() }

// Setting describes a cell of the paper's complexity tables: which problem,
// which language, which objective, and which special-case restrictions
// apply. The bench harness uses it to label experiments and to look up the
// proved bound.
type Setting struct {
	Problem     Problem
	Language    query.Language
	Objective   objective.Kind
	Data        bool // data complexity (fixed query) vs combined
	Lambda0     bool // λ = 0: relevance only (Section 8)
	Lambda1     bool // λ = 1: diversity only (Section 8)
	ConstantK   bool // k is a predefined constant (Section 8)
	Constraints bool // compatibility constraints present (Section 9)
}

// String renders the setting compactly, e.g.
// "QRD(CQ, FMS) combined λ=1 +Σ".
func (s Setting) String() string {
	out := fmt.Sprintf("%s(%s, %s)", s.Problem, s.Language, s.Objective)
	if s.Data {
		out += " data"
	} else {
		out += " combined"
	}
	if s.Lambda0 {
		out += " λ=0"
	}
	if s.Lambda1 {
		out += " λ=1"
	}
	if s.ConstantK {
		out += " const-k"
	}
	if s.Constraints {
		out += " +Σ"
	}
	return out
}
