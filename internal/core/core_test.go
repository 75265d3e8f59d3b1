package core

import (
	"context"
	"strings"
	"testing"

	"repro/internal/compat"
	"repro/internal/objective"
	"repro/internal/query"
	"repro/internal/relation"
	"repro/internal/value"
)

// pointsInstance builds a small identity-query instance over a unary
// relation of integers with relevance = the value and unit distances.
func pointsInstance(t *testing.T, k int, vals ...int64) *Instance {
	t.Helper()
	r := relation.NewRelation(relation.NewSchema("P", "x"))
	for _, v := range vals {
		r.Insert(relation.Tuple{value.Int(v)})
	}
	db := relation.NewDatabase().Add(r)
	obj := objective.New(objective.MaxSum,
		objective.AttrRelevance(0, 1), objective.HammingDistance(), 0.5)
	return &Instance{
		Query: query.IdentityQueryNamed("P", []string{"x"}),
		DB:    db,
		Obj:   obj,
		K:     k,
	}
}

func TestProblemString(t *testing.T) {
	cases := map[Problem]string{QRD: "QRD", DRP: "DRP", RDC: "RDC", Problem(9): "Problem(9)"}
	for p, want := range cases {
		if got := p.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", int(p), got, want)
		}
	}
}

func TestAnswersMemoization(t *testing.T) {
	in := pointsInstance(t, 2, 3, 1, 2)
	first := in.Answers()
	if len(first) != 3 {
		t.Fatalf("|Q(D)| = %d, want 3", len(first))
	}
	// Answers are deterministic and sorted.
	for i := 1; i < len(first); i++ {
		if first[i-1].Compare(first[i]) >= 0 {
			t.Error("answers not in canonical order")
		}
	}
	// Mutating the database after memoization must not change Answers —
	// the memo pins the snapshot the instance was built over.
	in.DB.Relation("P").Insert(relation.Tuple{value.Int(99)})
	if got := len(in.Answers()); got != 3 {
		t.Errorf("memoized answers changed: %d", got)
	}
	in.ResetAnswers()
	if got := len(in.Answers()); got != 4 {
		t.Errorf("after reset, answers = %d, want 4", got)
	}
	// SetAnswers(nil), by contrast, memoizes emptiness.
	in.SetAnswers(nil)
	if got := len(in.Answers()); got != 0 {
		t.Errorf("after SetAnswers(nil), answers = %d, want 0", got)
	}
}

// TestIsCandidateFollowsAnswerMemo: IsCandidate searches the memoized
// answers in canonical order, so candidacy follows SetAnswers and
// ResetAnswers.
func TestIsCandidateFollowsAnswerMemo(t *testing.T) {
	in := pointsInstance(t, 2, 1, 2, 3)
	a := in.Answers()
	for i := 0; i < 3; i++ {
		if !in.IsCandidate([]relation.Tuple{a[0], a[1]}) {
			t.Fatal("candidate rejected")
		}
	}
	// 42 sorts after every point, so the new answers stay in canonical
	// order.
	outside := relation.Tuple{value.Int(42)}
	in.SetAnswers([]relation.Tuple{a[0], outside})
	if !in.IsCandidate([]relation.Tuple{a[0], outside}) {
		t.Error("new answer rejected after SetAnswers")
	}
	if in.IsCandidate([]relation.Tuple{a[0], a[1]}) {
		t.Error("old answer accepted after SetAnswers")
	}
	in.ResetAnswers()
	if !in.IsCandidate([]relation.Tuple{a[0], a[1]}) {
		t.Error("answers not re-evaluated after ResetAnswers")
	}
}

func TestPlaneMemoizedAndInvalidated(t *testing.T) {
	in := pointsInstance(t, 2, 1, 2, 3)
	p1 := in.Plane()
	if p1 == nil || p1.Len() != 3 {
		t.Fatalf("plane = %v", p1)
	}
	if in.Plane() != p1 {
		t.Error("plane rebuilt although answers did not change")
	}
	in.SetAnswers(in.Answers()[:2])
	p2 := in.Plane()
	if p2 == p1 || p2.Len() != 2 {
		t.Error("plane not invalidated by SetAnswers")
	}
}

func TestIsCandidateSemantics(t *testing.T) {
	in := pointsInstance(t, 2, 1, 2, 3)
	a := in.Answers()
	if !in.IsCandidate([]relation.Tuple{a[0], a[1]}) {
		t.Error("two distinct answers form a candidate set")
	}
	if in.IsCandidate([]relation.Tuple{a[0]}) {
		t.Error("wrong cardinality accepted")
	}
	if in.IsCandidate([]relation.Tuple{a[0], a[0]}) {
		t.Error("multiset accepted as a set")
	}
	outside := relation.Tuple{value.Int(42)}
	if in.IsCandidate([]relation.Tuple{a[0], outside}) {
		t.Error("tuple outside Q(D) accepted")
	}
}

func TestIsValidUsesBound(t *testing.T) {
	in := pointsInstance(t, 2, 1, 2, 3)
	a := in.Answers()
	u := []relation.Tuple{a[1], a[2]} // values 2 and 3
	v := in.Eval(u)
	in.B = v
	if !in.IsValid(u) {
		t.Error("set at the bound must be valid (F >= B)")
	}
	in.B = v + 0.001
	if in.IsValid(u) {
		t.Error("set below the bound accepted")
	}
}

func TestConstraintsGateCandidacy(t *testing.T) {
	in := pointsInstance(t, 2, 1, 2, 3)
	set := compat.NewSet(2)
	set.MustAdd(compat.MustParse(`exists s (s.x = 1)`))
	in.Sigma = set
	a := in.Answers()
	with1 := []relation.Tuple{a[0], a[1]} // {1, 2}
	without1 := []relation.Tuple{a[1], a[2]}
	if !in.IsCandidate(with1) {
		t.Error("set containing x=1 satisfies Σ")
	}
	if in.IsCandidate(without1) {
		t.Error("set missing x=1 violates Σ")
	}
	// Nil Sigma means unconstrained.
	in.Sigma = nil
	if !in.SatisfiesConstraints(without1) {
		t.Error("nil Σ should be vacuous")
	}
}

func TestLanguageClassification(t *testing.T) {
	in := pointsInstance(t, 1, 1)
	if got := in.Language(); got != query.Identity {
		t.Errorf("identity instance classified %v", got)
	}
}

func TestResultSchema(t *testing.T) {
	in := pointsInstance(t, 1, 1)
	s := in.ResultSchema()
	if s.Arity() != 1 || s.AttrIndex("x") != 0 {
		t.Errorf("result schema wrong: %v", s)
	}
}

func TestSettingString(t *testing.T) {
	s := Setting{Problem: QRD, Language: query.CQ, Objective: objective.MaxSum}
	if got := s.String(); got != "QRD(CQ, FMS) combined" {
		t.Errorf("Setting.String() = %q", got)
	}
	full := Setting{
		Problem: RDC, Language: query.FO, Objective: objective.Mono,
		Data: true, Lambda0: true, ConstantK: true, Constraints: true,
	}
	for _, want := range []string{"RDC(FO, Fmono)", "data", "λ=0", "const-k", "+Σ"} {
		if got := full.String(); !strings.Contains(got, want) {
			t.Errorf("Setting.String() = %q missing %q", got, want)
		}
	}
	l1 := Setting{Problem: DRP, Language: query.UCQ, Objective: objective.MaxMin, Lambda1: true}
	if got := l1.String(); !strings.Contains(got, "λ=1") {
		t.Errorf("Setting.String() = %q missing λ=1", got)
	}
}

func TestSetAnswersEmptyIsMemo(t *testing.T) {
	// An explicitly set empty (nil) answer set is a memo, not a miss: a
	// nil-slice sentinel here would silently re-evaluate the query — twice
	// per solve on cached-but-empty prepared queries — returning the
	// database rows instead of the cached empty set.
	r := relation.NewRelation(relation.NewSchema("R", "x"))
	r.Insert(relation.Ints(1))
	r.Insert(relation.Ints(2))
	db := relation.NewDatabase().Add(r)
	in := &Instance{Query: query.IdentityQuery("R", 1), DB: db, K: 1}
	in.SetAnswers(nil)
	if got := in.Answers(); len(got) != 0 {
		t.Errorf("Answers() re-evaluated past an empty memo: got %d tuples", len(got))
	}
	got, err := in.AnswersContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Errorf("AnswersContext() re-evaluated past an empty memo: got %d tuples", len(got))
	}
}
