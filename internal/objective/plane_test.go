package objective

import (
	"context"
	"fmt"
	"math"
	"sync"
	"testing"

	"repro/internal/relation"
)

// planeAnswers builds n deterministic 2-column tuples.
func planeAnswers(n int) []relation.Tuple {
	out := make([]relation.Tuple, n)
	for i := 0; i < n; i++ {
		out[i] = relation.Ints(int64(i), int64((i*7)%13))
	}
	return out
}

func planeObjective(n int) *Objective {
	answers := planeAnswers(n)
	tr := &TableRelevance{Scores: map[string]float64{}, Default: 0.25}
	td := NewTableDistance(0.5)
	for i, t := range answers {
		tr.Set(t, float64(i%11)/11)
		for j := i + 1; j < n; j++ {
			td.Set(t, answers[j], float64((i+j)%17)/17)
		}
	}
	return New(MaxSum, tr, td, 0.5)
}

// directPlane builds a plane that stores no pairs at any n: a streaming
// plane fed answers in order.
func directPlane(o *Objective, answers []relation.Tuple) *Plane {
	p := NewPlane(o, nil, PlaneOptions{Streaming: true})
	for _, t := range answers {
		p.Append(t)
	}
	return p
}

func TestPlaneMatchesInterfaces(t *testing.T) {
	const n = 40
	answers := planeAnswers(n)
	o := planeObjective(n)
	for name, p := range map[string]*Plane{
		"materialized": NewPlane(o, answers, PlaneOptions{}),
		"direct":       directPlane(o, answers),
	} {
		if ok := p.Materialize(); ok != (name == "materialized") {
			t.Fatalf("%s: Materialize() = %v", name, ok)
		}
		for i := 0; i < n; i++ {
			if got, want := p.Rel(i), o.Rel.Rel(answers[i]); got != want {
				t.Fatalf("%s: Rel(%d) = %v, want %v", name, i, got, want)
			}
			for j := 0; j < n; j++ {
				if got, want := p.Dis(i, j), o.Dis.Dis(answers[i], answers[j]); got != want {
					t.Fatalf("%s: Dis(%d,%d) = %v, want %v", name, i, j, got, want)
				}
			}
		}
		wantMaxRel, wantMaxDis := 0.0, 0.0
		for i := 0; i < n; i++ {
			wantMaxRel = math.Max(wantMaxRel, o.Rel.Rel(answers[i]))
			for j := i + 1; j < n; j++ {
				wantMaxDis = math.Max(wantMaxDis, o.Dis.Dis(answers[i], answers[j]))
			}
		}
		if p.MaxRel() != wantMaxRel {
			t.Fatalf("%s: MaxRel = %v, want %v", name, p.MaxRel(), wantMaxRel)
		}
		if p.MaxDis() != wantMaxDis {
			t.Fatalf("%s: MaxDis = %v, want %v", name, p.MaxDis(), wantMaxDis)
		}
		sums, err := p.RowSums(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			want := 0.0
			for j := 0; j < n; j++ {
				if j != i {
					want += o.Dis.Dis(answers[i], answers[j])
				}
			}
			if math.Abs(sums[i]-want) > 1e-12 {
				t.Fatalf("%s: RowSums[%d] = %v, want %v", name, i, sums[i], want)
			}
		}
	}
}

func TestPlaneEvalIDsMatchesEval(t *testing.T) {
	const n = 30
	answers := planeAnswers(n)
	base := planeObjective(n)
	ids := []int{3, 17, 5, 28, 11}
	u := make([]relation.Tuple, len(ids))
	for i, id := range ids {
		u[i] = answers[id]
	}
	for _, kind := range []Kind{MaxSum, MaxMin, Mono} {
		for _, lambda := range []float64{0, 0.5, 1} {
			o := New(kind, base.Rel, base.Dis, lambda)
			p := NewPlane(o, answers, PlaneOptions{})
			if got, want := o.EvalIDs(p, ids), o.Eval(u, answers); got != want {
				t.Fatalf("%s λ=%v: EvalIDs = %v, Eval = %v", kind, lambda, got, want)
			}
			if kind == Mono {
				got, err := o.MonoScoresPlane(context.Background(), p)
				if err != nil {
					t.Fatal(err)
				}
				want := o.MonoScores(answers)
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("λ=%v: MonoScoresPlane[%d] = %v, want %v", lambda, i, got[i], want[i])
					}
				}
			}
		}
	}
}

func TestPlaneMaxSumDeltaIDs(t *testing.T) {
	const n = 20
	answers := planeAnswers(n)
	o := planeObjective(n)
	p := NewPlane(o, answers, PlaneOptions{})
	chosen := []int{2, 9, 14}
	u := []relation.Tuple{answers[2], answers[9], answers[14]}
	for cand := 0; cand < n; cand++ {
		if got, want := o.MaxSumDeltaIDs(p, chosen, cand, 5), o.MaxSumDelta(u, answers[cand], 5); got != want {
			t.Fatalf("MaxSumDeltaIDs(%d) = %v, want %v", cand, got, want)
		}
	}
}

func TestPlaneStreamingAppend(t *testing.T) {
	const n = 25
	answers := planeAnswers(n)
	o := planeObjective(n)
	p := NewPlane(o, nil, PlaneOptions{Streaming: true})
	for i, a := range answers {
		if id := p.Append(a); id != i {
			t.Fatalf("Append -> %d, want %d", id, i)
		}
	}
	if p.Materialize() {
		t.Fatal("streaming plane must not materialize")
	}
	for i := 0; i < n; i++ {
		if p.Rel(i) != o.Rel.Rel(answers[i]) {
			t.Fatalf("streaming Rel(%d) mismatch", i)
		}
		for j := 0; j < n; j++ {
			if p.Dis(i, j) != o.Dis.Dis(answers[i], answers[j]) {
				t.Fatalf("streaming Dis(%d,%d) mismatch", i, j)
			}
		}
	}
	// MaxDis recomputes after growth.
	before := p.MaxDis()
	extra := relation.Ints(1000, 1000)
	p.Append(extra)
	after := p.MaxDis()
	want := before
	for i := 0; i < n; i++ {
		want = math.Max(want, o.Dis.Dis(answers[i], extra))
	}
	if after != want {
		t.Fatalf("MaxDis after Append = %v, want %v", after, want)
	}
}

func TestPlaneBuildCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	o := planeObjective(10)
	if _, err := NewPlaneContext(ctx, o, planeAnswers(10), PlaneOptions{}); err == nil {
		t.Fatal("expected cancellation error from NewPlaneContext")
	}
	p := NewPlane(o, planeAnswers(200), PlaneOptions{})
	if _, err := p.MaterializeContext(ctx); err == nil {
		t.Fatal("expected cancellation error from MaterializeContext")
	}
	if p.Materialized() {
		t.Fatal("cancelled materialization must not publish the matrix")
	}
}

// TestPlaneConcurrentAccess hammers a plane from many goroutines while it
// materializes and fills its lazy scalars; run under -race it proves the
// parallel fill and the direct store are data-race free.
func TestPlaneConcurrentAccess(t *testing.T) {
	const n = 120
	answers := planeAnswers(n)
	o := planeObjective(n)
	for name, p := range map[string]*Plane{
		"materialized": NewPlane(o, answers, PlaneOptions{}),
		"direct":       directPlane(o, answers),
	} {
		var wg sync.WaitGroup
		errs := make(chan string, 64)
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				if g == 0 {
					p.Materialize()
				}
				if g == 1 {
					p.RowSums(context.Background())
					p.MaxDis()
				}
				for i := 0; i < n; i++ {
					for j := 0; j < n; j++ {
						got := p.Dis(i, j)
						want := o.Dis.Dis(answers[i], answers[j])
						if got != want {
							select {
							case errs <- fmt.Sprintf("%s: Dis(%d,%d) = %v, want %v", name, i, j, got, want):
							default:
							}
							return
						}
					}
				}
			}(g)
		}
		wg.Wait()
		close(errs)
		for e := range errs {
			t.Fatal(e)
		}
	}
}

func TestPlaneKeyedFastPath(t *testing.T) {
	// TableRelevance / TableDistance implement the Keyed interfaces, so the
	// plane must intern each tuple's key exactly once and score via ByKey.
	answers := planeAnswers(10)
	tr := &TableRelevance{Scores: map[string]float64{}, Default: 1}
	td := NewTableDistance(2)
	tr.Set(answers[3], 7)
	td.Set(answers[1], answers[4], 9)
	var kr KeyedRelevance = tr
	var kd KeyedDistance = td
	if kr.RelKey(answers[3].Key()) != 7 || kr.RelKey(answers[0].Key()) != 1 {
		t.Fatal("RelKey lookup wrong")
	}
	if kd.DisKeys(answers[1].Key(), answers[4].Key()) != 9 ||
		kd.DisKeys(answers[4].Key(), answers[1].Key()) != 9 ||
		kd.DisKeys(answers[2].Key(), answers[2].Key()) != 0 ||
		kd.DisKeys(answers[0].Key(), answers[2].Key()) != 2 {
		t.Fatal("DisKeys lookup wrong")
	}
	o := New(MaxSum, tr, td, 0.5)
	p := NewPlane(o, answers, PlaneOptions{})
	p.Materialize()
	if p.Rel(3) != 7 || p.Dis(1, 4) != 9 || p.Dis(0, 2) != 2 {
		t.Fatal("keyed plane values wrong")
	}
}

func TestTriIndex(t *testing.T) {
	// The packing must be a bijection onto [0, n(n-1)/2).
	const n = 17
	seen := make(map[int]bool)
	for j := 1; j < n; j++ {
		for i := 0; i < j; i++ {
			idx := triIndex(i, j)
			if idx < 0 || idx >= n*(n-1)/2 || seen[idx] {
				t.Fatalf("triIndex(%d,%d) = %d invalid or duplicate", i, j, idx)
			}
			seen[idx] = true
		}
	}
}
