package objective

import (
	"context"
	"math"
	"math/rand"
	"sort"
	"sync/atomic"
	"testing"

	"repro/internal/relation"
)

// sortedTuples returns tuples in ascending canonical order.
func sortedTuples(ts []relation.Tuple) []relation.Tuple {
	out := append([]relation.Tuple(nil), ts...)
	sort.Slice(out, func(i, j int) bool { return out[i].Compare(out[j]) < 0 })
	return out
}

// checkPlaneEqual asserts p and q expose bit-identical score state over the
// same answer set.
func checkPlaneEqual(t *testing.T, name string, got, want *Plane) {
	t.Helper()
	if got.Len() != want.Len() {
		t.Fatalf("%s: Len = %d, want %d", name, got.Len(), want.Len())
	}
	n := want.Len()
	for i := 0; i < n; i++ {
		if !got.Tuple(i).Equal(want.Tuple(i)) {
			t.Fatalf("%s: Tuple(%d) = %v, want %v", name, i, got.Tuple(i), want.Tuple(i))
		}
		if math.Float64bits(got.Rel(i)) != math.Float64bits(want.Rel(i)) {
			t.Fatalf("%s: Rel(%d) = %v, want %v", name, i, got.Rel(i), want.Rel(i))
		}
		for j := i + 1; j < n; j++ {
			if got.Dis(i, j) != want.Dis(i, j) {
				t.Fatalf("%s: Dis(%d,%d) = %v, want %v", name, i, j, got.Dis(i, j), want.Dis(i, j))
			}
		}
	}
	if got.MaxRel() != want.MaxRel() {
		t.Fatalf("%s: MaxRel = %v, want %v", name, got.MaxRel(), want.MaxRel())
	}
	if got.MaxDis() != want.MaxDis() {
		t.Fatalf("%s: MaxDis = %v, want %v", name, got.MaxDis(), want.MaxDis())
	}
	gs, _ := got.RowSums(context.Background())
	ws, _ := want.RowSums(context.Background())
	for i := range ws {
		if gs[i] != ws[i] {
			t.Fatalf("%s: RowSums[%d] = %v, want %v", name, i, gs[i], ws[i])
		}
	}
}

// countingDistance wraps EuclideanDistance counting evaluations, to assert
// the rebase recomputes only delta pairs. The counter is atomic because the
// parallel matrix fill calls Dis from several workers.
type countingDistance struct {
	inner Distance
	calls atomic.Int64
}

func (c *countingDistance) Dis(s, t relation.Tuple) float64 {
	c.calls.Add(1)
	return c.inner.Dis(s, t)
}

// The rebase tests run each case twice: from a filled matrix, and from a
// plane whose matrix is not filled yet, which rebases the way a direct plane
// does (nothing stored, nothing carried but per-answer state).
var rebaseArms = map[string]bool{"materialized": true, "unfilled": false}

func TestRebaseExtendMatchesColdBuild(t *testing.T) {
	for name, fill := range rebaseArms {
		rng := rand.New(rand.NewSource(3))
		base := make([]relation.Tuple, 0, 40)
		for i := 0; i < 40; i++ {
			base = append(base, relation.Ints(rng.Int63n(1000), rng.Int63n(1000)))
		}
		base = sortedTuples(base)
		o := New(MaxSum, AttrRelevance(0, 1e-3), EuclideanDistance(), 0.5)
		p := NewPlane(o, base, PlaneOptions{})
		if fill {
			p.Materialize()
		}

		added := sortedTuples([]relation.Tuple{
			relation.Ints(-5, 3), relation.Ints(500, 500), relation.Ints(2000, 1),
		})
		merged := sortedTuples(append(append([]relation.Tuple(nil), base...), added...))

		answers, from := relation.Merge(base, nil, added)
		got, err := p.Rebase(context.Background(), answers, from)
		if err != nil {
			t.Fatal(err)
		}
		cold := NewPlane(o, merged, PlaneOptions{})
		if fill {
			cold.Materialize()
		}
		if m := got.Materialized(); m != cold.Materialized() {
			t.Fatalf("%s: Materialized = %v, want %v", name, m, cold.Materialized())
		}
		checkPlaneEqual(t, name+"/extend", got, cold)

		// The old plane is untouched and still serves its own answer set.
		if p.Len() != len(base) {
			t.Fatalf("%s: Rebase mutated the receiver (Len %d)", name, p.Len())
		}
	}
}

func TestRebaseRetireMatchesColdBuild(t *testing.T) {
	for name, fill := range rebaseArms {
		base := planeAnswers(30)
		base = sortedTuples(base)
		o := New(MaxMin, AttrRelevance(0, 1.0/30), EuclideanDistance(), 0.5)
		p := NewPlane(o, base, PlaneOptions{})
		if fill {
			p.Materialize()
		}

		retired := []int{0, 7, 19}
		survivors := make([]relation.Tuple, 0, len(base))
		dead := map[int]bool{0: true, 7: true, 19: true}
		for i, tu := range base {
			if !dead[i] {
				survivors = append(survivors, tu)
			}
		}
		answers, from := relation.Merge(base, retired, nil)
		got, err := p.Rebase(context.Background(), answers, from)
		if err != nil {
			t.Fatal(err)
		}
		if got.Materialized() != fill {
			t.Fatalf("%s: Materialized = %v after rebase", name, got.Materialized())
		}
		cold := NewPlane(o, survivors, PlaneOptions{})
		checkPlaneEqual(t, name+"/retire", got, cold)
	}
}

func TestRebaseMixedRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 10; trial++ {
		fill := trial%2 == 0
		n := 20 + rng.Intn(30)
		base := make([]relation.Tuple, 0, n)
		seen := map[string]bool{}
		for len(base) < n {
			tu := relation.Ints(rng.Int63n(500), rng.Int63n(500))
			if !seen[tu.Key()] {
				seen[tu.Key()] = true
				base = append(base, tu)
			}
		}
		base = sortedTuples(base)
		o := New(Mono, AttrRelevance(0, 1e-2), EuclideanDistance(), 0.7)
		p := NewPlane(o, base, PlaneOptions{})
		if fill {
			p.Materialize()
		}

		var retired []int
		for i := range base {
			if rng.Intn(4) == 0 {
				retired = append(retired, i)
			}
		}
		var added []relation.Tuple
		for i := 0; i < rng.Intn(5)+1; i++ {
			tu := relation.Ints(rng.Int63n(500)+500, rng.Int63n(500))
			if !seen[tu.Key()] {
				seen[tu.Key()] = true
				added = append(added, tu)
			}
		}
		added = sortedTuples(added)

		dead := map[int]bool{}
		for _, id := range retired {
			dead[id] = true
		}
		want := make([]relation.Tuple, 0, len(base)+len(added))
		for i, tu := range base {
			if !dead[i] {
				want = append(want, tu)
			}
		}
		want = sortedTuples(append(want, added...))

		answers, from := relation.Merge(base, retired, added)
		got, err := p.Rebase(context.Background(), answers, from)
		if err != nil {
			t.Fatal(err)
		}
		cold := NewPlane(o, want, PlaneOptions{})
		checkPlaneEqual(t, "mixed", got, cold)
	}
}

func TestRebaseRecomputesOnlyDeltaPairs(t *testing.T) {
	n := 50
	base := sortedTuples(planeAnswers(n))
	cd := &countingDistance{inner: EuclideanDistance()}
	o := New(MaxSum, ConstRelevance(1), cd, 0.5)
	p := NewPlane(o, base, PlaneOptions{})
	p.Materialize()
	built := int(cd.calls.Load())
	if built != n*(n-1)/2 {
		t.Fatalf("cold build evaluated %d pairs, want %d", built, n*(n-1)/2)
	}
	answers, from := relation.Merge(base, nil, []relation.Tuple{relation.Ints(1000, 1000)})
	q, err := p.Rebase(context.Background(), answers, from)
	if err != nil {
		t.Fatal(err)
	}
	delta := int(cd.calls.Load()) - built
	if delta != n {
		t.Errorf("extend by one tuple evaluated %d pairs, want exactly %d", delta, n)
	}
	if !q.Materialized() {
		t.Error("extended plane must stay materialized")
	}
}

func TestRebaseGuardOverflowFallsToDirect(t *testing.T) {
	// A materialized plane at the largest n whose triangle fits
	// MaxMatrixBytes loses materialization when the extension pushes the
	// triangle past it — exactly as a cold build at the new size would.
	base := sortedTuples(planeAnswers(4096))
	o := New(MaxSum, ConstRelevance(1), EuclideanDistance(), 0.5)
	p := NewPlane(o, base, PlaneOptions{})
	if !p.Materialize() {
		t.Fatal("base plane should materialize under the guard")
	}
	answers, from := relation.Merge(base, nil, []relation.Tuple{relation.Ints(999, 999)})
	q, err := p.Rebase(context.Background(), answers, from)
	if err != nil {
		t.Fatal(err)
	}
	if q.Materialized() || q.Regime() != RegimeDirect {
		t.Errorf("extension past the guard resolved %v (materialized=%v), want direct", q.Regime(), q.Materialized())
	}
	if got, want := q.Dis(0, q.Len()-1), o.Dis.Dis(q.Tuple(0), q.Tuple(q.Len()-1)); got != want {
		t.Errorf("direct Dis = %v, want %v", got, want)
	}
}

func TestRebaseOnStreamingPlanePanics(t *testing.T) {
	o := New(MaxSum, ConstRelevance(1), ZeroDistance(), 0.5)
	p := NewPlane(o, nil, PlaneOptions{Streaming: true})
	defer func() {
		if recover() == nil {
			t.Error("Rebase on a streaming plane must panic")
		}
	}()
	p.Rebase(context.Background(), nil, nil)
}
