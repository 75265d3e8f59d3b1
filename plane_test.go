// Score-plane tests: the solver golden that pins every solver family's
// results on the plane, the Prepared handle's plane cache and its
// invalidation, per-call scoring overrides, and the Explain plane report.
package diversification

import (
	"context"
	"fmt"
	"math/rand"
	"strconv"
	"strings"
	"testing"

	"repro/internal/approx"
	"repro/internal/core"
	"repro/internal/objective"
	"repro/internal/online"
	"repro/internal/reduction"
	"repro/internal/relation"
	"repro/internal/sat"
	"repro/internal/solver"
	"repro/internal/workload"
)

// tableInstance builds a deterministic identity-query instance whose δrel
// and δdis are table-backed (the shape the plane's keyed fast path targets).
func tableInstance(n, k int, kind objective.Kind, lambda float64) *core.Instance {
	rng := rand.New(rand.NewSource(int64(n*31 + k)))
	in := workload.Points(rng, n, 2, 64, kind, lambda, k)
	answers := in.Answers()
	tr := &objective.TableRelevance{Scores: map[string]float64{}, Default: 0.1}
	td := objective.NewTableDistance(0.3)
	for i, t := range answers {
		tr.Set(t, float64((i*13)%29)/29)
		for j := i + 1; j < len(answers); j++ {
			td.Set(t, answers[j], float64((i*7+j*3)%23)/23)
		}
	}
	in.Obj = objective.New(kind, tr, td, lambda)
	in.SetAnswers(answers)
	return in
}

// useDirectPlane installs on in a plane that stores no pairs at any n: a
// streaming plane fed in's answers in order.
func useDirectPlane(in *core.Instance) *core.Instance {
	p := objective.NewPlane(in.Obj, nil, objective.PlaneOptions{Streaming: true})
	for _, t := range in.Answers() {
		p.Append(t)
	}
	in.SetPlane(p)
	return in
}

// preparedPlaneEngine builds a small engine + prepared handle pair for the
// public-API plane tests.
func preparedPlaneEngine(t *testing.T, opts ...Option) (*Engine, *Prepared) {
	t.Helper()
	e := NewEngine()
	e.MustCreateTable("items", "id", "cat", "price")
	cats := []string{"a", "b", "c", "d", "e"}
	for i := 0; i < 60; i++ {
		e.MustInsert("items", i, cats[i%len(cats)], 10+(i*37)%90)
	}
	base := []Option{
		WithK(4), WithObjective(MaxSum), WithLambda(0.5),
		WithAlgorithm(Greedy),
		WithRelevance(func(r Row) float64 { return 100 - float64(r.Get("price").(int64)) }),
		WithDistance(func(a, b Row) float64 {
			if a.Get("cat") == b.Get("cat") {
				return 0
			}
			return 1
		}),
	}
	p, err := e.Prepare("Q(id, cat, price) :- items(id, cat, price), price <= 80",
		append(base, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	return e, p
}

// TestPreparedPlaneCacheAndInvalidation proves the plane is built once per
// database generation, reused across calls and solvers, and rebuilt after a
// mutation.
func TestPreparedPlaneCacheAndInvalidation(t *testing.T) {
	ctx := context.Background()
	e, p := preparedPlaneEngine(t)
	sel1, err := p.Diversify(ctx)
	if err != nil {
		t.Fatal(err)
	}
	pl1 := p.snap.Load().plane
	if pl1 == nil {
		t.Fatal("no plane cached after first solve")
	}
	if !pl1.Materialized() {
		t.Fatal("prepared plane should be materialized under the default guard")
	}
	if _, err := p.Decide(ctx, WithBound(sel1.Value)); err != nil {
		t.Fatal(err)
	}
	pl2 := p.snap.Load().plane
	if pl2 != pl1 {
		t.Fatal("plane rebuilt although the generation did not advance")
	}
	e.MustInsert("items", 1000, "f", 15)
	sel2, err := p.Diversify(ctx)
	if err != nil {
		t.Fatal(err)
	}
	pl3 := p.snap.Load().plane
	if pl3 == pl1 {
		t.Fatal("plane not invalidated by a database mutation")
	}
	_ = sel2
}

// TestPreparedPlanePerCallOverride proves a per-call WithDistance /
// WithRelevance never sees the prepared plane's stale scores.
func TestPreparedPlanePerCallOverride(t *testing.T) {
	ctx := context.Background()
	_, p := preparedPlaneEngine(t)
	base, err := p.Diversify(ctx, WithAlgorithm(Exact), WithK(2), WithLambda(1))
	if err != nil {
		t.Fatal(err)
	}
	// λ=1, k=2 exact: the value is 2·max pairwise distance. The override
	// makes every pair twice as distant, so the optimum must double; a
	// stale plane would reproduce base.Value.
	over, err := p.Diversify(ctx, WithAlgorithm(Exact), WithK(2), WithLambda(1),
		WithDistance(func(a, b Row) float64 {
			if a.Get("cat") == b.Get("cat") {
				return 0
			}
			return 2
		}))
	if err != nil {
		t.Fatal(err)
	}
	if over.Value != 2*base.Value {
		t.Fatalf("per-call distance override ignored: base %v, override %v", base.Value, over.Value)
	}
	plan, err := p.Plan(ctx, Request{Problem: ProblemDiversify, Options: []Option{WithDistance(priceGap)}})
	if err != nil {
		t.Fatal(err)
	}
	if ex := plan.Explain(); !strings.Contains(ex, "plane:     per-request") {
		t.Fatalf("a per-call distance override did not bypass the shared plane:\n%s", ex)
	}
	// And the handle's cached plane still serves the original binding.
	again, err := p.Diversify(ctx, WithAlgorithm(Exact), WithK(2), WithLambda(1))
	if err != nil {
		t.Fatal(err)
	}
	if again.Value != base.Value {
		t.Fatalf("prepared binding corrupted by per-call override: %v != %v", again.Value, base.Value)
	}
}

// TestFunctionDistanceLargeNMatchesFlatGreedy: a distance given as a
// function is opaque to the plane, so above the 4,096 answers the matrix
// holds it must still drive greedy FMS and FMM to the flat loops' picks,
// whatever the function is. Squared Euclidean distance breaks the triangle
// inequality, so a store that pruned by it would pick other answers.
func TestFunctionDistanceLargeNMatchesFlatGreedy(t *testing.T) {
	ctx := context.Background()
	e := NewEngine()
	e.MustCreateTable("P", "x", "y")
	rng := rand.New(rand.NewSource(18))
	for i := 0; i < 5000; i++ {
		e.MustInsert("P", rng.Int63n(1000), rng.Int63n(1000))
	}
	coord := func(r Row, attr string) float64 { return float64(r.Get(attr).(int64)) }
	p, err := e.Prepare("Q(x, y) :- P(x, y)",
		WithK(10), WithLambda(0.5), WithAlgorithm(Greedy),
		WithRelevance(func(r Row) float64 { return coord(r, "y") / 1000 }),
		WithDistance(func(a, b Row) float64 {
			dx, dy := coord(a, "x")-coord(b, "x"), coord(a, "y")-coord(b, "y")
			return dx*dx + dy*dy
		}))
	if err != nil {
		t.Fatal(err)
	}
	for _, kind := range []Objective{MaxSum, MaxMin} {
		sel, err := p.Diversify(ctx, WithObjective(kind))
		if err != nil {
			t.Fatal(err)
		}
		snap := p.current()
		if snap.plane.Len() <= 4096 || snap.plane.Regime() != objective.RegimeDirect {
			t.Fatalf("%v: shared plane over %d answers is %v, want direct", kind, snap.plane.Len(), snap.plane.Regime())
		}
		s, err := p.call([]Option{WithObjective(kind)})
		if err != nil {
			t.Fatal(err)
		}
		in := &core.Instance{Obj: s.objectiveOver(p.schema), K: 10}
		in.SetAnswers(snap.answers)
		want := approx.Greedy(useDirectPlane(in))
		if len(sel.Rows) != len(want.Set) || sel.Value != want.Value {
			t.Fatalf("%v: served %d rows of value %v, flat greedy %d of value %v",
				kind, len(sel.Rows), sel.Value, len(want.Set), want.Value)
		}
		for i, r := range sel.Rows {
			if !r.tuple.Equal(want.Set[i]) {
				t.Fatalf("%v: pick %d is %v, flat greedy picked %v", kind, i, r.tuple, want.Set[i])
			}
		}
	}
}

// TestExplainFormatting pins the Explain helpers white-box: formatBytes
// picks the binary-prefix unit at each power-of-two threshold, and
// planeRegime names every resolved store.
func TestExplainFormatting(t *testing.T) {
	for _, c := range []struct {
		n    int64
		want string
	}{
		{0, "0 B"},
		{520, "520 B"},
		{1 << 10, "1.0 KiB"},
		{9 << 20, "9.0 MiB"},
		{3 << 30, "3.0 GiB"},
	} {
		if got := formatBytes(c.n); got != c.want {
			t.Fatalf("formatBytes(%d) = %q, want %q", c.n, got, c.want)
		}
	}

	answers := make([]relation.Tuple, 200)
	for i := range answers {
		answers[i] = relation.Ints(int64(i), int64((i*7)%13))
	}
	o := objective.New(objective.MaxSum, nil, objective.EuclideanDistance(), 0.5)
	direct := objective.NewPlane(o, nil, objective.PlaneOptions{Streaming: true})
	for _, a := range answers {
		direct.Append(a)
	}
	for _, c := range []struct {
		plane *objective.Plane
		want  string
	}{
		{objective.NewPlane(o, answers, objective.PlaneOptions{}), "materialized matrix"},
		{direct, "direct evaluation"},
	} {
		if got := planeRegime(c.plane); got != c.want {
			t.Fatalf("planeRegime(%v) = %q, want %q", c.plane.Regime(), got, c.want)
		}
	}
	cat := objective.New(objective.MaxSum, nil, objective.CategoryDistance{Col: 1}, 0.5)
	if got := planeRegime(objective.NewPlane(cat, answers, objective.PlaneOptions{})); got != "category lists" {
		t.Fatalf("planeRegime(category) = %q, want %q", got, "category lists")
	}
}

// The solver golden's line format: a selected set prints as its tuple keys
// (fields comma-separated), a score with every bit of its float64, and an
// exact search with its deterministic one-worker work statistics.
func goldenSet(ts []relation.Tuple) string {
	keys := make([]string, len(ts))
	for i, t := range ts {
		keys[i] = strings.ReplaceAll(t.Key(), "\x1f", ",")
	}
	return "[" + strings.Join(keys, " ") + "]"
}

func goldenFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

func goldenStats(s solver.Stats) string {
	return fmt.Sprintf("nodes=%d leaves=%d pruned=%d answers=%d explored=%t frames=%d warm=%t",
		s.Nodes, s.Leaves, s.Pruned, s.Answers, s.Explored, s.Frames, s.Warm)
}

func writeQRD(b *strings.Builder, label string, r solver.QRDResult, err error) {
	if err != nil {
		fmt.Fprintf(b, "%s: error: %v\n", label, err)
		return
	}
	fmt.Fprintf(b, "%s: exists=%t value=%s set=%s %s\n",
		label, r.Exists, goldenFloat(r.Value), goldenSet(r.Witness), goldenStats(r.Stats))
}

func writeDRP(b *strings.Builder, label string, r solver.DRPResult, err error) {
	if err != nil {
		fmt.Fprintf(b, "%s: error: %v\n", label, err)
		return
	}
	fmt.Fprintf(b, "%s: in-top-r=%t better=%d fu=%s %s\n",
		label, r.InTopR, r.Better, goldenFloat(r.FU), goldenStats(r.Stats))
}

func writeRDC(b *strings.Builder, label string, r solver.RDCResult, err error) {
	if err != nil {
		fmt.Fprintf(b, "%s: error: %v\n", label, err)
		return
	}
	fmt.Fprintf(b, "%s: count=%v %s\n", label, r.Count, goldenStats(r.Stats))
}

func writeHeuristic(b *strings.Builder, label string, r approx.Result) {
	fmt.Fprintf(b, "%s: value=%s steps=%d set=%s\n", label, goldenFloat(r.Value), r.Steps, goldenSet(r.Set))
}

func writeOnline(b *strings.Builder, label string, r online.Result, err error) {
	if err != nil {
		fmt.Fprintf(b, "%s: error: %v\n", label, err)
		return
	}
	fmt.Fprintf(b, "%s: exists=%t value=%s seen=%d exhausted=%t set=%s\n",
		label, r.Exists, goldenFloat(r.Value), r.Seen, r.Exhausted, goldenSet(r.Witness))
}

// TestSolverGolden pins every solver family on the score plane: the exact
// QRD/DRP/RDC searches, the paper's PTIME cells, the Section-10 heuristics,
// the online procedures and constrained (Σ) instances, across the objective
// kind × λ grid and the materialized and direct plane stores. Each line
// records the selected set, the objective value to the last bit and the
// deterministic one-worker work statistics, so any change to what a solver
// returns or how much work it does shows up as a diff. Regenerate with
//
//	go test -run TestSolverGolden -update .
func TestSolverGolden(t *testing.T) {
	g := loadGoldenSections(t, "solvers.txt")
	kinds := []objective.Kind{objective.MaxSum, objective.MaxMin, objective.Mono}
	lambdas := []float64{0, 0.5, 1}
	regimes := []struct {
		name   string
		direct bool
	}{
		{"materialized", false}, // the planner materializes at these sizes
		{"direct", true},
	}

	t.Run("exact", func(t *testing.T) {
		var b strings.Builder
		for _, regime := range regimes {
			for _, kind := range kinds {
				for _, lambda := range lambdas {
					label := fmt.Sprintf("%s λ=%v %s", kind, lambda, regime.name)
					mk := func() *core.Instance {
						in := tableInstance(16, 4, kind, lambda)
						if regime.direct {
							useDirectPlane(in)
						}
						return in
					}
					best := solver.QRDBest(mk())
					writeQRD(&b, label+" QRDBest", best, nil)
					in := mk()
					in.B = best.Value / 2
					writeQRD(&b, label+" QRDExact/reachable", solver.QRDExact(in), nil)
					in = mk()
					in.B = best.Value + 1
					writeQRD(&b, label+" QRDExact/refute", solver.QRDExact(in), nil)
					in = mk()
					in.U, in.R = in.Answers()[:4], 10
					d, err := solver.DRPExact(in)
					writeDRP(&b, label+" DRPExact", d, err)
					in = mk()
					in.B = best.Value / 2
					writeRDC(&b, label+" RDCExact", solver.RDCExact(in), nil)
				}
			}
		}
		g.check(t, b.String())
	})

	t.Run("ptime", func(t *testing.T) {
		var b strings.Builder
		for _, lambda := range lambdas {
			label := fmt.Sprintf("mono λ=%v", lambda)
			mk := func() *core.Instance {
				in := tableInstance(40, 5, objective.Mono, lambda)
				in.B = 1
				return in
			}
			r, err := solver.QRDMonoPTime(mk())
			writeQRD(&b, label+" QRDMonoPTime", r, err)
			in := mk()
			in.U, in.R = in.Answers()[:5], 4
			d, err := solver.DRPMonoPTime(in)
			writeDRP(&b, label+" DRPMonoPTime", d, err)
		}
		for _, kind := range kinds[:2] {
			label := fmt.Sprintf("%s λ=0", kind)
			mk := func() *core.Instance {
				in := tableInstance(40, 5, kind, 0)
				in.B = 0.2
				return in
			}
			r, err := solver.QRDRelevanceOnlyPTime(mk())
			writeQRD(&b, label+" QRDRelevanceOnlyPTime", r, err)
			in := mk()
			in.U, in.R = in.Answers()[:5], 8
			d, err := solver.DRPRelevanceOnlyPTime(in)
			writeDRP(&b, label+" DRPRelevanceOnlyPTime", d, err)
		}
		in := tableInstance(40, 5, objective.MaxMin, 0)
		in.B = 0.2
		c, err := solver.RDCMaxMinRelevanceOnlyFP(in)
		writeRDC(&b, "max-min λ=0 RDCMaxMinRelevanceOnlyFP", c, err)
		in = workload.Points(rand.New(rand.NewSource(10)), 32, 2, 128, objective.Mono, 0, 6)
		in.B = 3
		c, err = solver.RDCModularDP(in, 128)
		writeRDC(&b, "mono λ=0 RDCModularDP", c, err)
		g.check(t, b.String())
	})

	t.Run("heuristics", func(t *testing.T) {
		var b strings.Builder
		for _, regime := range regimes {
			for _, kind := range kinds {
				for _, lambda := range lambdas {
					label := fmt.Sprintf("%s λ=%v %s", kind, lambda, regime.name)
					mk := func() *core.Instance {
						in := tableInstance(60, 6, kind, lambda)
						if regime.direct {
							useDirectPlane(in)
						}
						return in
					}
					writeHeuristic(&b, label+" GreedyMaxSum", approx.GreedyMaxSum(mk()))
					writeHeuristic(&b, label+" GreedyMaxMin", approx.GreedyMaxMin(mk()))
					in := mk()
					seed := approx.Greedy(in)
					writeHeuristic(&b, label+" Greedy", seed)
					writeHeuristic(&b, label+" LocalSearchSwap", approx.LocalSearchSwap(in, seed.Set))
				}
			}
		}
		g.check(t, b.String())
	})

	t.Run("online", func(t *testing.T) {
		ctx := context.Background()
		var b strings.Builder
		for _, kind := range kinds[:2] {
			for _, lambda := range lambdas {
				label := fmt.Sprintf("%s λ=%v", kind, lambda)
				mk := func() *core.Instance {
					in := workload.GiftInstance(rand.New(rand.NewSource(7)), 40, 80, 3, kind, lambda)
					in.B = 0.5
					return in
				}
				r, err := online.QRD(ctx, mk(), online.Options{CheckInterval: 3})
				writeOnline(&b, label+" online.QRD", r, err)
				r, err = online.Diversify(ctx, mk(), online.Options{})
				writeOnline(&b, label+" online.Diversify", r, err)
			}
		}
		g.check(t, b.String())
	})

	t.Run("constrained", func(t *testing.T) {
		var b strings.Builder
		mk := func() *core.Instance {
			return reduction.ThreeSATToConstrainedQRD(sat.Random3SAT(rand.New(rand.NewSource(15)), 4, 6))
		}
		writeQRD(&b, "3SAT Σ QRDExact", solver.QRDExact(mk()), nil)
		writeRDC(&b, "3SAT Σ RDCExact", solver.RDCExact(mk()), nil)
		g.check(t, b.String())
	})
}
