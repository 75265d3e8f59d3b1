// Differential tests for the interned score plane: every solver and
// heuristic must return byte-identical results — selected sets, objective
// values, and deterministic work stats — whether it scores through the
// plane's precomputed arrays or directly through the Relevance/Distance
// interfaces, across all three objective kinds, λ ∈ {0, ½, 1}, and
// constrained (Σ) instances.
package diversification

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
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

// offTwin returns a second, independently built instance with the plane
// disabled, so memoized state never leaks between the two paths.
func twinInstances(mk func() *core.Instance) (plane, direct *core.Instance) {
	plane = mk()
	direct = mk()
	direct.PlaneOff = true
	return plane, direct
}

func keysOf(ts []relation.Tuple) []string {
	out := make([]string, len(ts))
	for i, t := range ts {
		out[i] = t.Key()
	}
	return out
}

func sameKeys(a, b []relation.Tuple) bool {
	ka, kb := keysOf(a), keysOf(b)
	if len(ka) != len(kb) {
		return false
	}
	for i := range ka {
		if ka[i] != kb[i] {
			return false
		}
	}
	return true
}

func checkQRD(t *testing.T, label string, a, b solver.QRDResult) {
	t.Helper()
	if a.Exists != b.Exists || a.Value != b.Value || !sameKeys(a.Witness, b.Witness) {
		t.Fatalf("%s: plane (%v, %v, %v) != direct (%v, %v, %v)",
			label, a.Exists, a.Value, keysOf(a.Witness), b.Exists, b.Value, keysOf(b.Witness))
	}
	if a.Stats.Nodes != b.Stats.Nodes || a.Stats.Leaves != b.Stats.Leaves || a.Stats.Pruned != b.Stats.Pruned {
		t.Fatalf("%s: stats diverge: plane %+v, direct %+v", label, a.Stats, b.Stats)
	}
}

func diffConfigs() []struct {
	kind   objective.Kind
	lambda float64
} {
	var out []struct {
		kind   objective.Kind
		lambda float64
	}
	for _, kind := range []objective.Kind{objective.MaxSum, objective.MaxMin, objective.Mono} {
		for _, lambda := range []float64{0, 0.5, 1} {
			out = append(out, struct {
				kind   objective.Kind
				lambda float64
			}{kind, lambda})
		}
	}
	return out
}

// TestPlaneDifferentialExact runs the exact solvers (QRDBest, QRDExact,
// DRPExact, RDCExact) on both paths across the full kind × λ grid, for both
// the memoized and the materialized plane regime.
func TestPlaneDifferentialExact(t *testing.T) {
	for _, memo := range []bool{false, true} {
		for _, cfg := range diffConfigs() {
			label := fmt.Sprintf("%s λ=%v memo=%v", cfg.kind, cfg.lambda, memo)
			mk := func() *core.Instance {
				in := tableInstance(16, 4, cfg.kind, cfg.lambda)
				if memo {
					in.PlaneMaxBytes = 8 // force the sharded-cache fallback
				}
				return in
			}
			pin, din := twinInstances(mk)
			pBest := solver.QRDBest(pin)
			dBest := solver.QRDBest(din)
			checkQRD(t, label+" QRDBest", pBest, dBest)

			pin, din = twinInstances(mk)
			pin.B, din.B = pBest.Value/2, pBest.Value/2
			checkQRD(t, label+" QRDExact/reachable", solver.QRDExact(pin), solver.QRDExact(din))

			pin, din = twinInstances(mk)
			pin.B, din.B = pBest.Value+1, dBest.Value+1
			checkQRD(t, label+" QRDExact/refute", solver.QRDExact(pin), solver.QRDExact(din))

			pin, din = twinInstances(mk)
			pin.U, din.U = pin.Answers()[:4], din.Answers()[:4]
			pin.R, din.R = 10, 10
			pd, perr := solver.DRPExact(pin)
			dd, derr := solver.DRPExact(din)
			if (perr == nil) != (derr == nil) {
				t.Fatalf("%s DRPExact: errors diverge: %v vs %v", label, perr, derr)
			}
			if pd.InTopR != dd.InTopR || pd.Better != dd.Better || pd.FU != dd.FU {
				t.Fatalf("%s DRPExact: plane %+v != direct %+v", label, pd, dd)
			}

			pin, din = twinInstances(mk)
			pin.B, din.B = pBest.Value/2, pBest.Value/2
			pc := solver.RDCExact(pin)
			dc := solver.RDCExact(din)
			if pc.Count.Cmp(dc.Count) != 0 || pc.Stats != dc.Stats {
				t.Fatalf("%s RDCExact: plane (%v %+v) != direct (%v %+v)",
					label, pc.Count, pc.Stats, dc.Count, dc.Stats)
			}
		}
	}
}

// TestPlaneDifferentialPTime covers the paper's PTIME special cases.
func TestPlaneDifferentialPTime(t *testing.T) {
	for _, lambda := range []float64{0, 0.5, 1} {
		label := fmt.Sprintf("mono λ=%v", lambda)
		mk := func() *core.Instance {
			in := tableInstance(40, 5, objective.Mono, lambda)
			in.B = 1
			return in
		}
		pin, din := twinInstances(mk)
		pres, perr := solver.QRDMonoPTime(pin)
		dres, derr := solver.QRDMonoPTime(din)
		if perr != nil || derr != nil {
			t.Fatalf("%s QRDMonoPTime: %v / %v", label, perr, derr)
		}
		checkQRD(t, label+" QRDMonoPTime", pres, dres)

		pin, din = twinInstances(mk)
		pin.U, din.U = pin.Answers()[:5], din.Answers()[:5]
		pin.R, din.R = 4, 4
		pd, perr := solver.DRPMonoPTime(pin)
		dd, derr := solver.DRPMonoPTime(din)
		if perr != nil || derr != nil {
			t.Fatalf("%s DRPMonoPTime: %v / %v", label, perr, derr)
		}
		if pd.InTopR != dd.InTopR || pd.Better != dd.Better || pd.FU != dd.FU {
			t.Fatalf("%s DRPMonoPTime: plane %+v != direct %+v", label, pd, dd)
		}
	}
	for _, kind := range []objective.Kind{objective.MaxSum, objective.MaxMin} {
		label := fmt.Sprintf("%s λ=0", kind)
		mk := func() *core.Instance {
			in := tableInstance(40, 5, kind, 0)
			in.B = 0.2
			return in
		}
		pin, din := twinInstances(mk)
		pres, perr := solver.QRDRelevanceOnlyPTime(pin)
		dres, derr := solver.QRDRelevanceOnlyPTime(din)
		if perr != nil || derr != nil {
			t.Fatalf("%s QRDRelevanceOnlyPTime: %v / %v", label, perr, derr)
		}
		checkQRD(t, label+" QRDRelevanceOnlyPTime", pres, dres)

		pin, din = twinInstances(mk)
		pin.U, din.U = pin.Answers()[:5], din.Answers()[:5]
		pin.R, din.R = 8, 8
		pd, perr := solver.DRPRelevanceOnlyPTime(pin)
		dd, derr := solver.DRPRelevanceOnlyPTime(din)
		if perr != nil || derr != nil {
			t.Fatalf("%s DRPRelevanceOnlyPTime: %v / %v", label, perr, derr)
		}
		if pd.InTopR != dd.InTopR || pd.Better != dd.Better || pd.FU != dd.FU {
			t.Fatalf("%s DRPRelevanceOnlyPTime: plane %+v != direct %+v", label, pd, dd)
		}
	}
	// RDC FP cells.
	mkFMM := func() *core.Instance {
		in := tableInstance(40, 5, objective.MaxMin, 0)
		in.B = 0.2
		return in
	}
	pin, din := twinInstances(mkFMM)
	pc, perr := solver.RDCMaxMinRelevanceOnlyFP(pin)
	dc, derr := solver.RDCMaxMinRelevanceOnlyFP(din)
	if perr != nil || derr != nil {
		t.Fatalf("RDCMaxMinRelevanceOnlyFP: %v / %v", perr, derr)
	}
	if pc.Count.Cmp(dc.Count) != 0 {
		t.Fatalf("RDCMaxMinRelevanceOnlyFP: %v != %v", pc.Count, dc.Count)
	}
	mkDP := func() *core.Instance {
		rng := rand.New(rand.NewSource(10))
		in := workload.Points(rng, 32, 2, 128, objective.Mono, 0, 6)
		in.B = 3
		return in
	}
	pin, din = twinInstances(mkDP)
	pdp, perr := solver.RDCModularDP(pin, 128)
	ddp, derr := solver.RDCModularDP(din, 128)
	if perr != nil || derr != nil {
		t.Fatalf("RDCModularDP: %v / %v", perr, derr)
	}
	if pdp.Count.Cmp(ddp.Count) != 0 {
		t.Fatalf("RDCModularDP: %v != %v", pdp.Count, ddp.Count)
	}
}

// TestPlaneDifferentialHeuristics covers all four Section-10 heuristics.
func TestPlaneDifferentialHeuristics(t *testing.T) {
	check := func(label string, a, b approx.Result) {
		t.Helper()
		if a.Value != b.Value || a.Steps != b.Steps || !sameKeys(a.Set, b.Set) {
			t.Fatalf("%s: plane (%v, %d, %v) != direct (%v, %d, %v)",
				label, a.Value, a.Steps, keysOf(a.Set), b.Value, b.Steps, keysOf(b.Set))
		}
	}
	for _, memo := range []bool{false, true} {
		for _, cfg := range diffConfigs() {
			label := fmt.Sprintf("%s λ=%v memo=%v", cfg.kind, cfg.lambda, memo)
			mk := func() *core.Instance {
				in := tableInstance(60, 6, cfg.kind, cfg.lambda)
				if memo {
					in.PlaneMaxBytes = 8
				}
				return in
			}
			pin, din := twinInstances(mk)
			check(label+" GreedyMaxSum", approx.GreedyMaxSum(pin), approx.GreedyMaxSum(din))
			pin, din = twinInstances(mk)
			check(label+" GreedyMaxMin", approx.GreedyMaxMin(pin), approx.GreedyMaxMin(din))
			pin, din = twinInstances(mk)
			check(label+" MMR", approx.MMR(pin), approx.MMR(din))
			pin, din = twinInstances(mk)
			check(label+" Greedy", approx.Greedy(pin), approx.Greedy(din))

			pin, din = twinInstances(mk)
			pseed := approx.Greedy(pin)
			dseed := approx.Greedy(din)
			check(label+" seed", pseed, dseed)
			check(label+" LocalSearchSwap",
				approx.LocalSearchSwap(pin, pseed.Set),
				approx.LocalSearchSwap(din, dseed.Set))
		}
	}
}

// TestPlaneDifferentialOnline covers the streaming procedures (FMS/FMM
// only; Fmono is rejected by design).
func TestPlaneDifferentialOnline(t *testing.T) {
	ctx := context.Background()
	for _, kind := range []objective.Kind{objective.MaxSum, objective.MaxMin} {
		for _, lambda := range []float64{0, 0.5, 1} {
			label := fmt.Sprintf("%s λ=%v", kind, lambda)
			mk := func() *core.Instance {
				rng := rand.New(rand.NewSource(7))
				in := workload.GiftInstance(rng, 40, 80, 3, kind, lambda)
				in.B = 0.5
				return in
			}
			pin, din := twinInstances(mk)
			pres, perr := online.QRD(ctx, pin, online.Options{CheckInterval: 3})
			dres, derr := online.QRD(ctx, din, online.Options{CheckInterval: 3})
			if perr != nil || derr != nil {
				t.Fatalf("%s online.QRD: %v / %v", label, perr, derr)
			}
			if pres.Exists != dres.Exists || pres.Value != dres.Value ||
				pres.Seen != dres.Seen || pres.Exhausted != dres.Exhausted ||
				!sameKeys(pres.Witness, dres.Witness) {
				t.Fatalf("%s online.QRD diverges: plane %+v != direct %+v", label, pres, dres)
			}

			pin, din = twinInstances(mk)
			pdiv, perr := online.Diversify(ctx, pin, online.Options{})
			ddiv, derr := online.Diversify(ctx, din, online.Options{})
			if perr != nil || derr != nil {
				t.Fatalf("%s online.Diversify: %v / %v", label, perr, derr)
			}
			if pdiv.Exists != ddiv.Exists || pdiv.Value != ddiv.Value ||
				pdiv.Seen != ddiv.Seen || !sameKeys(pdiv.Witness, ddiv.Witness) {
				t.Fatalf("%s online.Diversify diverges: plane %+v != direct %+v", label, pdiv, ddiv)
			}
		}
	}
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
	p.mu.Lock()
	pl1 := p.snap.plane
	p.mu.Unlock()
	if pl1 == nil {
		t.Fatal("no plane cached after first solve")
	}
	if !pl1.Materialized() {
		t.Fatal("prepared plane should be materialized under the default guard")
	}
	if _, err := p.Decide(ctx, WithBound(sel1.Value)); err != nil {
		t.Fatal(err)
	}
	p.mu.Lock()
	pl2 := p.snap.plane
	p.mu.Unlock()
	if pl2 != pl1 {
		t.Fatal("plane rebuilt although the generation did not advance")
	}
	e.MustInsert("items", 1000, "f", 15)
	sel2, err := p.Diversify(ctx)
	if err != nil {
		t.Fatal(err)
	}
	p.mu.Lock()
	pl3 := p.snap.plane
	p.mu.Unlock()
	if pl3 == pl1 {
		t.Fatal("plane not invalidated by a database mutation")
	}
	_ = sel2
}

// TestPreparedPlaneOffEquivalence proves WithScorePlane(false) changes
// nothing about the results, only the scoring path.
func TestPreparedPlaneOffEquivalence(t *testing.T) {
	ctx := context.Background()
	_, pOn := preparedPlaneEngine(t)
	_, pOff := preparedPlaneEngine(t, WithScorePlane(false))
	for _, alg := range []Algorithm{Exact, Greedy, LocalSearch, Online} {
		a, errA := pOn.Diversify(ctx, WithAlgorithm(alg))
		b, errB := pOff.Diversify(ctx, WithAlgorithm(alg))
		if errA != nil || errB != nil {
			t.Fatalf("%s: %v / %v", alg, errA, errB)
		}
		if a.Value != b.Value || len(a.Rows) != len(b.Rows) {
			t.Fatalf("%s: plane (%v, %d rows) != direct (%v, %d rows)",
				alg, a.Value, len(a.Rows), b.Value, len(b.Rows))
		}
	}
	nA, errA := pOn.Count(ctx, WithBound(1))
	nB, errB := pOff.Count(ctx, WithBound(1))
	if errA != nil || errB != nil || nA.Cmp(nB) != 0 {
		t.Fatalf("Count: %v (%v) != %v (%v)", nA, errA, nB, errB)
	}
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
	// And the handle's cached plane still serves the original binding.
	again, err := p.Diversify(ctx, WithAlgorithm(Exact), WithK(2), WithLambda(1))
	if err != nil {
		t.Fatal(err)
	}
	if again.Value != base.Value {
		t.Fatalf("prepared binding corrupted by per-call override: %v != %v", again.Value, base.Value)
	}
}

// TestPreparedPlaneRegime proves WithPlaneRegime steers the prepared
// plane's storage regime, Explain reports the choice with its estimated
// footprint, and a per-call regime override bypasses the shared plane
// without changing the answer.
func TestPreparedPlaneRegime(t *testing.T) {
	ctx := context.Background()
	_, p := preparedPlaneEngine(t, WithPlaneRegime(PlaneMemoized))
	if _, err := p.Diversify(ctx); err != nil {
		t.Fatal(err)
	}
	p.mu.Lock()
	pl := p.snap.plane
	p.mu.Unlock()
	if pl == nil {
		t.Fatal("no plane cached after the first solve")
	}
	if got := pl.Regime(); got != objective.RegimeMemoized {
		t.Fatalf("prepared regime = %v, want memoized", got)
	}
	plan, err := p.Plan(ctx, Request{Problem: ProblemDiversify})
	if err != nil {
		t.Fatal(err)
	}
	if ex := plan.Explain(); !strings.Contains(ex, "memoized cache, ~") {
		t.Fatalf("Explain does not report the regime with its footprint:\n%s", ex)
	}

	// The default auto plan at this size materializes the matrix.
	_, pAuto := preparedPlaneEngine(t)
	plan, err = pAuto.Plan(ctx, Request{Problem: ProblemDiversify})
	if err != nil {
		t.Fatal(err)
	}
	if ex := plan.Explain(); !strings.Contains(ex, "materialized matrix, ~") {
		t.Fatalf("auto regime did not materialize:\n%s", ex)
	}

	// A per-call regime override must bypass the shared plane (whose store
	// was built under a different regime) and still answer identically.
	plan, err = pAuto.Plan(ctx, Request{Problem: ProblemDiversify,
		Options: []Option{WithPlaneRegime(PlaneMemoized)}})
	if err != nil {
		t.Fatal(err)
	}
	if ex := plan.Explain(); !strings.Contains(ex, "per-request") {
		t.Fatalf("per-call regime override did not bypass the shared plane:\n%s", ex)
	}
	a, err := pAuto.Diversify(ctx)
	if err != nil {
		t.Fatal(err)
	}
	b, err := pAuto.Diversify(ctx, WithPlaneRegime(PlaneMemoized))
	if err != nil {
		t.Fatal(err)
	}
	if a.Value != b.Value {
		t.Fatalf("per-call memoized regime changed the answer: %v != %v", a.Value, b.Value)
	}
}

// TestPlaneRegimeParseAndValidate pins the enum round-trip, the value-for-
// value mirror of the objective package's Regime that toObjective relies on,
// and the typed rejection of unknown names and out-of-range values.
func TestPlaneRegimeParseAndValidate(t *testing.T) {
	for _, r := range []PlaneRegime{PlaneAuto, PlaneMaterialized, PlaneIndexed, PlaneMemoized} {
		got, err := ParsePlaneRegime(r.String())
		if err != nil || got != r {
			t.Fatalf("round-trip %v: got %v, %v", r, got, err)
		}
		if o := r.toObjective(); o.String() != r.String() {
			t.Fatalf("%v lowers to objective regime %v", r, o)
		}
	}
	if r, err := ParsePlaneRegime(""); err != nil || r != PlaneAuto {
		t.Fatalf("empty string should parse as auto, got %v, %v", r, err)
	}
	var argErr *ArgError
	for _, name := range []string{"bogus", "tiled"} {
		if _, err := ParsePlaneRegime(name); !errors.As(err, &argErr) || argErr.Field != "plane-regime" {
			t.Fatalf("ParsePlaneRegime(%q) = %v, want a plane-regime ArgError", name, err)
		}
	}
	if _, err := objective.ParseRegime("tiled"); err == nil {
		t.Fatal(`objective.ParseRegime accepted "tiled"`)
	}
	_, p := preparedPlaneEngine(t)
	if _, err := p.Diversify(context.Background(), WithPlaneRegime(PlaneRegime(99))); !errors.As(err, &argErr) || argErr.Field != "plane-regime" {
		t.Fatalf("invalid regime not rejected as a plane-regime ArgError: %v", err)
	}
}

// TestPlaneDifferentialConstrained covers Σ instances (Section 9) through
// the 3SAT-to-constrained-QRD gadget, on exact search and counting.
func TestPlaneDifferentialConstrained(t *testing.T) {
	mk := func() *core.Instance {
		rng := rand.New(rand.NewSource(15))
		f := sat.Random3SAT(rng, 4, 6)
		return reduction.ThreeSATToConstrainedQRD(f)
	}
	pin, din := twinInstances(mk)
	checkQRD(t, "constrained QRDExact", solver.QRDExact(pin), solver.QRDExact(din))

	pin, din = twinInstances(mk)
	pc := solver.RDCExact(pin)
	dc := solver.RDCExact(din)
	if pc.Count.Cmp(dc.Count) != 0 || pc.Stats != dc.Stats {
		t.Fatalf("constrained RDCExact: plane (%v %+v) != direct (%v %+v)",
			pc.Count, pc.Stats, dc.Count, dc.Stats)
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
	for _, c := range []struct {
		regime objective.Regime
		want   string
	}{
		{objective.RegimeMaterialized, "materialized matrix"},
		{objective.RegimeIndexed, "metric index"},
		{objective.RegimeMemoized, "memoized cache"},
	} {
		p := objective.NewPlane(o, answers, objective.PlaneOptions{Regime: c.regime})
		if err := p.EnsureReadyContext(context.Background()); err != nil {
			t.Fatal(err)
		}
		if got := planeRegime(p); got != c.want {
			t.Fatalf("planeRegime(%v) = %q, want %q", c.regime, got, c.want)
		}
	}
}
