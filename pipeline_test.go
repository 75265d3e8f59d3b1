package diversification

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"strings"
	"testing"
)

// TestPlanExplain pins the observable plan resolution for each problem
// kind and plane regime: the route, snapshot and plane lines Explain
// reports are the fields operators alert on.
func TestPlanExplain(t *testing.T) {
	e := giftEngine(t)
	ctx := context.Background()
	p := e.MustPrepare("Q(item, type, price) :- catalog(item, type, price, s)",
		WithK(2), WithObjective(MaxSum), WithLambda(0.6),
		WithRelevance(priceRelevance), WithDistance(typeDistance))

	pl, err := p.Plan(ctx, Request{Problem: ProblemDiversify})
	if err != nil {
		t.Fatal(err)
	}
	if pl.Route() != "exact" {
		t.Errorf("Route() = %q, want exact", pl.Route())
	}
	explain := pl.Explain()
	for _, want := range []string{
		"problem:   diversify",
		"language:  CQ",
		"objective: max-sum (λ=0.6, k=2)",
		"route:     exact",
		"sigma:     0 constraints",
		"snapshot:  generation",
		"plane:     shared, materialized matrix",
		"workers:   1",
	} {
		if !strings.Contains(explain, want) {
			t.Errorf("Explain() lacks %q:\n%s", want, explain)
		}
	}

	// Executing the plan answers against its pinned snapshot — twice, with
	// identical results.
	r1, err := pl.Execute(ctx)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := pl.Execute(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(r1.Selection.Value) != math.Float64bits(r2.Selection.Value) {
		t.Error("re-executing a plan changed the answer")
	}
	if r1.Generation != r2.Generation {
		t.Error("re-executing a plan changed the generation")
	}

	// A streaming route plans without a snapshot.
	online := Online
	pl, err = p.Plan(ctx, Request{Problem: ProblemDiversify, Algorithm: &online})
	if err != nil {
		t.Fatal(err)
	}
	explain = pl.Explain()
	if !strings.Contains(explain, "route:     online") || !strings.Contains(explain, "snapshot:  none (streaming route)") {
		t.Errorf("online Explain() malformed:\n%s", explain)
	}

	// A per-request scoring override bypasses the shared plane and says so.
	pl, err = p.Plan(ctx, Request{Problem: ProblemDiversify, Options: []Option{
		WithRelevance(func(r Row) float64 { return 1 }),
	}})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(pl.Explain(), "plane:     per-request") {
		t.Errorf("override Explain() lacks the bypass note:\n%s", pl.Explain())
	}

	// Decide on a warm cache routes exact; the bound line is present.
	bound := 2.0
	pl, err = p.Plan(ctx, Request{Problem: ProblemDecide, Bound: &bound})
	if err != nil {
		t.Fatal(err)
	}
	explain = pl.Explain()
	if !strings.Contains(explain, "bound:     F >= 2") || !strings.Contains(explain, "route:     exact") {
		t.Errorf("decide Explain() malformed:\n%s", explain)
	}

	// In-top-r and rank report their candidate set size.
	rank := 1
	set := [][]interface{}{{"kite", "toy", 55}, {"scarf", "fashion", 30}}
	pl, err = p.Plan(ctx, Request{Problem: ProblemInTopR, Rank: &rank, Set: set})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(pl.Explain(), "rank:      r = 1, |set| = 2") {
		t.Errorf("in-top-r Explain() malformed:\n%s", pl.Explain())
	}
	pl, err = p.Plan(ctx, Request{Problem: ProblemRank, Set: set})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(pl.Explain(), "rank:      exact, |set| = 2") {
		t.Errorf("rank Explain() malformed:\n%s", pl.Explain())
	}
	resp, err := pl.Execute(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Rank < 1 {
		t.Errorf("rank = %d, want >= 1", resp.Rank)
	}
}

// TestPlanDecideColdStreams pins the cold-cache decide route: a fresh
// handle plans the streaming solver with an exact fallback, and the
// response reports the stream's own statistics.
func TestPlanDecideColdStreams(t *testing.T) {
	e := giftEngine(t)
	ctx := context.Background()
	p := e.MustPrepare("Q(item, type, price) :- catalog(item, type, price, s)",
		WithK(2), WithObjective(MaxSum), WithLambda(1), WithDistance(typeDistance))
	bound := 1.0
	pl, err := p.Plan(ctx, Request{Problem: ProblemDecide, Bound: &bound})
	if err != nil {
		t.Fatal(err)
	}
	if pl.Route() != "online-stream" {
		t.Fatalf("cold decide routed %q, want online-stream", pl.Route())
	}
	if !strings.Contains(pl.Explain(), "fallback: exact") {
		t.Errorf("cold decide Explain() lacks the fallback:\n%s", pl.Explain())
	}
	resp, err := pl.Execute(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !resp.Decided() {
		t.Error("bound 1 should be reachable")
	}
	if resp.Route != "online-stream" || resp.Stats.Seen == 0 {
		t.Errorf("streamed decide response malformed: route=%q stats=%+v", resp.Route, resp.Stats)
	}

	// Mono decide routes through the PTIME shortcut.
	mono := Mono
	lambda0 := 0.0
	resp, err = p.Do(ctx, Request{Problem: ProblemDecide, Objective: &mono, Lambda: &lambda0, Bound: &bound,
		Options: []Option{WithRelevance(priceRelevance)}})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Route != "mono-ptime" {
		t.Errorf("mono decide routed %q, want mono-ptime", resp.Route)
	}
}

// TestServiceEngineAccessor keeps the embedding path honest: mutations go
// through the same engine the service fronts.
func TestServiceEngineAccessor(t *testing.T) {
	e := giftEngine(t)
	svc := NewService(e, ServiceConfig{})
	if svc.Engine() != e {
		t.Error("Engine() must return the fronted engine")
	}
}

// TestPipelineGolden pins the Response of every problem kind through the
// pipeline, across FMS/FMM/Fmono × exact/greedy/online × the materialized
// and memoized plane regimes: a cold decide, diversify, a warm decide and
// count at the optimum's bound, in-top-r and rank of the chosen set, then
// the same pass again after a mutation batch the cache absorbs as a
// journal delta. Constrained (Σ) and per-request scoring-override cells
// follow. Each line is the Response JSON with elapsed_ns scrubbed, so the
// answers, the solver route, the work statistics and the refresh mode are
// all pinned. Regenerate with
//
//	go test -run TestPipelineGolden -update .
func TestPipelineGolden(t *testing.T) {
	g := loadGoldenSections(t, "pipeline.txt")
	ctx := context.Background()
	do := func(t *testing.T, b *strings.Builder, p *Prepared, label string, req Request) *Response {
		t.Helper()
		resp, err := p.Do(ctx, req)
		if err != nil {
			fmt.Fprintf(b, "%s: error: %v\n", label, err)
			return nil
		}
		scrubbed := *resp
		scrubbed.Elapsed = 0
		out, err := json.Marshal(&scrubbed)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(b, "%s: %s\n", label, out)
		return resp
	}
	regimes := []struct {
		name  string
		extra []Option
	}{
		{"materialized", nil},
		{"memoized", []Option{WithPlaneMemoryLimit(64)}}, // far below n(n-1)/2 cells
	}
	for _, obj := range []Objective{MaxSum, MaxMin, Mono} {
		for _, alg := range []Algorithm{Exact, Greedy, Online} {
			if obj == Mono && alg == Online {
				continue // the online procedures reject Fmono by design
			}
			for _, regime := range regimes {
				t.Run(obj.String()+"/"+alg.String()+"/"+regime.name, func(t *testing.T) {
					e := refreshEngine(t, 24)
					p := e.MustPrepare(refreshQuery, refreshOpts(3, obj, alg, regime.extra...)...)
					var b strings.Builder
					pass := func(phase string) {
						// The cold decide's route depends on the cache state.
						do(t, &b, p, phase+" decide", Request{Problem: ProblemDecide, Options: []Option{WithBound(1)}})
						div := do(t, &b, p, phase+" diversify", Request{Problem: ProblemDiversify})
						if div == nil {
							return
						}
						bound := div.Selection.Value
						do(t, &b, p, phase+" warm decide", Request{Problem: ProblemDecide, Bound: &bound})
						do(t, &b, p, phase+" count", Request{Problem: ProblemCount, Bound: &bound})
						set, rank1 := rowsAsSet(div.Selection), 1
						do(t, &b, p, phase+" in-top-r", Request{Problem: ProblemInTopR, Set: set, Rank: &rank1})
						do(t, &b, p, phase+" rank", Request{Problem: ProblemRank, Set: set})
					}
					pass("cold")
					mutate(t, e)
					pass("after-delta")
					g.check(t, b.String())
				})
			}
		}
	}

	t.Run("constrained", func(t *testing.T) {
		e := refreshEngine(t, 18)
		p := e.MustPrepare(refreshQuery, refreshOpts(3, MaxSum, Exact, WithConstraints(`exists s (s.cat = "a")`))...)
		var b strings.Builder
		if div := do(t, &b, p, "diversify", Request{Problem: ProblemDiversify}); div != nil {
			bound := div.Selection.Value
			do(t, &b, p, "decide", Request{Problem: ProblemDecide, Bound: &bound})
			do(t, &b, p, "count", Request{Problem: ProblemCount, Bound: &bound})
			set, rank1 := rowsAsSet(div.Selection), 1
			do(t, &b, p, "in-top-r", Request{Problem: ProblemInTopR, Set: set, Rank: &rank1})
		}
		g.check(t, b.String())
	})

	t.Run("override", func(t *testing.T) {
		e := refreshEngine(t, 20)
		p := e.MustPrepare(refreshQuery, refreshOpts(3, MaxSum, Exact)...)
		var b strings.Builder
		do(t, &b, p, "diversify", Request{Problem: ProblemDiversify, Options: []Option{WithDistance(priceGap)}})
		g.check(t, b.String())
	})
}

// priceGap is a per-request distance override: the absolute price gap.
func priceGap(a, b Row) float64 {
	return math.Abs(float64(a.Get("price").(int64) - b.Get("price").(int64)))
}

// rowsAsSet converts a selection's rows back into the [][]interface{}
// candidate-set form Request.Set accepts.
func rowsAsSet(sel *Selection) [][]interface{} {
	out := make([][]interface{}, len(sel.Rows))
	for i, r := range sel.Rows {
		out[i] = r.Values()
	}
	return out
}

// TestPipelinePerCallPlaneBypass pins the dirty-mask behavior through the
// pipeline: a per-request scoring override must bypass the handle's shared
// plane (whose scores bake in the Prepare-time δdis) and agree byte for
// byte with a handle prepared with the override as its own binding.
func TestPipelinePerCallPlaneBypass(t *testing.T) {
	ctx := context.Background()
	e := refreshEngine(t, 20)
	p := e.MustPrepare(refreshQuery, refreshOpts(3, MaxSum, Exact)...)
	if _, err := p.Do(ctx, Request{Problem: ProblemDiversify}); err != nil {
		t.Fatal(err) // warm the shared plane under the prepared binding
	}
	override, err := p.Do(ctx, Request{Problem: ProblemDiversify, Explain: true,
		Options: []Option{WithDistance(priceGap)}})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(override.Explain, "plane:     per-request") {
		t.Errorf("override did not bypass the shared plane:\n%s", override.Explain)
	}
	bound := e.MustPrepare(refreshQuery, refreshOpts(3, MaxSum, Exact, WithDistance(priceGap))...)
	want, err := bound.Do(ctx, Request{Problem: ProblemDiversify})
	if err != nil {
		t.Fatal(err)
	}
	sameSelection(t, "override diversify", override.Selection, want.Selection)
	if override.Stats != want.Stats {
		t.Errorf("override stats %+v, prepared binding %+v", override.Stats, want.Stats)
	}
}
