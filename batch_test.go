package diversification

import (
	"context"
	"fmt"
	"math"
	"testing"
)

// batchEngine builds a catalog large enough that the exact search does real
// work, with numeric attributes for scoring.
func batchEngine(t testing.TB, n int) *Engine {
	t.Helper()
	e := NewEngine()
	e.MustCreateTable("catalog", "item", "type", "price", "inStock")
	types := []string{"jewelry", "book", "toy", "fashion", "artsy", "educational"}
	for i := 0; i < n; i++ {
		e.MustInsert("catalog",
			fmt.Sprintf("item%02d", i),
			types[(i*7)%len(types)],
			10+(i*13)%60,
			(i*3)%10,
		)
	}
	return e
}

func scoringOpts() []Option {
	return []Option{
		WithRelevance(func(r Row) float64 {
			return 40 - math.Abs(float64(r.Get("price").(int64))-30)
		}),
		WithDistance(func(a, b Row) float64 {
			if a.Get("type") == b.Get("type") {
				return 0
			}
			return 1 + math.Abs(float64(a.Get("price").(int64))-float64(b.Get("price").(int64)))/60
		}),
	}
}

const batchQuery = "Q(item, type, price) :- catalog(item, type, price, s), price <= 65"

// TestWithParallelismMatchesSequential is the public-API face of the
// determinism guarantee: WithParallelism(n) must return the same rows and
// score as the default one-worker solve, for every objective and algorithm
// the exact search backs.
func TestWithParallelismMatchesSequential(t *testing.T) {
	e := batchEngine(t, 24)
	ctx := context.Background()
	for _, obj := range []Objective{MaxSum, MaxMin, Mono} {
		opts := append(scoringOpts(), WithK(5), WithObjective(obj), WithAlgorithm(Exact))
		seq := e.MustPrepare(batchQuery, opts...)
		par := e.MustPrepare(batchQuery, append(opts, WithParallelism(4))...)
		want, err := seq.Diversify(ctx)
		if err != nil {
			t.Fatal(err)
		}
		got, err := par.Diversify(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if want.Value != got.Value {
			t.Fatalf("%s: parallel value %v != sequential %v", obj, got.Value, want.Value)
		}
		ws, gs := selectionItems(want), selectionItems(got)
		for i := range ws {
			if ws[i] != gs[i] {
				t.Fatalf("%s: parallel rows %v != sequential %v", obj, gs, ws)
			}
		}

		// The decision and counting forms must agree too.
		bopt := WithBound(want.Value / 2)
		seqOK, err := seq.Decide(ctx, bopt)
		if err != nil {
			t.Fatal(err)
		}
		parOK, err := par.Decide(ctx, bopt)
		if err != nil {
			t.Fatal(err)
		}
		if seqOK != parOK {
			t.Fatalf("%s: parallel Decide %v != sequential %v", obj, parOK, seqOK)
		}
		seqN, err := seq.Count(ctx, bopt)
		if err != nil {
			t.Fatal(err)
		}
		parN, err := par.Count(ctx, bopt)
		if err != nil {
			t.Fatal(err)
		}
		if seqN.Cmp(parN) != 0 {
			t.Fatalf("%s: parallel Count %v != sequential %v", obj, parN, seqN)
		}
	}
}

func TestWithParallelismValidation(t *testing.T) {
	e := batchEngine(t, 6)
	if _, err := e.Prepare(batchQuery, WithParallelism(-1)); err == nil {
		t.Fatal("WithParallelism(-1) must be rejected")
	}
	// 0 means GOMAXPROCS, not an error.
	if _, err := e.Prepare(batchQuery, WithParallelism(0)); err != nil {
		t.Fatalf("WithParallelism(0): %v", err)
	}
}

// TestDiversifyBatchMatchesIndividual: a batch sweep over (k, λ, objective)
// variants must return, slot for slot, exactly what standalone Diversify
// calls with the same options return.
func TestDiversifyBatchMatchesIndividual(t *testing.T) {
	e := batchEngine(t, 20)
	ctx := context.Background()
	p := e.MustPrepare(batchQuery, append(scoringOpts(), WithK(3))...)
	var items []BatchItem
	for _, k := range []int{2, 3, 4} {
		for _, lambda := range []float64{0, 0.5, 1} {
			for _, obj := range []Objective{MaxSum, MaxMin, Mono} {
				items = append(items, BatchItem{Opts: []Option{
					WithK(k), WithLambda(lambda), WithObjective(obj), WithAlgorithm(Exact),
				}})
			}
		}
	}
	results, err := p.DiversifyBatch(ctx, items)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(items) {
		t.Fatalf("got %d results for %d items", len(results), len(items))
	}
	for i, item := range items {
		want, wantErr := p.Diversify(ctx, item.Opts...)
		got := results[i]
		if (wantErr == nil) != (got.Err == nil) {
			t.Fatalf("item %d: batch err %v, individual err %v", i, got.Err, wantErr)
		}
		if wantErr != nil {
			continue
		}
		if want.Value != got.Selection.Value {
			t.Fatalf("item %d: batch value %v != individual %v", i, got.Selection.Value, want.Value)
		}
		ws, gs := selectionItems(want), selectionItems(got.Selection)
		for j := range ws {
			if ws[j] != gs[j] {
				t.Fatalf("item %d: batch rows %v != individual %v", i, gs, ws)
			}
		}
	}
}

// TestDiversifyBatchScoringOverrides is the regression for the shared-plane
// bypass on the batch path: an item carrying per-call WithRelevance/
// WithDistance overrides must score through those functions — not the
// shared plane the warm-up just built from the prepared bindings — and
// agree bit-for-bit with a standalone Diversify under the same overrides,
// both before and after the shared plane exists.
func TestDiversifyBatchScoringOverrides(t *testing.T) {
	e := batchEngine(t, 20)
	ctx := context.Background()
	p := e.MustPrepare(batchQuery, append(scoringOpts(), WithK(3))...)

	// Overriding scorers chosen to disagree hard with the prepared ones,
	// so any leak of the shared plane's baked-in values changes the answer.
	flippedRel := WithRelevance(func(r Row) float64 {
		return math.Abs(float64(r.Get("price").(int64)) - 30)
	})
	priceDis := WithDistance(func(a, b Row) float64 {
		return math.Abs(float64(a.Get("price").(int64)) - float64(b.Get("price").(int64)))
	})
	items := []BatchItem{
		{},                           // prepared bindings: uses the shared plane
		{Opts: []Option{flippedRel}}, // relevance override
		{Opts: []Option{priceDis}},   // distance override
		{Opts: []Option{flippedRel, priceDis, WithLambda(0.3)}},
	}
	// Compare twice: against a handle whose plane is cold (fresh prepare)
	// and then again over the now-warm shared plane, so both plane states
	// feed the same per-item bypass decision.
	for _, label := range []string{"cold", "warm"} {
		results, err := p.DiversifyBatch(ctx, items)
		if err != nil {
			t.Fatal(err)
		}
		for i, item := range items {
			single, err := p.Diversify(ctx, item.Opts...)
			if err != nil {
				t.Fatalf("%s pass item %d: %v", label, i, err)
			}
			if results[i].Err != nil {
				t.Fatalf("%s pass item %d batch error: %v", label, i, results[i].Err)
			}
			got, want := results[i].Selection, single
			if math.Float64bits(got.Value) != math.Float64bits(want.Value) {
				t.Errorf("%s pass item %d: batch value bits %x != single %x",
					label, i, math.Float64bits(got.Value), math.Float64bits(want.Value))
			}
			gs, ws := selectionItems(got), selectionItems(want)
			for j := range ws {
				if gs[j] != ws[j] {
					t.Errorf("%s pass item %d: batch rows %v != single %v", label, i, gs, ws)
				}
			}
		}
	}
}

// TestDiversifyBatchItemErrors: per-item failures land in their slot and do
// not poison the rest of the batch.
func TestDiversifyBatchItemErrors(t *testing.T) {
	e := batchEngine(t, 8)
	p := e.MustPrepare(batchQuery, append(scoringOpts(), WithK(3))...)
	results, err := p.DiversifyBatch(context.Background(), []BatchItem{
		{Opts: []Option{WithK(3)}},
		{Opts: []Option{WithK(100)}}, // more than |Q(D)|: no candidate set
		{Opts: []Option{WithK(-1)}},  // invalid
		{Opts: []Option{WithK(2)}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if results[0].Err != nil || results[3].Err != nil {
		t.Fatalf("valid items errored: %v, %v", results[0].Err, results[3].Err)
	}
	if results[1].Err == nil {
		t.Error("k > |Q(D)| should report no candidate set")
	}
	if results[2].Err == nil {
		t.Error("negative k should be rejected")
	}
	if len(selectionItems(results[0].Selection)) != 3 || len(selectionItems(results[3].Selection)) != 2 {
		t.Error("valid slots must carry their selections")
	}
}

func TestDiversifyBatchEmpty(t *testing.T) {
	e := batchEngine(t, 4)
	p := e.MustPrepare(batchQuery, WithK(2))
	results, err := p.DiversifyBatch(context.Background(), nil)
	if err != nil || results != nil {
		t.Fatalf("empty batch: got (%v, %v)", results, err)
	}
}
