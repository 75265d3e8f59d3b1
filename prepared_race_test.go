package diversification

import (
	"context"
	"errors"
	"sync"
	"testing"
)

// The concurrency contract under test: one Prepared handle is safe for any
// number of concurrent solves as long as the database is not mutated. These
// tests hammer the shared paths — the cached answer set, the shared score
// plane (materialized and sharded-memo regimes), the parallel search, the
// batch API and the cold-cache online streaming of Decide — from 8
// goroutines each, and are meant to run under -race (the CI race job
// includes this package).

const raceWorkers = 8

// raceEngine builds a mid-size catalog so solves overlap in time.
func raceEngine(t testing.TB) *Engine {
	t.Helper()
	return batchEngine(t, 16)
}

// TestRaceSharedPreparedSolvers: every solver family against one handle.
func TestRaceSharedPreparedSolvers(t *testing.T) {
	e := raceEngine(t)
	ctx := context.Background()
	p := e.MustPrepare(batchQuery, append(scoringOpts(), WithK(3))...)

	// One warm reference result to compare against.
	want, err := p.Diversify(ctx, WithAlgorithm(Exact))
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, raceWorkers*16)
	for w := 0; w < raceWorkers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 4; i++ {
				switch (w + i) % 6 {
				case 0:
					sel, err := p.Diversify(ctx, WithAlgorithm(Exact), WithParallelism(4))
					if err != nil {
						errs <- err
						continue
					}
					if sel.Value != want.Value {
						errs <- errors.New("parallel solve diverged under concurrency")
					}
				case 1:
					if _, err := p.Diversify(ctx, WithAlgorithm(Greedy)); err != nil {
						errs <- err
					}
				case 2:
					if _, err := p.Diversify(ctx, WithAlgorithm(LocalSearch)); err != nil {
						errs <- err
					}
				case 3:
					if _, err := p.Decide(ctx, WithBound(want.Value/2)); err != nil {
						errs <- err
					}
				case 4:
					if _, err := p.Count(ctx, WithBound(want.Value)); err != nil {
						errs <- err
					}
				case 5:
					if _, err := p.Diversify(ctx, WithObjective(Mono)); err != nil {
						errs <- err
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestRaceColdCacheDecide: 8 goroutines race a cold answer-set cache, so
// several drive online.QRD's streaming Append (each on its own streaming
// plane) while the winners fill the shared cache via storeAnswers.
func TestRaceColdCacheDecide(t *testing.T) {
	e := raceEngine(t)
	ctx := context.Background()
	p := e.MustPrepare(batchQuery, append(scoringOpts(), WithK(3))...)
	var wg sync.WaitGroup
	errs := make(chan error, raceWorkers)
	results := make([]bool, raceWorkers)
	for w := 0; w < raceWorkers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			ok, err := p.Decide(ctx, WithBound(1))
			if err != nil {
				errs <- err
				return
			}
			results[w] = ok
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	for w := 1; w < raceWorkers; w++ {
		if results[w] != results[0] {
			t.Fatal("concurrent cold-cache Decide calls disagreed")
		}
	}
}

// TestRaceDiversifyBatchConcurrentHandles: batches on the same handle from
// multiple goroutines (batch workers inside, goroutines outside).
func TestRaceDiversifyBatchConcurrentHandles(t *testing.T) {
	e := raceEngine(t)
	ctx := context.Background()
	p := e.MustPrepare(batchQuery, append(scoringOpts(), WithK(3))...)
	items := []BatchItem{
		{Opts: []Option{WithK(2)}},
		{Opts: []Option{WithK(3), WithLambda(1)}},
		{Opts: []Option{WithK(3), WithObjective(MaxMin)}},
		{Opts: []Option{WithK(4), WithObjective(Mono)}},
	}
	want, err := p.DiversifyBatch(ctx, items)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, raceWorkers)
	for w := 0; w < raceWorkers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got, err := p.DiversifyBatch(ctx, items)
			if err != nil {
				errs <- err
				return
			}
			for i := range want {
				if (want[i].Err == nil) != (got[i].Err == nil) {
					errs <- errors.New("batch error slots diverged under concurrency")
					return
				}
				if want[i].Err == nil && want[i].Selection.Value != got[i].Selection.Value {
					errs <- errors.New("batch values diverged under concurrency")
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
