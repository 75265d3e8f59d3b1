package diversification

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// holdBound is how long a call may stay blocked behind a held solve before
// the test fails. Where a solve holds the engine read lock, a write and
// every read queued behind it block until the solve is released, so the
// tests below fail after this bound instead of hanging.
const holdBound = 5 * time.Second

// solveHold is a distance function that parks one solve mid-flight. Over
// more than 4,096 answers an opaque distance leaves the plane evaluating
// pairs directly, so the function runs inside the solve, after its
// snapshot is pinned: arm the hold, start a solve, and the first pair that
// solve scores blocks until free is called. Later pairs pass.
type solveHold struct {
	armed   atomic.Bool
	entered chan struct{}
	release chan struct{}
	once    sync.Once
}

func newSolveHold(t *testing.T) *solveHold {
	h := &solveHold{entered: make(chan struct{}), release: make(chan struct{})}
	t.Cleanup(h.free)
	return h
}

func (h *solveHold) distance(a, b Row) float64 {
	if h.armed.CompareAndSwap(true, false) {
		close(h.entered)
		<-h.release
	}
	return AttrDistance("cat").Dis(a, b)
}

// wait returns once the armed solve is parked inside the distance.
func (h *solveHold) wait(t *testing.T) {
	t.Helper()
	select {
	case <-h.entered:
	case <-time.After(holdBound):
		t.Fatal("the armed solve never reached its distance function")
	}
}

func (h *solveHold) free() { h.once.Do(func() { close(h.release) }) }

// within waits for a call started in a goroutine, failing the test if it is
// still blocked after holdBound.
func within(t *testing.T, done <-chan error, what string) {
	t.Helper()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
	case <-time.After(holdBound):
		t.Fatalf("%s is still blocked after %v behind a held solve", what, holdBound)
	}
}

// holdQuery and smallQuery read the tables holdEngine builds: big has 5,000
// rows (id, cat) over 200 categories, small its first 1,000, and other is
// an empty one-column table for writes that neither query reads.
const (
	holdQuery  = "Q(id, cat) :- big(id, cat)"
	smallQuery = "Q(id, cat) :- small(id, cat)"
)

func holdEngine(t *testing.T) *Engine {
	t.Helper()
	e := NewEngine()
	e.MustCreateTable("big", "id", "cat")
	e.MustCreateTable("small", "id", "cat")
	e.MustCreateTable("other", "x")
	rows := make([][]interface{}, 5000)
	for i := range rows {
		rows[i] = []interface{}{i, i % 200}
	}
	for table, rows := range map[string][][]interface{}{"big": rows, "small": rows[:1000]} {
		if _, _, err := e.Mutate(table, rows, false); err != nil {
			t.Fatal(err)
		}
	}
	return e
}

// TestSolveHoldsNoEngineLock parks a greedy solve inside its distance
// function, after its snapshot is pinned. A one-row insert into another
// table must return while the solve is parked, and so must a greedy read on
// another statement issued after that write. A solve holding the engine
// read lock would block the write, and a Go RWMutex blocks new readers once
// a writer queues.
func TestSolveHoldsNoEngineLock(t *testing.T) {
	e := holdEngine(t)
	h := newSolveHold(t)
	ctx := context.Background()
	held := e.MustPrepare(holdQuery, WithK(3), WithAlgorithm(Greedy), WithDistance(h.distance))
	other := e.MustPrepare(smallQuery, WithK(3), WithAlgorithm(Greedy), WithDistance(AttrDistance("cat")))
	for _, p := range []*Prepared{held, other} {
		if _, err := p.Refresh(ctx); err != nil {
			t.Fatal(err)
		}
	}
	pinned := e.Generation()

	h.armed.Store(true)
	solved := make(chan *Response, 1)
	go func() {
		resp, err := held.Do(ctx, Request{})
		if err != nil {
			t.Error(err)
		}
		solved <- resp
	}()
	h.wait(t)

	wrote := make(chan error, 1)
	go func() { wrote <- e.Insert("other", 1) }()
	within(t, wrote, "a one-row insert into another table")
	read := make(chan error, 1)
	go func() {
		_, err := other.Diversify(ctx)
		read <- err
	}()
	within(t, read, "a greedy read on another statement")

	h.free()
	if resp := <-solved; resp != nil && resp.Generation != pinned {
		t.Errorf("the held solve answered at generation %d, want the %d it pinned", resp.Generation, pinned)
	}
}

// TestCacheDropsLateOlderGeneration: solves finish in any order once none
// holds the engine lock. A solve pinned at generation g is parked while a
// write moves the database to g+1 and the same request, solved at g+1,
// stores its response. The late response at g must not be stored, and a
// later request at g+1 must hit the g+1 entry.
func TestCacheDropsLateOlderGeneration(t *testing.T) {
	e := holdEngine(t)
	h := newSolveHold(t)
	ctx := context.Background()
	svc := NewService(e, ServiceConfig{})
	if err := svc.Register("big", holdQuery, WithK(3), WithAlgorithm(Greedy), WithDistance(h.distance)); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Refresh(ctx, "big"); err != nil {
		t.Fatal(err)
	}
	g := e.Generation()

	h.armed.Store(true)
	late := make(chan *Response, 1)
	go func() {
		resp, err := svc.Do(ctx, "big", Request{})
		if err != nil {
			t.Error(err)
		}
		late <- resp
	}()
	h.wait(t)
	wrote := make(chan error, 1)
	go func() { wrote <- e.Insert("other", 1) }()
	within(t, wrote, "a one-row insert into another table")

	fresh, err := svc.Do(ctx, "big", Request{})
	if err != nil {
		t.Fatal(err)
	}
	if fresh.Cached || fresh.Generation != g+1 {
		t.Fatalf("the solve after the write: cached=%v generation %d, want a solve at %d", fresh.Cached, fresh.Generation, g+1)
	}
	h.free()
	if resp := <-late; resp == nil || resp.Cached || resp.Generation != g {
		t.Fatalf("the held solve: %+v, want a solve at generation %d", resp, g)
	}
	if m := svc.Metrics().Cache; m.Entries != 1 || m.Misses != 2 {
		t.Errorf("after the late response: %+v, want 1 entry from 2 misses (the late one dropped)", m)
	}

	again, err := svc.Do(ctx, "big", Request{})
	if err != nil {
		t.Fatal(err)
	}
	if !again.Cached || again.Generation != g+1 {
		t.Errorf("the repeat at %d: cached=%v generation %d, want a hit on the %d entry", g+1, again.Cached, again.Generation, g+1)
	}
	if m := svc.Metrics().Cache; m.Hits != 1 || m.Entries != 1 {
		t.Errorf("after the repeat: %+v, want 1 hit on the 1 entry", m)
	}
	sameSelection(t, "the hit", again.Selection, fresh.Selection)
}
