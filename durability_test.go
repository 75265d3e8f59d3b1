package diversification

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// testStatement is the query/option pair the durability tests solve with;
// the response JSON (scrubbed of elapsed time) is the bit-exact identity
// witness between a recovered engine and its reference.
const testQuery = "Q(x, y) :- p(x, y), x <= 400"

func testOpts() []Option {
	return []Option{
		WithK(3),
		WithObjective(MaxSum),
		WithLambda(0.7),
		WithRelevance(AttrRelevance("x")),
		WithDistance(AttrDistance("y")),
	}
}

// solveJSON answers the test statement on e and returns the response JSON
// with the elapsed field scrubbed — every other byte (float bits of the
// objective value, solver stats, generation) must survive recovery.
func solveJSON(t *testing.T, e *Engine) string {
	t.Helper()
	p, err := e.Prepare(testQuery, testOpts()...)
	if err != nil {
		t.Fatalf("Prepare: %v", err)
	}
	if _, err := p.Refresh(context.Background()); err != nil {
		t.Fatalf("Refresh: %v", err)
	}
	resp, err := p.Do(context.Background(), Request{})
	if err != nil {
		t.Fatalf("Do: %v", err)
	}
	raw, err := json.Marshal(resp)
	if err != nil {
		t.Fatal(err)
	}
	return elapsedRE.ReplaceAllString(string(raw), `"elapsed_ns":0`)
}

// assertEnginesEqual checks that two engines are observably identical:
// generation, full answer set, and a solver response byte-for-byte.
func assertEnginesEqual(t *testing.T, got, want *Engine) {
	t.Helper()
	if g, w := got.Generation(), want.Generation(); g != w {
		t.Fatalf("generation: got %d want %d", g, w)
	}
	gr, err := got.Query(testQuery)
	if err != nil {
		t.Fatalf("Query(got): %v", err)
	}
	wr, err := want.Query(testQuery)
	if err != nil {
		t.Fatalf("Query(want): %v", err)
	}
	if gr.Len() != wr.Len() {
		t.Fatalf("answers: got %d want %d", gr.Len(), wr.Len())
	}
	for i := 0; i < wr.Len(); i++ {
		if gr.Row(i).String() != wr.Row(i).String() {
			t.Fatalf("answer %d: got %s want %s", i, gr.Row(i), wr.Row(i))
		}
	}
	if g, w := solveJSON(t, got), solveJSON(t, want); g != w {
		t.Fatalf("solver response diverged:\n got %s\nwant %s", g, w)
	}
}

func seedEngine(t *testing.T, e *Engine) {
	t.Helper()
	if err := e.CreateTable("p", "x", "y"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if err := e.Insert("p", int64(i*37%500), float64(i)/7); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := e.Delete("p", int64(5*37%500), float64(5)/7); err != nil {
		t.Fatal(err)
	}
}

func TestOpenEngineArgErrors(t *testing.T) {
	var argErr *ArgError
	_, _, err := OpenEngine(DurabilityConfig{})
	if !errors.As(err, &argErr) || argErr.Field != "data-dir" {
		t.Fatalf("missing dir: %v", err)
	}
	_, _, err = OpenEngine(DurabilityConfig{Dir: t.TempDir(), Fsync: "sometimes"})
	if !errors.As(err, &argErr) || argErr.Field != "fsync" {
		t.Fatalf("bad fsync: %v", err)
	}
}

func TestDurableEngineRoundTrip(t *testing.T) {
	dir := t.TempDir()
	e, rec, err := OpenEngine(DurabilityConfig{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if rec.Generation != 0 || rec.ReplayedEntries != 0 {
		t.Fatalf("first boot should recover nothing: %+v", rec)
	}
	seedEngine(t, e)
	gen := e.Generation()
	want := solveJSON(t, e)
	if err := e.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	e2, rec2, err := OpenEngine(DurabilityConfig{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer e2.Close()
	if !rec2.CleanShutdown {
		t.Fatalf("clean shutdown not recognized: %+v", rec2)
	}
	if rec2.Generation != gen || rec2.ReplayedEntries != int(gen) {
		t.Fatalf("recovery %+v, want generation %d with full-log replay", rec2, gen)
	}
	if got := solveJSON(t, e2); got != want {
		t.Fatalf("recovered response diverged:\n got %s\nwant %s", got, want)
	}
	if info, ok := e2.Recovery(); !ok || info != rec2 {
		t.Fatalf("Recovery() = %+v, %v; want %+v", info, ok, rec2)
	}
}

func TestSnapshotThenReplay(t *testing.T) {
	dir := t.TempDir()
	e, _, err := OpenEngine(DurabilityConfig{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	seedEngine(t, e)
	snapGen, err := e.Snapshot(context.Background())
	if err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	if snapGen != e.Generation() {
		t.Fatalf("snapshot at %d, generation %d", snapGen, e.Generation())
	}
	// Three more mutations after the snapshot; no Close — a crash.
	for i := 0; i < 3; i++ {
		if err := e.Insert("p", int64(1000+i), float64(i)); err != nil {
			t.Fatal(err)
		}
	}
	gen := e.Generation()

	e2, rec, err := OpenEngine(DurabilityConfig{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer e2.Close()
	if rec.SnapshotGen != snapGen || rec.ReplayedEntries != 3 || rec.Generation != gen {
		t.Fatalf("recovery %+v, want snapshot %d + 3 replayed to gen %d", rec, snapGen, gen)
	}
	assertEnginesEqual(t, e2, e)
}

func TestAutoSnapshotCadence(t *testing.T) {
	dir := t.TempDir()
	e, _, err := OpenEngine(DurabilityConfig{Dir: dir, SnapshotEvery: 5})
	if err != nil {
		t.Fatal(err)
	}
	seedEngine(t, e) // 21 mutations: several automatic snapshots
	dm, ok := e.durabilityMetrics()
	if !ok || dm.LastSnapshotGen == 0 {
		t.Fatalf("no automatic snapshot happened: %+v", dm)
	}
	gen := e.Generation()
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}

	e2, rec, err := OpenEngine(DurabilityConfig{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer e2.Close()
	if rec.Generation != gen {
		t.Fatalf("recovered to %d, want %d", rec.Generation, gen)
	}
	if rec.SnapshotGen == 0 || rec.ReplayedEntries > 5 {
		t.Fatalf("snapshot cadence not honored: %+v (replay should cover at most one interval)", rec)
	}
}

func TestSnapshotNotDurable(t *testing.T) {
	e := NewEngine()
	if _, err := e.Snapshot(context.Background()); !errors.Is(err, ErrNotDurable) {
		t.Fatalf("Engine.Snapshot on in-memory engine: %v", err)
	}
	svc := NewService(e, ServiceConfig{})
	if _, err := svc.Snapshot(context.Background()); !errors.Is(err, ErrNotDurable) {
		t.Fatalf("Service.Snapshot on in-memory engine: %v", err)
	}
	if err := e.Close(); err != nil {
		t.Fatalf("Close of in-memory engine must be a no-op: %v", err)
	}
	if _, ok := e.Recovery(); ok {
		t.Fatal("in-memory engine reported a recovery")
	}
}

func TestTornTailRecovery(t *testing.T) {
	dir := t.TempDir()
	e, _, err := OpenEngine(DurabilityConfig{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	seedEngine(t, e)
	gen := e.Generation()
	// Simulate a crash mid-append: cut bytes off the newest segment (no
	// Close, so no clean marker and the tail is legitimately suspect).
	segs, err := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no segments: %v", err)
	}
	last := segs[len(segs)-1]
	fi, err := os.Stat(last)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(last, fi.Size()-4); err != nil {
		t.Fatal(err)
	}

	e2, rec, err := OpenEngine(DurabilityConfig{Dir: dir})
	if err != nil {
		t.Fatalf("torn tail must recover, not fail: %v", err)
	}
	defer e2.Close()
	if !rec.TornTail {
		t.Fatalf("torn tail not reported: %+v", rec)
	}
	if rec.Generation != gen-1 {
		t.Fatalf("recovered to %d, want %d (exactly the torn record lost)", rec.Generation, gen-1)
	}
}

func TestWALFailureSurfacesOnMutation(t *testing.T) {
	dir := t.TempDir()
	e, _, err := OpenEngine(DurabilityConfig{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	seedEngine(t, e)
	// Closing the engine makes the log refuse appends; the next mutation
	// must report the lost durability rather than succeed silently.
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	err = e.Insert("p", int64(9999), 1.0)
	if err == nil || !strings.Contains(err.Error(), "write-ahead log") {
		t.Fatalf("mutation after WAL failure: %v", err)
	}
}

// TestWALReplayMatchesColdRebuild is the durability property test: for
// random mutation histories — with the change journal compacted to a tiny
// window (SetJournalBound) and a snapshot cut mid-history — recovering
// from disk must equal a cold in-memory rebuild of the same history
// bit-for-bit: generation, answer set, solver response. The WAL taps the
// mutation stream itself, so journal compaction (which forces Prepared
// rebuilds) must be invisible to it.
func TestWALReplayMatchesColdRebuild(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			dir := t.TempDir()
			e, _, err := OpenEngine(DurabilityConfig{Dir: dir, Fsync: "off"})
			if err != nil {
				t.Fatal(err)
			}
			e.db.SetJournalBound(4)
			cold := NewEngine()

			apply := func(f func(*Engine) error) {
				t.Helper()
				if err := f(e); err != nil {
					t.Fatal(err)
				}
				if err := f(cold); err != nil {
					t.Fatal(err)
				}
			}
			apply(func(x *Engine) error { return x.CreateTable("p", "x", "y") })
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 120; i++ {
				// A small domain so deletes hit live rows and inserts collide
				// with existing ones: duplicate inserts and missed deletes
				// must not advance the generation (or the log) on either side.
				x, y := int64(rng.Intn(30)*20), float64(rng.Intn(8))/3
				if rng.Intn(4) == 0 {
					apply(func(e *Engine) error { _, err := e.Delete("p", x, y); return err })
				} else {
					apply(func(e *Engine) error { return e.Insert("p", x, y) })
				}
				if i == 60 {
					if _, err := e.Snapshot(context.Background()); err != nil {
						t.Fatalf("mid-history snapshot: %v", err)
					}
				}
			}
			if err := e.Close(); err != nil {
				t.Fatal(err)
			}

			e2, rec, err := OpenEngine(DurabilityConfig{Dir: dir})
			if err != nil {
				t.Fatal(err)
			}
			defer e2.Close()
			if rec.SnapshotGen == 0 {
				t.Fatalf("recovery ignored the snapshot: %+v", rec)
			}
			assertEnginesEqual(t, e2, cold)
		})
	}
}
