package load

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"testing"

	diversification "repro"
	"repro/internal/cluster"
	"repro/internal/relation"
	"repro/internal/tsvio"
	"repro/internal/value"
	"repro/internal/wal"
)

// recipeTSVFilter is TSVFilter as a relation recipe: build the table's
// relation from the file (set semantics keeps the first row of each key),
// sort it, and insert the kept rows one Engine.Insert at a time.
func recipeTSVFilter(e *diversification.Engine, name, file string, keep func([]interface{}) bool) error {
	f, err := os.Open(file)
	if err != nil {
		return err
	}
	defer f.Close()
	attrs, rows, err := tsvio.Read(name, f)
	if err != nil {
		return err
	}
	rel := relation.NewRelation(relation.NewSchema(name, attrs...))
	rel.InsertAll(rows...)
	if err := e.CreateTable(name, attrs...); err != nil {
		return err
	}
	for _, t := range rel.Sorted() {
		row := tupleArgs(t)
		if keep != nil && !keep(row) {
			continue
		}
		if err := e.Insert(name, row...); err != nil {
			return err
		}
	}
	return nil
}

// randomField draws a TSV field: small ints in several spellings (so 1,
// 1.0, +1 and 01 share a key, as do 0, -0 and 0.0), fractions, strings and
// booleans. NaN and magnitudes of 1e15 and up are left out: Compare does
// not order them consistently with their keys, so the recipe's order for
// them depends on the sort algorithm.
func randomField(rng *rand.Rand) string {
	n := rng.Intn(7) - 3
	switch rng.Intn(6) {
	case 0:
		return strconv.Itoa(n)
	case 1:
		return strconv.Itoa(n) + ".0"
	case 2:
		return []string{"+1", "01", "-0", "0.0", "-0.0", "1e0"}[rng.Intn(6)]
	case 3:
		return strconv.FormatFloat(float64(n)+0.25, 'f', -1, 64)
	case 4:
		return []string{"true", "false", "a", "b", "c17", "", "x y"}[rng.Intn(7)]
	default:
		return strconv.Itoa(rng.Intn(1000))
	}
}

// randomTSV writes a three-column TSV with duplicate lines and rows that
// differ only in the spelling of a value.
func randomTSV(rng *rand.Rand, path string) {
	var b strings.Builder
	b.WriteString("a\tb\tc\n")
	var lines []string
	for i := 0; i < 1+rng.Intn(200); i++ {
		var line string
		if len(lines) > 0 && rng.Intn(5) == 0 {
			line = lines[rng.Intn(len(lines))] // an exact duplicate
		} else {
			line = randomField(rng) + "\t" + randomField(rng) + "\t" + randomField(rng)
		}
		lines = append(lines, line)
		b.WriteString(line + "\n")
	}
	if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
		panic(err)
	}
}

// durableLoad loads file into a new durable engine in dir and returns the
// generation it ended at. The engine is closed, so its log is complete.
func durableLoad(t *testing.T, dir, file string, keep func([]interface{}) bool, loader func(*diversification.Engine, string, string, func([]interface{}) bool) error) uint64 {
	t.Helper()
	e, _, err := diversification.OpenEngine(diversification.DurabilityConfig{Dir: dir, Fsync: "off"})
	if err != nil {
		t.Fatal(err)
	}
	if err := loader(e, "R", file, keep); err != nil {
		t.Fatal(err)
	}
	gen := e.Generation()
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	return gen
}

// dirFiles reads every file of a data directory.
func dirFiles(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string][]byte, len(entries))
	for _, de := range entries {
		data, err := os.ReadFile(filepath.Join(dir, de.Name()))
		if err != nil {
			t.Fatal(err)
		}
		out[de.Name()] = data
	}
	return out
}

// sameBits reports whether two values have the same kind and payload.
func sameBits(v, w value.Value) bool {
	if v.Kind() != w.Kind() {
		return false
	}
	switch v.Kind() {
	case value.KindFloat:
		return math.Float64bits(v.AsFloat()) == math.Float64bits(w.AsFloat())
	case value.KindString:
		return v.AsString() == w.AsString()
	default:
		return v.AsInt() == w.AsInt()
	}
}

// TestTSVFilterMatchesRelationRecipe: TSVFilter loads what the relation
// recipe loads — the same tuples, kinds and bits included, in the same
// order, at the same generations. Each side loads into a durable engine,
// whose write-ahead log records every journal entry (generation, table,
// tuple), so equal log bytes mean equal journals; the recovered relations
// are compared tuple by tuple as well. Half the trials route with the
// shard filter divserve uses, whose hash tells 1 from 1.0.
func TestTSVFilterMatchesRelationRecipe(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 40; trial++ {
		file := filepath.Join(t.TempDir(), "r.tsv")
		randomTSV(rng, file)
		var keep func([]interface{}) bool
		if trial%2 == 1 {
			shard := rng.Intn(2)
			keep = func(row []interface{}) bool { return cluster.ShardOf(row, 2) == shard }
		}
		dirA, dirB := t.TempDir(), t.TempDir()
		genA := durableLoad(t, dirA, file, keep, recipeTSVFilter)
		genB := durableLoad(t, dirB, file, keep, TSVFilter)
		if genA != genB {
			t.Fatalf("trial %d: generation %d, recipe %d", trial, genB, genA)
		}
		dbA, _, err := wal.Recover(dirA)
		if err != nil {
			t.Fatal(err)
		}
		dbB, _, err := wal.Recover(dirB)
		if err != nil {
			t.Fatal(err)
		}
		want, got := dbA.Relation("R").Tuples(), dbB.Relation("R").Tuples()
		if len(got) != len(want) {
			t.Fatalf("trial %d: %d tuples loaded, recipe %d", trial, len(got), len(want))
		}
		for i := range want {
			for j := range want[i] {
				if !sameBits(got[i][j], want[i][j]) {
					t.Fatalf("trial %d: tuple %d = %v, recipe %v", trial, i, got[i], want[i])
				}
			}
		}
		filesA, filesB := dirFiles(t, dirA), dirFiles(t, dirB)
		if len(filesA) != len(filesB) {
			t.Fatalf("trial %d: data dir holds %d files, recipe %d", trial, len(filesB), len(filesA))
		}
		for name, data := range filesA {
			if !bytes.Equal(filesB[name], data) {
				t.Fatalf("trial %d: %s differs from the recipe's", trial, name)
			}
		}
	}
}

// TestTSVDeduplicates: a table loaded from TSV has set semantics, so a
// repeated line loads once, and so does a row that repeats another's key
// in a different spelling; the first in the file is the one kept.
func TestTSVDeduplicates(t *testing.T) {
	file := filepath.Join(t.TempDir(), "r.tsv")
	if err := os.WriteFile(file, []byte("x\ty\n1\ta\n1\ta\n2\ta\n2.0\ta\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	e := diversification.NewEngine()
	if err := TSV(e, "r", file); err != nil {
		t.Fatal(err)
	}
	if gen := e.Generation(); gen != 3 {
		t.Errorf("generation %d after loading 2 distinct rows, want 3", gen)
	}
	rs, err := e.Query("Q(x, y) :- r(x, y)")
	if err != nil {
		t.Fatal(err)
	}
	if rs.Len() != 2 {
		t.Fatalf("%d rows loaded, want 2", rs.Len())
	}
	for i, want := range []int64{1, 2} {
		if x := rs.Row(i).Get("x"); x != want {
			t.Errorf("row %d: x = %#v, want the int %d the file spells first", i, x, want)
		}
	}
}

// writeItems writes n rows shaped like the warm-read workload's items(id,
// cat, rel): shuffled ids, zipf categories over 200 labels, distinct
// relevances in (0, 1) with seven decimals.
func writeItems(tb testing.TB, n int) string {
	tb.Helper()
	rng := rand.New(rand.NewSource(1))
	zipf := rand.NewZipf(rng, 1.1, 1, 199)
	perm, order := rng.Perm(n), rng.Perm(n)
	var b strings.Builder
	b.WriteString("id\tcat\trel\n")
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "%d\tc%03d\t%s\n", order[i], zipf.Uint64(), strconv.FormatFloat((float64(perm[i])+0.5)/float64(n), 'f', 7, 64))
	}
	file := filepath.Join(tb.TempDir(), "items.tsv")
	if err := os.WriteFile(file, []byte(b.String()), 0o644); err != nil {
		tb.Fatal(err)
	}
	return file
}

// itemsStmt is the warm-read statement: the identity query, greedy, with
// the attribute relevance and distance divserve's flags give.
const itemsStmt = "Q(id, cat, rel) :- items(id, cat, rel)"

func itemsOpts() []diversification.Option {
	return []diversification.Option{
		diversification.WithK(10),
		diversification.WithAlgorithm(diversification.Greedy),
		diversification.WithRelevance(diversification.AttrRelevance("rel")),
		diversification.WithDistance(diversification.AttrDistance("cat")),
	}
}

// BenchmarkColdStart times a divserve boot of the warm-read shape in
// process: load a 10^5-row TSV, prepare the statement, refresh it cold
// (evaluation, sort and category plane) and answer one greedy k = 10
// request. Run it with -benchmem: its allocations are most of what a boot
// leaves to the garbage collector.
func BenchmarkColdStart(b *testing.B) {
	file := writeItems(b, 100_000)
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := diversification.NewEngine()
		if err := TSV(e, "items", file); err != nil {
			b.Fatal(err)
		}
		p, err := e.Prepare(itemsStmt, itemsOpts()...)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := p.Refresh(ctx); err != nil {
			b.Fatal(err)
		}
		sel, err := p.Diversify(ctx)
		if err != nil || len(sel.Rows) != 10 {
			b.Fatalf("diversify: %v, %v", sel, err)
		}
	}
}

// coldRefreshAllocBudget is the allocation budget per answer of a cold
// Refresh of the identity query, Prepare included. Measured at 10^4 rows
// (go1.24.0): 1.02 per answer — the answer's key string in the dedup set,
// and its share of map growth and the category plane; the answer itself is
// the relation's stored tuple. The budget adds a margin of about 1.0.
// Copying each answer out of its binding cost 2.02, and building the
// active domain up front, collecting the answers in a relation and keying
// them a second time 14.1.
const coldRefreshAllocBudget = 2.0

// TestColdRefreshAllocs holds a cold Refresh to its allocation budget, so
// the cold path cannot quietly go back to copying each answer, building
// the active domain, collecting answers in a relation or keying each
// answer twice.
func TestColdRefreshAllocs(t *testing.T) {
	const n = 10_000
	e := diversification.NewEngine()
	if err := TSV(e, "items", writeItems(t, n)); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	allocs := testing.AllocsPerRun(3, func() {
		p, err := e.Prepare(itemsStmt, itemsOpts()...)
		if err != nil {
			t.Fatal(err)
		}
		info, err := p.Refresh(ctx)
		if err != nil || info.Mode != "rebuild" || info.Answers != n {
			t.Fatalf("cold refresh = %+v, %v; want a rebuild of %d answers", info, err, n)
		}
	})
	if perAnswer := allocs / n; perAnswer > coldRefreshAllocBudget {
		t.Errorf("cold refresh made %.0f allocations, %.2f per answer; budget %.1f", allocs, perAnswer, coldRefreshAllocBudget)
	} else {
		t.Logf("cold refresh: %.2f allocations per answer (budget %.1f)", perAnswer, coldRefreshAllocBudget)
	}
}

// coldLiveHeapBudget bounds the live heap a 10^5-row table and its cold
// identity statement hold after a collection. Each row is stored once: the
// answers share the relation's tuples, and a three-field tuple of 32-byte
// Values takes a 96-byte size class.
const coldLiveHeapBudget = 28 << 20

// TestColdLiveHeap loads the warm-read shape, prepares and cold-refreshes
// its statement, and holds the heap that survives a collection to
// coldLiveHeapBudget, so the answers cannot quietly go back to copying
// every row. It reads process-wide heap statistics, so it does not run in
// parallel with other tests.
func TestColdLiveHeap(t *testing.T) {
	const n = 100_000
	file := writeItems(t, n)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	e := diversification.NewEngine()
	if err := TSV(e, "items", file); err != nil {
		t.Fatal(err)
	}
	p, err := e.Prepare(itemsStmt, itemsOpts()...)
	if err != nil {
		t.Fatal(err)
	}
	info, err := p.Refresh(context.Background())
	if err != nil || info.Mode != "rebuild" || info.Answers != n {
		t.Fatalf("cold refresh = %+v, %v; want a rebuild of %d answers", info, err, n)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(p)
	growth := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	objects := int64(after.HeapObjects) - int64(before.HeapObjects)
	if growth > coldLiveHeapBudget {
		t.Errorf("live heap grew %.1f MiB in %d objects over %d rows; budget %d MiB", float64(growth)/(1<<20), objects, n, coldLiveHeapBudget>>20)
	} else {
		t.Logf("live heap grew %.1f MiB in %d objects over %d rows (budget %d MiB)", float64(growth)/(1<<20), objects, n, coldLiveHeapBudget>>20)
	}
}
