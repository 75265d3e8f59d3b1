package relation

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strconv"
	"sync"
	"testing"

	"repro/internal/value"
)

// indexPool is the cell pool of the column index model: mixed kinds, NaN,
// both zeros, both infinities, ints and floats of 10¹⁶ (Equal, with
// different keys), strings and bools.
var indexPool = []value.Value{
	value.Int(0), value.Float(0), value.Float(math.Copysign(0, -1)),
	value.Float(math.NaN()), value.Float(math.Inf(1)), value.Float(math.Inf(-1)),
	value.Int(1e16), value.Float(1e16), value.Int(5), value.Float(5), value.Float(5.5),
	value.Str(""), value.Str("5"), value.Str("a"), value.Bool(true), value.Bool(false),
}

// indexAbsent are probe values no model row holds.
var indexAbsent = []value.Value{value.Int(-7), value.Float(0.25), value.Str("absent")}

// runIndexModel drives a two-column relation through the operations ops
// encodes, three bytes each, against a slice model of the relation. After
// every operation it checks the relation's tuples against the model and,
// for every built index and every pool value and absent value, that the
// index's run filtered by value.Equal equals a filtered scan, in
// relation order.
func runIndexModel(t *testing.T, ops []byte) {
	r := NewRelation(NewSchema("R", "a", "b"))
	var model []Tuple
	cell := func(b byte) value.Value { return indexPool[int(b)%len(indexPool)] }
	insert := func(tu Tuple) {
		added := r.Insert(tu)
		present := slices.ContainsFunc(model, func(m Tuple) bool { return m.Key() == tu.Key() })
		if added == present {
			t.Fatalf("Insert(%v) = %v with the tuple present %v", tu, added, present)
		}
		if added {
			model = append(model, tu)
		}
	}
	remove := func(pos int) {
		if len(model) == 0 {
			return
		}
		pos %= len(model)
		if !r.Delete(model[pos]) {
			t.Fatalf("Delete(%v) = false for a present tuple", model[pos])
		}
		model = slices.Delete(model, pos, pos+1)
	}
	for i := 0; i+2 < len(ops); i += 3 {
		op, a, b := ops[i], ops[i+1], ops[i+2]
		switch op % 5 {
		case 0, 1:
			insert(Tuple{cell(a), cell(b)})
		case 2:
			remove(int(a))
		case 3: // a probe: builds the column's index when it has none
			r.Probe([]int{int(a) % 2}, []value.Value{cell(b)})
		default: // a batch: inserts and deletes with no probe between
			for j := 0; j < int(a)%6+1; j++ {
				insert(Tuple{cell(b + byte(j)), cell(a + byte(3*j))})
			}
			for j := 0; j < int(b)%3; j++ {
				remove(int(a) + j)
			}
		}
		checkIndexModel(t, r, model)
	}
}

// checkIndexModel asserts r holds model, in order, and that every built
// index answers every probe as a filtered scan does.
func checkIndexModel(t *testing.T, r *Relation, model []Tuple) {
	t.Helper()
	if r.Len() != len(model) {
		t.Fatalf("Len = %d, model has %d", r.Len(), len(model))
	}
	for i, tu := range r.Tuples() {
		if tu.Key() != model[i].Key() || !r.Contains(tu) {
			t.Fatalf("row %d = %v, model has %v", i, tu, model[i])
		}
	}
	for _, c := range r.Indexed() {
		ix := r.cols[c]
		if n := len(ix.entries) + len(ix.pending); n != r.Len() {
			t.Fatalf("column %d index holds %d entries for %d rows", c, n, r.Len())
		}
		for _, v := range append(slices.Clone(indexPool), indexAbsent...) {
			run := r.Probe([]int{c}, []value.Value{v})
			var got, want []int
			for i := range run {
				p := run.Pos(i)
				if p >= r.Len() || (i > 0 && p <= run.Pos(i-1)) {
					t.Fatalf("column %d, %v: run positions %v out of order or range", c, v, run)
				}
				if value.Equal(r.Tuples()[p][c], v) {
					got = append(got, p)
				}
			}
			for p, tu := range r.Tuples() {
				if value.Equal(tu[c], v) {
					want = append(want, p)
				}
			}
			if !slices.Equal(got, want) {
				t.Fatalf("column %d, probe %v %v: index rows %v, scan rows %v", c, v.Kind(), v, got, want)
			}
		}
	}
}

// TestColumnIndexModel runs random operation sequences through the index
// model.
func TestColumnIndexModel(t *testing.T) {
	rng := rand.New(rand.NewSource(221))
	for trial := 0; trial < 300; trial++ {
		ops := make([]byte, 3*(20+rng.Intn(120)))
		rng.Read(ops)
		runIndexModel(t, ops)
	}
}

// FuzzColumnIndex runs fuzzed operation sequences through the index model;
// its seed corpus is in testdata/fuzz/FuzzColumnIndex.
func FuzzColumnIndex(f *testing.F) {
	f.Fuzz(func(t *testing.T, ops []byte) {
		runIndexModel(t, ops)
	})
}

// TestProbeBuildsOneIndexConcurrently: eight goroutines make the first
// probes of one column at once, as concurrent reads under the engine's
// read lock do. One builds the index and every probe reads that one.
func TestProbeBuildsOneIndexConcurrently(t *testing.T) {
	r := NewRelation(NewSchema("R", "a", "b"))
	for i := 0; i < 5_000; i++ {
		r.Insert(Ints(int64(i%50), int64(i)))
	}
	runs := make([]Run, 8)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for g := range runs {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			<-start
			runs[g] = r.Probe([]int{0}, []value.Value{value.Int(7)})
		}(g)
	}
	close(start)
	wg.Wait()
	if got := r.Indexed(); !slices.Equal(got, []int{0}) {
		t.Fatalf("indexed columns %v, want [0]", got)
	}
	for g, run := range runs {
		if len(run) != 100 || &run[0] != &runs[0][0] {
			t.Fatalf("goroutine %d read %d rows from another index than goroutine 0", g, len(run))
		}
		for i := range run {
			if r.Tuples()[run.Pos(i)][0].AsInt() != 7 {
				t.Fatalf("goroutine %d: row %v in the run of 7", g, r.Tuples()[run.Pos(i)])
			}
		}
	}
}

// historyRows draws n distinct rows shaped like the write-mix history
// relation (item, buyer, rating): 6,000 items, 500 buyers, 5 ratings.
func historyRows(n int) []Tuple {
	rng := rand.New(rand.NewSource(1))
	seen := make(map[string]bool, n)
	rows := make([]Tuple, 0, n)
	for len(rows) < n {
		t := Tuple{
			value.Str(fmt.Sprintf("w%05d", rng.Intn(6_000))),
			value.Str(fmt.Sprintf("u%03d", rng.Intn(500))),
			value.Int(int64(rng.Intn(5))),
		}
		if k := t.Key(); !seen[k] {
			seen[k] = true
			rows = append(rows, t)
		}
	}
	return rows
}

// loadHistory builds a history relation over rows.
func loadHistory(rows []Tuple) *Relation {
	r := NewRelation(NewSchema("history", "item", "buyer", "rating"))
	r.Grow(len(rows))
	for _, t := range rows {
		r.Insert(t)
	}
	return r
}

// BenchmarkRelationDeleteBatch times deleting 1,000 random rows, one
// Delete each, from a 24,000-row relation shaped like the write-mix
// history, as a recovery replays a window's deletes.
func BenchmarkRelationDeleteBatch(b *testing.B) {
	rows := historyRows(24_000)
	victims := slices.Clone(rows)
	rand.New(rand.NewSource(2)).Shuffle(len(victims), func(i, j int) { victims[i], victims[j] = victims[j], victims[i] })
	victims = victims[:1_000]
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		r := loadHistory(rows)
		b.StartTimer()
		for _, t := range victims {
			if !r.Delete(t) {
				b.Fatalf("Delete(%v) = false", t)
			}
		}
	}
}

var (
	sinkIndex *colIndex
	sinkRun   Run
)

// BenchmarkColumnIndex prices the column index on the write-mix history
// shape: building the item column's index over 24,000 rows, and one write
// step (insert a row, delete a random one, probe the new row's item) on
// the relation with that index, against the same insert and delete with
// none.
func BenchmarkColumnIndex(b *testing.B) {
	rows := historyRows(24_000)
	b.Run("build", func(b *testing.B) {
		r := loadHistory(rows)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			sinkIndex = buildIndex(r.Tuples(), 0)
		}
	})
	for _, indexed := range []bool{false, true} {
		name := "step/unindexed"
		if indexed {
			name = "step/indexed"
		}
		b.Run(name, func(b *testing.B) {
			r := loadHistory(rows)
			if indexed {
				r.Probe([]int{0}, []value.Value{rows[0][0]})
			}
			rng := rand.New(rand.NewSource(3))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				t := Tuple{value.Str("x" + strconv.Itoa(i)), value.Str("u001"), value.Int(4)}
				r.Insert(t)
				ts := r.Tuples()
				r.Delete(ts[rng.Intn(len(ts))])
				if indexed {
					sinkRun = r.Probe([]int{0}, []value.Value{t[0]})
				}
			}
		})
	}
}
