package main

import (
	"errors"
	"math"
	"math/rand"
	"strings"
	"testing"
)

// smallModel is Q(D) = {(1,a,0.9), (2,a,0.8), (3,b,0.5), (4,c,0.1)} over
// (id, cat, rel), at generation 7.
func smallModel() *model {
	m := newModel([]string{"id", "cat", "rel"}, "rel", "cat")
	for _, r := range [][]string{{"1", "a", "0.9"}, {"2", "a", "0.8"}, {"3", "b", "0.5"}, {"4", "c", "0.1"}} {
		m.add(r)
	}
	m.setGen(7)
	return m
}

func TestCheckRejectsCorruptedAnswers(t *testing.T) {
	sh := shape{K: 2, Lambda: 0.5, Objective: "max-sum"}
	// FMS of rows 1 and 3: (k-1)(1-λ)(0.9+0.5) + 2λ·1 = 1.7.
	cases := []struct {
		name string
		body string
		ok   bool
	}{
		{"valid", `{"selection":{"rows":[{"id":1,"cat":"a","rel":0.9},{"id":3,"cat":"b","rel":0.5}],"value":1.7},"generation":7}`, true},
		{"wrong value", `{"selection":{"rows":[{"id":1,"cat":"a","rel":0.9},{"id":3,"cat":"b","rel":0.5}],"value":1.8},"generation":7}`, false},
		{"duplicate row", `{"selection":{"rows":[{"id":1,"cat":"a","rel":0.9},{"id":1,"cat":"a","rel":0.9}],"value":0.9},"generation":7}`, false},
		{"row outside Q(D)", `{"selection":{"rows":[{"id":1,"cat":"a","rel":0.9},{"id":5,"cat":"d","rel":0.3}],"value":1.6},"generation":7}`, false},
		{"altered attribute", `{"selection":{"rows":[{"id":1,"cat":"a","rel":0.9},{"id":3,"cat":"c","rel":0.5}],"value":1.7},"generation":7}`, false},
		{"short selection", `{"selection":{"rows":[{"id":1,"cat":"a","rel":0.9}],"value":0.45},"generation":7}`, false},
		{"missing attribute", `{"selection":{"rows":[{"id":1,"cat":"a"},{"id":3,"cat":"b","rel":0.5}],"value":1.7},"generation":7}`, false},
		{"stale generation", `{"selection":{"rows":[{"id":1,"cat":"a","rel":0.9},{"id":3,"cat":"b","rel":0.5}],"value":1.7},"generation":6}`, false},
		{"no selection", `{"generation":7}`, false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			r, err := decodeResponse([]byte(c.body))
			if err != nil {
				t.Fatal(err)
			}
			err = smallModel().check(sh, r)
			if c.ok && err != nil {
				t.Fatalf("valid answer rejected: %v", err)
			}
			if !c.ok && err == nil {
				t.Fatal("corrupted answer accepted")
			}
		})
	}
}

func TestCheckDegradedIsAFailureNotAWrongAnswer(t *testing.T) {
	r, err := decodeResponse([]byte(`{"selection":{"rows":[],"value":0},"degraded":true,"generation":7}`))
	if err != nil {
		t.Fatal(err)
	}
	if err := smallModel().check(shape{K: 2, Objective: "max-sum"}, r); !errors.Is(err, errDegraded) {
		t.Fatalf("got %v, want errDegraded", err)
	}
}

func TestReferenceGreedy(t *testing.T) {
	m := smallModel()
	// Max-sum takes row 1 (largest relevance), then row 3 (its gain
	// 0.25 + 1 beats row 4's 0.05 + 1 and row 2's 0.4 + 0).
	if got := m.reference(shape{K: 2, Lambda: 0.5, Objective: "max-sum"}); !sameValue(got, 1.7) {
		t.Errorf("max-sum reference = %v, want 1.7", got)
	}
	// Max-min seeds with row 1, then takes row 3: (1-λ)·0.5 + λ·1 = 0.75.
	if got := m.reference(shape{K: 2, Lambda: 0.5, Objective: "max-min"}); !sameValue(got, 0.75) {
		t.Errorf("max-min reference = %v, want 0.75", got)
	}
}

func TestWriteMixModelFollowsMutations(t *testing.T) {
	ds, err := genWriteMix(rand.New(rand.NewSource(1)), t.TempDir(), 60, 240)
	if err != nil {
		t.Fatal(err)
	}
	m := ds.model
	before := len(m.rows)
	for step := 0; step < 20; step++ {
		muts := ds.writes.next()
		if len(muts) != 3 || muts[0].table != "catalog" || muts[1].table != "history" || !muts[2].delete {
			t.Fatalf("step %d: unexpected mutations %+v", step, muts)
		}
		added, victim := muts[1].row, muts[2].row
		for _, mu := range muts {
			mu.apply()
		}
		if len(m.rows) != before {
			t.Fatalf("step %d: |Q(D)| = %d, want it level at %d", step, len(m.rows), before)
		}
		if !hasAnswer(m, added[0].(string), added[1].(string)) {
			t.Fatalf("step %d: inserted purchase %v is not an answer", step, added)
		}
		if hasAnswer(m, victim[0].(string), victim[1].(string)) {
			t.Fatalf("step %d: deleted purchase %v is still an answer", step, victim)
		}
	}
}

// hasAnswer reports whether the write-mix model holds an answer for the
// purchase of item by buyer.
func hasAnswer(m *model, item, buyer string) bool {
	for key := range m.rows {
		f := strings.Split(key, "\x00")
		if f[0] == "s"+item && f[3] == "s"+buyer {
			return true
		}
	}
	return false
}

func TestSolveStreamIsDistinctAndBalanced(t *testing.T) {
	s := newSolveStream(3)
	seen := map[shape]bool{}
	counts := map[[2]any]int{}
	for j := 0; j < 10_000; j++ {
		sh := s.at(j)
		if seen[sh] {
			t.Fatalf("request %d repeats %+v", j, sh)
		}
		seen[sh] = true
		counts[[2]any{sh.K, sh.Objective}]++
	}
	share := map[[2]any]int{}
	for _, c := range solveCombos {
		share[[2]any{c.k, c.obj}]++
	}
	for c, n := range counts {
		if want := float64(share[c]) * 10_000 / float64(len(solveCombos)); math.Abs(float64(n)-want) > float64(share[c]) {
			t.Errorf("pair %v drawn %d times, want %.0f", c, n, want)
		}
	}
	if len(counts) != 6 {
		t.Errorf("%d (k, objective) pairs drawn, want 6", len(counts))
	}
	if s.at(42) != newSolveStream(3).at(42) {
		t.Error("stream is not a function of the seed")
	}
}

func TestZipfShapesIndependentOfCallOrder(t *testing.T) {
	a, b := newZipfShapes(5), newZipfShapes(5)
	for i := 99; i >= 0; i-- {
		b.at(i)
	}
	distinct := map[shape]bool{}
	for i := 0; i < 100; i++ {
		if a.at(i) != b.at(i) {
			t.Fatalf("request %d differs by call order", i)
		}
		distinct[a.at(i)] = true
	}
	if len(distinct) < 5 || len(distinct) > 64 {
		t.Errorf("%d distinct shapes in 100 draws", len(distinct))
	}
}

func TestWriteMixCycle(t *testing.T) {
	ds, err := genWriteMix(rand.New(rand.NewSource(2)), t.TempDir(), 60, 240)
	if err != nil {
		t.Fatal(err)
	}
	src := &writeMix{stream: newSolveStream(2), gen: ds.writes}
	var got strings.Builder
	for i := 0; i < 2*len(writeMixCycle); i++ {
		o := src.at(i)
		switch {
		case !o.read:
			got.WriteString(o.mut.table[:1])
			if o.mut.delete {
				got.WriteString("-")
			}
		case o.fresh:
			got.WriteString("F")
		default:
			got.WriteString("R")
		}
		if !o.read {
			o.mut.apply()
		}
	}
	// c: catalog insert, h: history insert, h-: history delete.
	if want := strings.Repeat("chh-Fchh-FR", 2); got.String() != want {
		t.Fatalf("stream %s, want %s", got.String(), want)
	}
}
