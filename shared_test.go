package diversification

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/relation"
	"repro/internal/value"
)

// storedRows indexes a table's stored tuples by the address of their first
// field, which is how an answer that shares one is recognised.
func storedRows(e *Engine, table string) map[*value.Value]relation.Tuple {
	rows := e.db.Relation(table).Tuples()
	out := make(map[*value.Value]relation.Tuple, len(rows))
	for _, t := range rows {
		out[&t[0]] = t
	}
	return out
}

// checkShared fails unless every answer of p's snapshot is one of the
// table's stored tuples, backing array included.
func checkShared(t *testing.T, e *Engine, p *Prepared, table string, want int) {
	t.Helper()
	stored := storedRows(e, table)
	answers := p.snap.Load().answers
	if len(answers) != want {
		t.Fatalf("%d answers, want %d", len(answers), want)
	}
	for i, a := range answers {
		if s, ok := stored[&a[0]]; !ok || len(s) != len(a) {
			t.Fatalf("answer %d %v is a copy, not the stored tuple", i, a)
		}
	}
}

// TestIdentityAnswersShareStoredTuples: the answers of an identity
// statement are the relation's own tuples, after a cold Prepare and after
// a delta refresh that inserts rows.
func TestIdentityAnswersShareStoredTuples(t *testing.T) {
	ctx := context.Background()
	e := NewEngine()
	e.MustCreateTable("items", "id", "cat", "rel")
	rows := make([][]interface{}, 200)
	for i := range rows {
		rows[i] = []interface{}{i, fmt.Sprintf("c%d", i%7), float64(i%13) / 13}
	}
	if _, _, err := e.Mutate("items", rows, false); err != nil {
		t.Fatal(err)
	}
	p, err := e.Prepare("Q(id, cat, rel) :- items(id, cat, rel)",
		WithK(5), WithAlgorithm(Greedy), WithRelevance(AttrRelevance("rel")), WithDistance(AttrDistance("cat")))
	if err != nil {
		t.Fatal(err)
	}
	if info, err := p.Refresh(ctx); err != nil || info.Mode != "rebuild" {
		t.Fatalf("cold refresh = %+v, %v", info, err)
	}
	checkShared(t, e, p, "items", 200)

	more := [][]interface{}{{500, "c1", 0.5}, {501, "c9", 0.25}, {-3, "c2", 1.0}}
	if _, _, err := e.Mutate("items", more, false); err != nil {
		t.Fatal(err)
	}
	if info, err := p.Refresh(ctx); err != nil || info.Mode != "delta" {
		t.Fatalf("refresh after inserts = %+v, %v; want a delta", info, err)
	}
	checkShared(t, e, p, "items", 203)
}

// TestAnswerKindFollowsFirstBinding: an answer carries the kinds of the
// binding the evaluation made, so sharing a stored tuple must not change
// them. In Q(x, y) :- s(x), r(x, y), s binds x first and the answer holds
// s's int; with the atoms swapped, r binds it and the answer is r's tuple,
// float and all.
func TestAnswerKindFollowsFirstBinding(t *testing.T) {
	for _, c := range []struct {
		stmt, want string
	}{
		{"Q(x, y) :- s(x), r(x, y)", "int64(5) int64(1)"},
		{"Q(x, y) :- r(x, y), s(x)", "float64(5) int64(1)"},
	} {
		e := NewEngine()
		e.MustCreateTable("s", "x")
		e.MustCreateTable("r", "x", "y")
		e.MustInsert("s", 5)
		e.MustInsert("r", 5.0, 1)
		rs, err := e.Query(c.stmt)
		if err != nil {
			t.Fatal(err)
		}
		p, err := e.Prepare(c.stmt, WithK(1), WithAlgorithm(Greedy))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := p.Refresh(context.Background()); err != nil {
			t.Fatal(err)
		}
		if rs.Len() != 1 || len(p.snap.Load().answers) != 1 {
			t.Fatalf("%s: %d and %d answers, want 1", c.stmt, rs.Len(), len(p.snap.Load().answers))
		}
		for _, got := range []relation.Tuple{rs.rows[0], p.snap.Load().answers[0]} {
			row := Row{schema: relation.NewSchema("Q", "x", "y"), tuple: got}
			if s := fmt.Sprintf("%T(%v) %T(%v)", row.Get("x"), got[0], row.Get("y"), got[1]); s != c.want {
				t.Errorf("%s answers %s, want %s", c.stmt, s, c.want)
			}
		}
	}
}
