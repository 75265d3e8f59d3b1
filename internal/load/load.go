// Package load installs data into an engine for the command-line tools:
// TSV relations and the built-in gift-shop demo catalog. It is the single
// definition both divcli and divserve share, so the demo data pinned by
// the example golden transcripts and the serve golden transcript cannot
// silently diverge. The Filter variants install only rows a predicate
// keeps — divserve's shard mode partitions the same sources by routing
// hash, so every row lands on exactly one shard.
package load

import (
	"cmp"
	"fmt"
	"os"
	"slices"

	diversification "repro"
	"repro/internal/relation"
	"repro/internal/tsvio"
	"repro/internal/value"
)

// TSV reads a relation from a tab-separated file whose first line names
// the attributes and installs it into the engine.
func TSV(e *diversification.Engine, name, file string) error {
	return TSVFilter(e, name, file, nil)
}

// TSVFilter is TSV keeping only rows for which keep returns true (nil
// keeps everything). The table is created either way, so an empty
// partition is still a valid relation.
//
// The rows go in sorted, as one Engine.Mutate batch, which still gives
// each new row its own generation and journal entry. The sort is stable
// and a row with the same key as the row before it (1 after 1.0, say) is
// dropped before keep sees it, so of two such rows the first in the file
// is the one loaded.
func TSVFilter(e *diversification.Engine, name, file string, keep func(row []interface{}) bool) error {
	f, err := os.Open(file)
	if err != nil {
		return err
	}
	defer f.Close()
	attrs, rows, err := tsvio.Read(name, f)
	if err != nil {
		return err
	}
	if err := e.CreateTable(name, attrs...); err != nil {
		return err
	}
	// A stable sort, by sorting the row numbers with file order breaking
	// ties: that moves ints instead of tuples and costs O(n log n) compares.
	order := make([]int, len(rows))
	for i := range order {
		order[i] = i
	}
	slices.SortFunc(order, func(a, b int) int {
		if c := rows[a].Compare(rows[b]); c != 0 {
			return c
		}
		return cmp.Compare(a, b)
	})
	batch := make([][]interface{}, 0, len(rows))
	for i, r := range order {
		t := rows[r]
		if i > 0 && t.Compare(rows[order[i-1]]) == 0 {
			continue
		}
		row := tupleArgs(t)
		if keep != nil && !keep(row) {
			continue
		}
		batch = append(batch, row)
	}
	if _, _, err := e.Mutate(name, batch, false); err != nil {
		return fmt.Errorf("%s: %v", file, err)
	}
	return nil
}

// tupleArgs converts a tuple to the facade's interface{} row form.
func tupleArgs(t relation.Tuple) []interface{} {
	args := make([]interface{}, len(t))
	for i, v := range t {
		switch v.Kind() {
		case value.KindInt:
			args[i] = v.AsInt()
		case value.KindFloat:
			args[i] = v.AsFloat()
		case value.KindBool:
			args[i] = v.AsBool()
		default:
			args[i] = v.AsString()
		}
	}
	return args
}

// Demo installs the Example 1.1 gift-shop catalog.
func Demo(e *diversification.Engine) {
	DemoFilter(e, nil)
}

// DemoFilter is Demo keeping only rows for which keep returns true (nil
// keeps everything): the shard-mode partition of the demo catalog.
func DemoFilter(e *diversification.Engine, keep func(row []interface{}) bool) {
	e.MustCreateTable("catalog", "item", "type", "price", "inStock")
	rows := []struct {
		item, typ    string
		price, stock int
	}{
		{"silver ring", "jewelry", 28, 2},
		{"adventure novel", "book", 22, 9},
		{"jigsaw puzzle", "toy", 25, 4},
		{"silk scarf", "fashion", 30, 1},
		{"acrylic paints", "artsy", 21, 7},
		{"stunt kite", "toy", 38, 3},
		{"charm bracelet", "jewelry", 35, 5},
		{"science kit", "educational", 27, 6},
		{"poetry anthology", "book", 18, 8},
		{"board game", "toy", 32, 2},
	}
	for _, r := range rows {
		row := []interface{}{r.item, r.typ, r.price, r.stock}
		if keep != nil && !keep(row) {
			continue
		}
		e.MustInsert("catalog", row...)
	}
}
