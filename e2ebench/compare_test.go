package main

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"
)

// writeRuns saves one served zipf-cached result per entry of p50 under
// dir/NN, with the given correctness and failure counts.
func writeRuns(t *testing.T, dir string, p50 []float64, correct []bool, failed int) {
	t.Helper()
	for i, v := range p50 {
		r := &result{Workload: "zipf-cached", Seed: 1, Correct: correct[i], Attempted: 100, Failed: failed,
			Metrics: []metric{{Name: "read_p50_ms", Value: v, Unit: "ms", N: 100}}}
		if err := r.save(filepath.Join(dir, string(rune('a'+i)))); err != nil {
			t.Fatal(err)
		}
	}
}

func compareRow(t *testing.T, out, metric string) string {
	t.Helper()
	for _, line := range strings.Split(out, "\n") {
		if rest, ok := strings.CutPrefix(line, "zipf-cached "); ok && strings.HasPrefix(strings.TrimSpace(rest), metric+" ") {
			return line
		}
	}
	t.Fatalf("no %s row in\n%s", metric, out)
	return ""
}

func TestCompare(t *testing.T) {
	all := []bool{true, true, true, true}
	t.Run("pairs by name and judges", func(t *testing.T) {
		a, b := t.TempDir(), t.TempDir()
		writeRuns(t, a, []float64{10, 10.5, 11, 11.5}, all, 0)
		writeRuns(t, b, []float64{7, 7.5, 8, 8.5}, all, 0)
		var out bytes.Buffer
		if err := compareDirs(&out, a, b); err != nil {
			t.Fatal(err)
		}
		if row := compareRow(t, out.String(), "read_p50_ms"); !strings.Contains(row, "4/4") || !strings.HasSuffix(row, "better") {
			t.Errorf("row %q: want 4/4 wins and better", row)
		}
		if row := compareRow(t, out.String(), "failed/attempted"); !strings.HasSuffix(row, "same") {
			t.Errorf("row %q: want same", row)
		}
	})
	t.Run("wrong runs are reported, not dropped silently", func(t *testing.T) {
		a, b := t.TempDir(), t.TempDir()
		// B beats A in every pair by name. Pairing by position once the
		// wrong run is dropped would set 29 against 20 and 39 against 30.
		writeRuns(t, a, []float64{10, 20, 30, 40}, all, 0)
		writeRuns(t, b, []float64{9, 1, 29, 39}, []bool{true, false, true, true}, 0)
		var out bytes.Buffer
		if err := compareDirs(&out, a, b); err != nil {
			t.Fatal(err)
		}
		want := "wrong answer: B " + filepath.Join("b", "results-zipf-cached-served-1.json")
		if !strings.Contains(out.String(), want) {
			t.Errorf("output lacks %q:\n%s", want, out.String())
		}
		if row := compareRow(t, out.String(), "wrong runs"); !strings.Contains(row, "1 of 4") || !strings.HasSuffix(row, "worse") {
			t.Errorf("row %q: want 1 of 4 and worse", row)
		}
		if row := compareRow(t, out.String(), "read_p50_ms"); !strings.Contains(row, " 3/3 ") {
			t.Errorf("row %q: want 3/3 wins, the wrong run left out and the rest paired by name", row)
		}
	})
	t.Run("any rise in failures is worse", func(t *testing.T) {
		a, b := t.TempDir(), t.TempDir()
		writeRuns(t, a, []float64{10, 10, 10, 10}, all, 0)
		writeRuns(t, b, []float64{10, 10, 10, 10}, all, 1)
		var out bytes.Buffer
		if err := compareDirs(&out, a, b); err != nil {
			t.Fatal(err)
		}
		if row := compareRow(t, out.String(), "failed/attempted"); !strings.Contains(row, "(4/400)") || !strings.HasSuffix(row, "worse") {
			t.Errorf("row %q: want 4/400 and worse", row)
		}
	})
}
