package main

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"strings"
	"testing"
)

// benchmarkFile is the part of the repository's BENCHMARK.json this
// package must agree with.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	if err := json.Unmarshal(b, &f); err != nil {
		t.Fatal(err)
	}
	return f
}

func TestBenchmarkFileMatchesProgram(t *testing.T) {
	f := readBenchmarkFile(t)
	if !reflect.DeepEqual(f.EndToEnd, endToEnd) {
		t.Errorf("BENCHMARK.json end_to_end = %+v, program has %+v", f.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(f.PerLayer, perLayer) {
		t.Errorf("BENCHMARK.json per_layer = %+v, program has %+v", f.PerLayer, perLayer)
	}
	if len(f.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, program %d", len(f.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if f.Workloads[i].Name != w.name || f.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json %+v, program %q: %q", i, f.Workloads[i], w.name, w.why)
		}
	}
}

// TestSmoke runs every workload at toy size, untraced and traced, through
// the same code path as a full run, against a divserve built from this
// checkout, and requires every metric BENCHMARK.json names to be printed
// with its unit for every workload.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("boots real servers")
	}
	f := readBenchmarkFile(t)
	for _, traced := range []string{"0", "1"} {
		var stdout, stderr bytes.Buffer
		args := []string{"-root", "..", "-toy", "-seconds", "1", "-out", t.TempDir(), "-trace", traced}
		if code := run(args, &stdout, &stderr); code != 0 {
			t.Fatalf("trace %s: exit %d\nstdout:\n%s\nstderr:\n%s", traced, code, stdout.String(), stderr.String())
		}
		printed := map[string]bool{}
		lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
		for _, line := range lines {
			if fs := strings.Fields(line); len(fs) >= 4 {
				printed[fs[0]+" "+fs[1]+" "+fs[3]] = true
			}
		}
		defs := f.EndToEnd
		if traced == "1" {
			defs = f.PerLayer
		}
		for _, w := range f.Workloads {
			for _, d := range defs {
				if !printed[w.Name+" "+d.Name+" "+d.Unit] {
					t.Errorf("trace %s: %s prints no %s in %s", traced, w.Name, d.Name, d.Unit)
				}
			}
		}
		var sum summary
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &sum); err != nil {
			t.Fatalf("last line is not the JSON summary: %v", err)
		}
		if !sum.Correct || sum.Attempted < 1 || sum.Failed != 0 || len(sum.Metrics) != len(defs)*len(f.Workloads) {
			t.Errorf("trace %s: summary %+v", traced, sum)
		}
	}
}
