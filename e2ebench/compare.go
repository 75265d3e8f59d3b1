package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// loadResults reads every results-*.json under dir, keyed by its path
// relative to dir (e.g. "03/results-zipf-cached-served-1.json"), so that
// two directories laid out alike pair their runs by name.
func loadResults(dir string) (map[string]*result, error) {
	out := map[string]*result{}
	err := filepath.Walk(dir, func(path string, info os.FileInfo, err error) error {
		if err != nil || info.IsDir() || !strings.HasPrefix(info.Name(), "results-") || !strings.HasSuffix(path, ".json") {
			return err
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		var r result
		if err := json.Unmarshal(b, &r); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
		rel, err := filepath.Rel(dir, path)
		if err != nil {
			return err
		}
		out[rel] = &r
		return nil
	})
	if err == nil && len(out) == 0 {
		err = fmt.Errorf("no results-*.json under %s", dir)
	}
	return out, err
}

// group names a workload's runs of one kind, as the report's first column.
func group(r *result) string {
	if r.Trace {
		return r.Workload + " (traced)"
	}
	return r.Workload
}

// side is one directory's runs, gathered per group.
type side struct {
	values    map[string]map[string]float64 // group\tmetric -> run -> value
	runs      map[string]int                // group -> runs
	wrong     map[string][]string           // group -> runs with a wrong answer
	attempted map[string]int                // group -> requests attempted
	failed    map[string]int
}

// gather sorts rs into a side. A run with a wrong answer is listed, and its
// requests count in the error ratio, but its metrics are left out.
func gather(rs map[string]*result) side {
	s := side{values: map[string]map[string]float64{}, runs: map[string]int{}, wrong: map[string][]string{},
		attempted: map[string]int{}, failed: map[string]int{}}
	for key, r := range rs {
		g := group(r)
		s.runs[g]++
		s.attempted[g] += r.Attempted
		s.failed[g] += r.Failed
		if !r.Correct {
			s.wrong[g] = append(s.wrong[g], key)
			continue
		}
		for _, m := range r.Metrics {
			k := g + "\t" + m.Name
			if s.values[k] == nil {
				s.values[k] = map[string]float64{}
			}
			s.values[k][key] = m.Value
		}
	}
	return s
}

func quartiles(xs []float64) (q1, med, q3 float64) {
	return percentile(xs, 25), median(xs), percentile(xs, 75)
}

func valuesOf(m map[string]float64) []float64 {
	out := make([]float64, 0, len(m))
	for _, v := range m {
		out = append(out, v)
	}
	return out
}

// verdict judges B against A for one metric. Runs pair up by name, and B
// wins a pair when its value is better. The verdict is "worse" when B's
// median is worse than A's by more than the bound; "better" when B wins at
// least nine tenths of the pairs and the medians differ by more than A's
// interquartile spread; "unresolved" when A's own spread is wider than the
// bound and not every run of B beats every run of A; "same" otherwise.
// Metrics without a bound get no verdict.
func verdict(def metricDef, a, b map[string]float64) (wins, pairs int, v string) {
	sign := 1.0 // +1 when lower is better
	if def.Better == "higher" {
		sign = -1
	}
	for key, x := range a {
		if y, ok := b[key]; ok {
			pairs++
			if sign*(y-x) < 0 {
				wins++
			}
		}
	}
	if def.Bound == 0 {
		return wins, pairs, "-"
	}
	av, bv := valuesOf(a), valuesOf(b)
	q1, medA, q3 := quartiles(av)
	medB := median(bv)
	worstA, bestB := math.Inf(-1), math.Inf(1)
	for _, x := range av {
		worstA = math.Max(worstA, -sign*x)
	}
	for _, x := range bv {
		bestB = math.Min(bestB, -sign*x)
	}
	allBetter := bestB > worstA
	switch {
	case sign*(medB-medA) > def.Bound*math.Abs(medA):
		return wins, pairs, "worse"
	case pairs > 0 && float64(wins) >= 0.9*float64(pairs) && sign*(medB-medA) < 0 && math.Abs(medB-medA) > q3-q1:
		return wins, pairs, "better"
	case q3-q1 > def.Bound*math.Abs(medA) && !allBetter:
		return wins, pairs, "unresolved"
	default:
		return wins, pairs, "same"
	}
}

// compareDirs prints, per workload and metric, each side's median and
// quartiles, how many run pairs B won and the verdict against the
// metric's bound. Runs pair up by their path under each directory, so lay
// the two out alike, e.g. a/01, a/02, ... and b/01, b/02, ....
//
// Two rows per workload come first. "wrong runs" counts the runs with a
// wrong answer, which are listed and left out of every other row; B is
// worse with any. "failed/attempted" is the error ratio summed
// over all runs; B is worse on any rise, however small, because the
// workloads are chosen so that nothing fails.
func compareDirs(w io.Writer, dirA, dirB string) error {
	ra, err := loadResults(dirA)
	if err != nil {
		return err
	}
	rb, err := loadResults(dirB)
	if err != nil {
		return err
	}
	sa, sb := gather(ra), gather(rb)
	var wrong []string
	for name, s := range map[string]side{"A": sa, "B": sb} {
		for _, keys := range s.wrong {
			for _, k := range keys {
				wrong = append(wrong, name+" "+k)
			}
		}
	}
	sort.Strings(wrong)
	for _, k := range wrong {
		fmt.Fprintf(w, "wrong answer: %s\n", k)
	}
	defs := map[string]metricDef{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		defs[d.Name] = d
	}
	row := "%-32s %-24s %-34s %-34s %-6s %s\n"
	fmt.Fprintf(w, row, "workload", "metric", "A median [q1, q3]", "B median [q1, q3]", "B wins", "verdict")

	var groups []string
	for g := range sa.runs {
		if sb.runs[g] > 0 {
			groups = append(groups, g)
		}
	}
	sort.Strings(groups)
	for _, g := range groups {
		v := "same"
		if len(sb.wrong[g]) > 0 {
			v = "worse"
		}
		fmt.Fprintf(w, row, g, "wrong runs",
			fmt.Sprintf("%d of %d", len(sa.wrong[g]), sa.runs[g]), fmt.Sprintf("%d of %d", len(sb.wrong[g]), sb.runs[g]), "", v)
		ea := float64(sa.failed[g]) / float64(max(1, sa.attempted[g]))
		eb := float64(sb.failed[g]) / float64(max(1, sb.attempted[g]))
		switch {
		case eb > ea:
			v = "worse"
		case eb < ea:
			v = "better"
		default:
			v = "same"
		}
		fmt.Fprintf(w, row, g, "failed/attempted",
			fmt.Sprintf("%.3g (%d/%d)", ea, sa.failed[g], sa.attempted[g]), fmt.Sprintf("%.3g (%d/%d)", eb, sb.failed[g], sb.attempted[g]), "", v)

		var names []string
		for k := range sa.values {
			if gk, name, _ := strings.Cut(k, "\t"); gk == g && sb.values[k] != nil {
				names = append(names, name)
			}
		}
		sort.Strings(names)
		for _, name := range names {
			def, ok := defs[name]
			if !ok {
				def = metricDef{Name: name, Better: "lower"}
			}
			a, b := sa.values[g+"\t"+name], sb.values[g+"\t"+name]
			q1a, ma, q3a := quartiles(valuesOf(a))
			q1b, mb, q3b := quartiles(valuesOf(b))
			wins, pairs, v := verdict(def, a, b)
			fmt.Fprintf(w, row, g, name,
				fmt.Sprintf("%.4g [%.4g, %.4g] n=%d", ma, q1a, q3a, len(a)),
				fmt.Sprintf("%.4g [%.4g, %.4g] n=%d", mb, q1b, q3b, len(b)),
				fmt.Sprintf("%d/%d", wins, pairs), v)
		}
	}
	return nil
}
