package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// metricDef is a gated metric: BENCHMARK.json at the repository root
// lists exactly these, and e2e_test.go holds the two in step.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd are the metrics every untraced run reports for every workload.
// A bound is the share of the parent's median by which a metric may worsen
// before a change counts as a regression.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"read_p50_ms", "ms", "lower", 0.25},
	{"quality_ratio", "ratio", "higher", 0.01},
	{"server_rss_mb", "MiB", "lower", 0.1},
}

// perLayer are the metrics every traced run reports for every workload.
var perLayer = []metricDef{
	{Name: "httpapi.server_ms", Unit: "ms", Better: "lower"},
	{Name: "httpapi.client_self_ms", Unit: "ms", Better: "lower"},
	{Name: "httpapi.resp_bytes", Unit: "B", Better: "lower"},
	{Name: "service.do_ms", Unit: "ms", Better: "lower"},
	{Name: "service.hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "pipeline.plan_ms", Unit: "ms", Better: "lower"},
	{Name: "pipeline.execute_ms", Unit: "ms", Better: "lower"},
	{Name: "eval.full_ms", Unit: "ms", Better: "lower"},
	{Name: "eval.answers", Unit: "count", Better: "lower"},
	{Name: "objective.build_ms", Unit: "ms", Better: "lower"},
	{Name: "approx.steps", Unit: "count", Better: "lower"},
	{Name: "trace.overhead_pct", Unit: "%", Better: "lower"},
}

// metric is one measured number, with the count of samples behind it.
type metric struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n"`
}

// percentile is the nearest-rank p-th percentile of xs (NaN when empty).
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(p/100*float64(len(s)))) - 1
	return s[max(0, min(i, len(s)-1))]
}

func median(xs []float64) float64 { return percentile(xs, 50) }

// servedMetrics turns an untraced run into its metrics: the end-to-end
// set, then workload-specific extras that BENCHMARK.json does not gate.
func servedMetrics(st *runState) []metric {
	tm := st.timed
	secs := st.window.Seconds()
	ms := []metric{
		{"setup_s", median(st.setup), "s", len(st.setup)},
		{"read_p50_ms", median(tm.reads), "ms", len(tm.reads)},
		{"quality_ratio", median(tm.quality), "ratio", len(tm.quality)},
		{"server_rss_mb", median(st.rss), "MiB", len(st.rss)},
		{"read_p90_ms", percentile(tm.reads, 90), "ms", len(tm.reads)},
		{"read_rps", float64(tm.answered()) / secs, "req/s", tm.answered()},
		{"server_peak_rss_mb", st.peakRSS, "MiB", st.servers},
		{"error_ratio", float64(tm.failed) / float64(max(1, tm.attempted)), "fraction", tm.attempted},
		{"setup_raw_s", median(st.rawSetup), "s", len(st.rawSetup)},
		{"read_p50_raw_ms", median(tm.raw), "ms", len(tm.raw)},
		{"host.probe_ms", median(st.probes), "ms", len(st.probes)},
	}
	if n := len(tm.writes); n > 0 {
		ms = append(ms,
			metric{"write_p50_ms", median(tm.writes), "ms", n},
			metric{"write_p95_ms", percentile(tm.writes, 95), "ms", n},
			metric{"fresh_read_p50_ms", median(tm.fresh), "ms", len(tm.fresh)},
			metric{"fresh_read_p95_ms", percentile(tm.fresh, 95), "ms", len(tm.fresh)},
			metric{"warm_read_p50_ms", median(tm.warmReads), "ms", len(tm.warmReads)})
		if d0, d1 := st.before[0].Durability, st.after[0].Durability; d0 != nil && d1 != nil {
			ms = append(ms,
				metric{"wal.fsyncs_per_write", float64(d1.Fsyncs-d0.Fsyncs) / float64(n), "count", n},
				metric{"wal.bytes_per_row", float64(d1.WALBytes-d0.WALBytes) / float64(n), "B", n})
		}
	}
	if st.replay != nil {
		ms = append(ms, metric{"recovery_s", st.recovery, "s", 1})
		if d := st.replay[0].Durability; d != nil {
			ms = append(ms, metric{"wal.replay_ms", float64(d.ReplayNanos) / 1e6, "ms", 1})
		}
	}
	if n := len(tm.lag); n > 0 {
		ms = append(ms, metric{"gen_lag_p99_ms", percentile(tm.lag, 99), "ms", n})
	}
	var hits, misses, queuePeak int64
	for i := range st.after {
		hits += st.after[i].Cache.Hits - st.before[i].Cache.Hits
		misses += st.after[i].Cache.Misses - st.before[i].Cache.Misses
		queuePeak = max(queuePeak, st.after[i].QueuePeak)
	}
	return append(ms,
		metric{"service.hit_ratio", float64(hits) / float64(max(1, hits+misses)), "ratio", int(hits + misses)},
		metric{"service.queue_peak", float64(queuePeak), "count", len(st.after)})
}

// regimeNames names the plane regimes the engines resolved, e.g.
// "indexed", from their /metrics regime counts.
func regimeNames(counts []map[string]int64) string {
	set := map[string]bool{}
	for _, c := range counts {
		for r := range c {
			set[r] = true
		}
	}
	var out []string
	for r := range set {
		out = append(out, r)
	}
	sort.Strings(out)
	return strings.Join(out, ",")
}

// host describes the machine a run measured on.
type host struct {
	CPU        string `json:"cpu"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	OS         string `json:"os"`
}

func hostInfo() host {
	h := host{NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Go: runtime.Version(), OS: runtime.GOOS + "/" + runtime.GOARCH}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	return h
}

// result is one workload run as results.json records it.
type result struct {
	Workload  string            `json:"workload"`
	Seed      int64             `json:"seed"`
	Seconds   float64           `json:"seconds"`
	Trace     bool              `json:"trace"`
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   []metric          `json:"metrics"`
	Layers    []layerRow        `json:"layers,omitempty"`
	Attrs     map[string]string `json:"attrs,omitempty"`
	Host      host              `json:"host"`
}

func (r *result) value(name string) (metric, bool) {
	for _, m := range r.Metrics {
		if m.Name == name {
			return m, true
		}
	}
	return metric{}, false
}

// print writes one "workload metric value unit n=samples" line per metric.
func (r *result) print(w io.Writer) {
	for _, m := range r.Metrics {
		fmt.Fprintf(w, "%s %s %.6g %s n=%d\n", r.Workload, m.Name, m.Value, m.Unit, m.N)
	}
	keys := make([]string, 0, len(r.Attrs))
	for k := range r.Attrs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(w, "%s %s %s\n", r.Workload, k, r.Attrs[k])
	}
	for _, l := range r.Layers {
		fmt.Fprintf(w, "%s layer %-20s n=%-6d self_p50_ms=%-10.4g self_p95_ms=%-10.4g root_share=%.3f\n",
			r.Workload, l.Name, l.N, l.SelfP50, l.SelfP95, l.RootShare)
	}
}

// save writes the run to dir/results-<workload>-<trace>-<seed>.json.
func (r *result) save(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	kind := "served"
	if r.Trace {
		kind = "traced"
	}
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, fmt.Sprintf("results-%s-%s-%d.json", r.Workload, kind, r.Seed)), b, 0o644)
}

// summary is the last line of standard output: the gated metrics of
// every run, keyed "metric" for one workload or "workload/metric" for
// several.
type summary struct {
	Correct   bool                     `json:"correct"`
	Attempted int                      `json:"attempted"`
	Failed    int                      `json:"failed"`
	Metrics   map[string]summaryMetric `json:"metrics"`
}

type summaryMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// A run in which any request failed reports no result: the workloads are
// chosen so that nothing fails, and a change that makes requests fail (or
// sheds them) must not read as a faster one.
func summarize(results []*result) (summary, error) {
	s := summary{Correct: true, Metrics: map[string]summaryMetric{}}
	for _, r := range results {
		s.Correct = s.Correct && r.Correct
		s.Attempted += r.Attempted
		s.Failed += r.Failed
		if r.Correct && r.Failed > 0 {
			return s, fmt.Errorf("%s: %d of %d requests failed", r.Workload, r.Failed, r.Attempted)
		}
		defs := endToEnd
		if r.Trace {
			defs = perLayer
		}
		for _, d := range defs {
			m, ok := r.value(d.Name)
			if !ok || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
				if !r.Correct {
					continue // a run stopped by a wrong answer reports what it has
				}
				return s, fmt.Errorf("%s: no value for %s", r.Workload, d.Name)
			}
			key := d.Name
			if len(results) > 1 {
				key = r.Workload + "/" + d.Name
			}
			s.Metrics[key] = summaryMetric{Value: m.Value, Unit: m.Unit}
		}
	}
	return s, nil
}
