// Command e2ebench is the repository's end-to-end serving benchmark. It
// builds cmd/divserve from the checkout, generates each workload's inputs
// from a seed, boots real single-engine, durable and coordinator+shard
// servers on loopback, drives them over TCP with at most two client
// connections, checks every answer against an independent model of Q(D),
// and prints one "workload metric value unit n=samples" line per metric.
// The last line of standard output is a JSON summary of the run.
//
// Usage (from the repository root):
//
//	bash e2ebench/run.sh --workload warm-read-100k --seed 1 --seconds 15 --trace 0
//	bash e2ebench/run.sh -seed 2 -out DIR          # all four workloads
//	bash e2ebench/run.sh -trace 1 -workload zipf-cached
//	bash e2ebench/run.sh -compare DIR_A DIR_B       # judge two sets of runs
//	bash e2ebench/run.sh -calibrate                 # zipf-cached capacity
//
// See README.md for the workloads, the metrics and how to read them.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"
)

// config is one invocation's settings.
type config struct {
	root    string // repository checkout holding cmd/divserve
	work    string // scratch directory for inputs, data dirs and logs
	bin     string // the built divserve binary
	seed    int64
	seconds time.Duration // timed window per workload
	toy     bool
}

// setups is how many times a run boots its deployment; setup_s is the
// median of their times.
func (c *config) setups() int { return pick(c.toy, 5, 2) }

// warmup is the untimed load before each window.
func (c *config) warmup() time.Duration {
	return time.Duration(pick(c.toy, 2000, 200)) * time.Millisecond
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("e2ebench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name      = fs.String("workload", "all", "workload to run, or all")
		seed      = fs.Int64("seed", 1, "seed the inputs and request streams are generated from")
		seconds   = fs.Float64("seconds", 15, "length of each timed window, in seconds")
		trace     = fs.Int("trace", 0, "1: run the traced in-process stack and report per-layer metrics")
		out       = fs.String("out", "", "directory for results and trace files (default .bench_build/out)")
		root      = fs.String("root", ".", "repository checkout to build and serve from")
		toy       = fs.Bool("toy", false, "toy-sized inputs, two boots and a short warm-up, for smoke tests")
		compare   = fs.Bool("compare", false, "compare two directories of results: -compare A B")
		calibrate = fs.Bool("calibrate", false, "measure zipf-cached capacity with two closed-loop clients")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "e2ebench: -compare takes two directories")
			return 2
		}
		if err := compareDirs(stdout, fs.Arg(0), fs.Arg(1)); err != nil {
			fmt.Fprintf(stderr, "e2ebench: %v\n", err)
			return 1
		}
		return 0
	}
	if fs.NArg() != 0 || *trace < 0 || *trace > 1 || *seconds <= 0 {
		fs.Usage()
		return 2
	}
	selected := workloads
	if *name != "all" {
		w, err := findWorkload(*name)
		if err != nil {
			fmt.Fprintf(stderr, "e2ebench: %v\n", err)
			return 2
		}
		selected = []*workload{w}
	}

	absRoot, err := filepath.Abs(*root)
	if err != nil {
		fmt.Fprintf(stderr, "e2ebench: %v\n", err)
		return 1
	}
	build := filepath.Join(absRoot, ".bench_build")
	if *out == "" {
		*out = filepath.Join(build, "out")
	}
	work, err := os.MkdirTemp(build, "work-")
	if err != nil {
		// A directory holding only the benchmark has no checkout to build.
		fmt.Fprintf(stderr, "e2ebench: %v\n", err)
		return 1
	}
	defer os.RemoveAll(work)
	cfg := &config{
		root:    absRoot,
		work:    work,
		bin:     filepath.Join(build, "divserve"),
		seed:    *seed,
		seconds: time.Duration(*seconds * float64(time.Second)),
		toy:     *toy,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	defer killAll()

	if *calibrate {
		rps, err := calibrateZipf(ctx, cfg)
		if err != nil {
			fmt.Fprintf(stderr, "e2ebench: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "zipf-cached closed-loop capacity %.1f req/s with %d clients; a quarter is %.0f (the workload runs at %d)\n", rps, maxConns, rps/4, zipfRate)
		return 0
	}

	results, err := runAll(ctx, cfg, selected, *trace == 1, *out, stdout)
	if err != nil {
		fmt.Fprintf(stderr, "e2ebench: %v\n", err)
		return 1
	}
	sum, err := summarize(results)
	if err != nil {
		fmt.Fprintf(stderr, "e2ebench: %v\n", err)
		return 1
	}
	line, err := json.Marshal(sum)
	if err != nil {
		fmt.Fprintf(stderr, "e2ebench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !sum.Correct {
		return 1
	}
	return 0
}

// runAll builds the server and runs each selected workload in turn.
func runAll(ctx context.Context, cfg *config, selected []*workload, traced bool, out string, stdout io.Writer) ([]*result, error) {
	if !traced {
		if err := buildServer(cfg.root, cfg.bin); err != nil {
			return nil, err
		}
	}
	var results []*result
	for _, w := range selected {
		var r *result
		var err error
		if traced {
			r, err = runTraced(ctx, cfg, w, out)
		} else {
			r, err = servedResult(ctx, cfg, w)
		}
		if errors.Is(err, errWrong) {
			// A wrong answer is the run's verdict, not a crash: report it.
			fmt.Fprintf(os.Stderr, "e2ebench: %s: %v\n", w.name, err)
			r = &result{Workload: w.name, Seed: cfg.seed, Trace: traced}
		} else if err != nil {
			return nil, fmt.Errorf("%s: %w", w.name, err)
		}
		r.print(stdout)
		if err := r.save(out); err != nil {
			return nil, err
		}
		results = append(results, r)
	}
	if traced {
		printClusterSplit(stdout, results)
	}
	return results, nil
}

// servedResult runs w against real servers and assembles its result.
func servedResult(ctx context.Context, cfg *config, w *workload) (*result, error) {
	st, err := runServed(ctx, cfg, w)
	if err != nil {
		return nil, err
	}
	r := &result{
		Workload:  w.name,
		Seed:      cfg.seed,
		Seconds:   cfg.seconds.Seconds(),
		Correct:   st.warm.wrong == 0 && st.timed.wrong == 0,
		Attempted: st.timed.attempted,
		Failed:    st.timed.failed,
		Metrics:   servedMetrics(st),
		Attrs:     map[string]string{"regime": regimeNames(planeRegimes(st.after))},
		Host:      hostInfo(),
	}
	if w.name == "zipf-cached" {
		r.Attrs["rate"] = fmt.Sprint(zipfRate)
	}
	return r, nil
}
