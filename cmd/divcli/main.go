// Command divcli runs diversified queries from the command line. It loads
// relations from tab-separated files (one file per relation, first line the
// schema), prepares a query in the rule syntax once, and selects a diverse
// top-k under one of the paper's three objective functions.
//
// Usage:
//
//	divcli -load catalog=catalog.tsv -query 'Q(item, type, price) :- catalog(item, type, price, s), price <= 30' \
//	       -k 3 -objective max-sum -lambda 0.7 -distance-attr type
//
//	divcli -demo -k 4 -objective max-min          # built-in gift-shop demo
//
// Flags:
//
//	-load name=file     load a relation (repeatable)
//	-demo               use the built-in Example 1.1 gift-shop database
//	-query Q            the query; required unless -demo supplies a default
//	-k N                number of results to select
//	-objective F        max-sum | max-min | mono
//	-lambda X           relevance/diversity trade-off in [0,1]
//	-relevance-attr A   numeric attribute used as δrel (default: constant 1)
//	-distance-attr A    attribute whose inequality defines δdis (default: zero)
//	-constraint C       compatibility constraint in Cm syntax (repeatable)
//	-algorithm A        auto | exact | greedy | local-search | online
//	-count B            instead of selecting, count the k-sets with F >= B
//	-updates file.tsv   replay an update stream (divgen -stream) between
//	                    solves: each line inserts (or, with a leading "-" on
//	                    the relation name, deletes) a tuple; "--" re-solves.
//	                    The prepared handle refreshes incrementally where
//	                    the query allows, and each checkpoint reports the
//	                    refresh mode (delta vs rebuild) and the delta size
//	-timeout D          abort long-running (exponential) solves after D, e.g. 30s
//	-parallel N         exact-search workers (0 = all cores, 1 = one
//	                    warm-started walk); results are byte-identical at
//	                    every worker count
//	-batch SPEC         solve an extra variant concurrently over the shared
//	                    plane (repeatable), e.g. -batch k=4,lambda=0.8,objective=max-min
//	-explain            print the query's language class and the answer set
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"repro"
	"repro/internal/load"
	"repro/internal/tsvio"
)

// multiFlag collects repeatable string flags.
type multiFlag []string

func (m *multiFlag) String() string     { return strings.Join(*m, ",") }
func (m *multiFlag) Set(v string) error { *m = append(*m, v); return nil }

func main() {
	var (
		loads       multiFlag
		constraints multiFlag
		batches     multiFlag
		demo        = flag.Bool("demo", false, "use the built-in gift-shop database")
		querySrc    = flag.String("query", "", "query in rule syntax")
		k           = flag.Int("k", 3, "number of results to select")
		objName     = flag.String("objective", "max-sum", "max-sum | max-min | mono")
		lambda      = flag.Float64("lambda", 0.5, "trade-off λ in [0,1]")
		relAttr     = flag.String("relevance-attr", "", "numeric attribute used as relevance")
		disAttr     = flag.String("distance-attr", "", "attribute whose inequality is the distance")
		algName     = flag.String("algorithm", "auto", "auto | exact | greedy | local-search | online")
		countBound  = flag.Float64("count", -1, "count valid k-sets with F >= bound instead of selecting")
		updates     = flag.String("updates", "", "replay an update stream between solves (see divgen -stream)")
		timeout     = flag.Duration("timeout", 0, "abort the solve after this long (0 = no limit)")
		parallel    = flag.Int("parallel", 1, "exact-search workers (0 = all cores, 1 = one warm-started walk)")
		explain     = flag.Bool("explain", false, "print language class and the full answer set")
	)
	flag.Var(&loads, "load", "relation to load, as name=file.tsv (repeatable)")
	flag.Var(&constraints, "constraint", "compatibility constraint in Cm syntax (repeatable)")
	flag.Var(&batches, "batch", "extra variant to solve concurrently, as k=N,lambda=X,objective=F,algorithm=A (repeatable)")
	flag.Parse()

	e := diversification.NewEngine()
	switch {
	case *demo:
		load.Demo(e)
		if *querySrc == "" {
			*querySrc = "Q(item, type, price) :- catalog(item, type, price, s), price <= 40"
		}
	case len(loads) > 0:
		for _, spec := range loads {
			name, file, ok := strings.Cut(spec, "=")
			if !ok {
				fatalf("bad -load %q: want name=file.tsv", spec)
			}
			if err := load.TSV(e, name, file); err != nil {
				fatalf("loading %s: %v", spec, err)
			}
		}
	default:
		fmt.Fprintln(os.Stderr, "divcli: need -demo or at least one -load name=file.tsv")
		flag.Usage()
		os.Exit(2)
	}
	if *querySrc == "" {
		fatalf("need -query")
	}

	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	if *explain {
		lang, err := e.Language(*querySrc)
		if err != nil {
			fatalf("query: %v", err)
		}
		fmt.Printf("language class: %s\n", lang)
		rs, err := e.QueryContext(ctx, *querySrc)
		if err != nil {
			fatalf("query: %v", err)
		}
		fmt.Printf("answer set Q(D): %d tuples\n", rs.Len())
		for i := 0; i < rs.Len(); i++ {
			fmt.Printf("  %s\n", rs.Row(i))
		}
		fmt.Println()
	}

	objective, err := diversification.ParseObjective(*objName)
	if err != nil {
		fatalf("%v", err)
	}
	algorithm, err := diversification.ParseAlgorithm(*algName)
	if err != nil {
		fatalf("%v", err)
	}
	opts := []diversification.Option{
		diversification.WithK(*k),
		diversification.WithObjective(objective),
		diversification.WithLambda(*lambda),
		diversification.WithAlgorithm(algorithm),
		diversification.WithConstraints(constraints...),
	}
	// Only pass the option when -parallel was given explicitly: the library
	// defaults DiversifyBatch's pool to GOMAXPROCS when the option is
	// absent, and an unconditional WithParallelism(1) would serialize -batch.
	flag.Visit(func(f *flag.Flag) {
		if f.Name == "parallel" {
			opts = append(opts, diversification.WithParallelism(*parallel))
		}
	})
	if *relAttr != "" {
		opts = append(opts, diversification.WithRelevance(diversification.AttrRelevance(*relAttr)))
	}
	if *disAttr != "" {
		opts = append(opts, diversification.WithDistance(diversification.AttrDistance(*disAttr)))
	}

	p, err := e.Prepare(*querySrc, opts...)
	if err != nil {
		fatalf("prepare: %v", err)
	}

	if *countBound >= 0 {
		n, err := p.Count(ctx, diversification.WithBound(*countBound))
		if err != nil {
			fatalf("count: %v", err)
		}
		fmt.Printf("valid %d-sets with F >= %g: %s\n", *k, *countBound, n)
		return
	}

	if len(batches) > 0 {
		runBatch(ctx, p, batches, *k, *lambda, objective, algorithm)
		return
	}

	if *updates != "" {
		runUpdates(ctx, e, p, *updates)
		return
	}

	// The main solve goes through the request pipeline rather than bare
	// Diversify: under a -timeout too tight for the exact route the search
	// abandons at 80% of it and returns its greedy incumbent, and the
	// response says so instead of timing out.
	resp, err := p.Do(ctx, diversification.Request{Problem: diversification.ProblemDiversify})
	if err != nil {
		fatalf("diversify: %v", err)
	}
	if resp.Degraded {
		fmt.Printf("degraded: %s abandoned under deadline pressure; selection below is approximate (greedy)\n", resp.DegradedFrom)
	}
	sel := resp.Selection
	fmt.Printf("selected %d of the answers (%s, F = %.4f):\n", len(sel.Rows), sel.Method, sel.Value)
	for _, r := range sel.Rows {
		fmt.Printf("  %s\n", r)
	}
}

// runUpdates replays an update stream against the engine, re-solving the
// prepared query at every checkpoint. The handle's caches are maintained
// incrementally by the relation change journal when the query allows it;
// each checkpoint line reports which path the refresh took.
func runUpdates(ctx context.Context, e *diversification.Engine, p *diversification.Prepared, file string) {
	f, err := os.Open(file)
	if err != nil {
		fatalf("updates: %v", err)
	}
	stream, err := tsvio.ReadUpdates(f)
	f.Close()
	if err != nil {
		fatalf("updates: %v", err)
	}
	solve := func(label string) {
		info, err := p.Refresh(ctx)
		if err != nil {
			fatalf("%s: refresh: %v", label, err)
		}
		fmt.Printf("[%s] refresh=%s added=%d removed=%d answers=%d\n",
			label, info.Mode, info.Added, info.Removed, info.Answers)
		sel, err := p.Diversify(ctx)
		if err != nil {
			fatalf("%s: diversify: %v", label, err)
		}
		fmt.Printf("  selected %d of the answers (%s, F = %.4f):\n", len(sel.Rows), sel.Method, sel.Value)
		for _, r := range sel.Rows {
			fmt.Printf("    %s\n", r)
		}
	}
	solve("base")
	batch, applied := 0, 0
	apply := func(u tsvio.Update) {
		vals := make([]interface{}, len(u.Tuple))
		for i, v := range u.Tuple {
			vals[i] = v
		}
		if u.Delete {
			ok, err := e.Delete(u.Rel, vals...)
			if err != nil {
				fatalf("updates: delete %s%s: %v", u.Rel, u.Tuple, err)
			}
			if !ok {
				// A delete of an absent tuple means the stream does not
				// match the loaded base data; fail loudly rather than
				// replay a silently wrong transcript.
				fatalf("updates: delete %s%s: tuple not present (stream/base mismatch?)", u.Rel, u.Tuple)
			}
		} else if err := e.Insert(u.Rel, vals...); err != nil {
			fatalf("updates: insert %s%s: %v", u.Rel, u.Tuple, err)
		}
		applied++
	}
	for _, u := range stream {
		if u.Checkpoint {
			batch++
			fmt.Printf("applied %d updates\n", applied)
			solve(fmt.Sprintf("batch %d", batch))
			applied = 0
			continue
		}
		apply(u)
	}
	if applied > 0 {
		batch++
		fmt.Printf("applied %d updates\n", applied)
		solve(fmt.Sprintf("batch %d", batch))
	}
}

// runBatch solves the base variant plus every -batch spec concurrently over
// the shared score plane and prints each selection in spec order.
func runBatch(ctx context.Context, p *diversification.Prepared, specs []string, k int, lambda float64, obj diversification.Objective, alg diversification.Algorithm) {
	labels := []string{fmt.Sprintf("base (k=%d, lambda=%g, %s, %s)", k, lambda, obj, alg)}
	items := []diversification.BatchItem{{}}
	for _, spec := range specs {
		opts, err := parseBatchSpec(spec)
		if err != nil {
			fatalf("bad -batch %q: %v", spec, err)
		}
		labels = append(labels, spec)
		items = append(items, diversification.BatchItem{Opts: opts})
	}
	results, err := p.DiversifyBatch(ctx, items)
	if err != nil {
		fatalf("batch: %v", err)
	}
	failed := false
	for i, res := range results {
		fmt.Printf("[%s]\n", labels[i])
		if res.Err != nil {
			failed = true
			fmt.Printf("  error: %v\n", res.Err)
			continue
		}
		fmt.Printf("  selected %d of the answers (%s, F = %.4f):\n", len(res.Selection.Rows), res.Selection.Method, res.Selection.Value)
		for _, r := range res.Selection.Rows {
			fmt.Printf("    %s\n", r)
		}
	}
	if failed {
		// Scripts checking the exit status must see failed variants, just
		// as the same solve failing without -batch exits 1.
		os.Exit(1)
	}
}

// parseBatchSpec turns "k=4,lambda=0.8,objective=max-min,algorithm=exact"
// into per-item options.
func parseBatchSpec(spec string) ([]diversification.Option, error) {
	var opts []diversification.Option
	for _, field := range strings.Split(spec, ",") {
		field = strings.TrimSpace(field)
		if field == "" {
			continue
		}
		key, val, ok := strings.Cut(field, "=")
		if !ok {
			return nil, fmt.Errorf("field %q is not key=value", field)
		}
		switch key {
		case "k":
			n, err := strconv.Atoi(val)
			if err != nil {
				return nil, fmt.Errorf("k: %v", err)
			}
			opts = append(opts, diversification.WithK(n))
		case "lambda":
			x, err := strconv.ParseFloat(val, 64)
			if err != nil {
				return nil, fmt.Errorf("lambda: %v", err)
			}
			opts = append(opts, diversification.WithLambda(x))
		case "objective":
			o, err := diversification.ParseObjective(val)
			if err != nil {
				return nil, err
			}
			opts = append(opts, diversification.WithObjective(o))
		case "algorithm":
			a, err := diversification.ParseAlgorithm(val)
			if err != nil {
				return nil, err
			}
			opts = append(opts, diversification.WithAlgorithm(a))
		default:
			return nil, fmt.Errorf("unknown field %q (want k, lambda, objective or algorithm)", key)
		}
	}
	return opts, nil
}

func fatalf(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "divcli: "+format+"\n", args...)
	os.Exit(1)
}
