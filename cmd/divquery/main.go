// Command divquery is the thin client for a divserve instance: it issues
// one wire request (query, refresh, metrics or health probe) and prints
// the response.
//
// Usage:
//
//	divquery -addr http://127.0.0.1:8080 -stmt gifts                 # diversify
//	divquery -addr http://127.0.0.1:8080 -stmt gifts -problem decide -bound 2
//	divquery -addr http://127.0.0.1:8080 -stmt gifts -refresh
//	divquery -addr http://127.0.0.1:8080 -metrics
//	divquery -addr http://127.0.0.1:8080 -health
//
// Flags:
//
//	-addr URL        server base URL (default http://127.0.0.1:8080)
//	-stmt NAME       statement to query or refresh
//	-problem P       diversify | decide | count | in-top-r | rank
//	-k N             per-request selection size override
//	-lambda X        per-request λ override
//	-objective F     per-request objective override
//	-algorithm A     per-request algorithm override
//	-bound B         objective bound for decide/count
//	-rank R          rank threshold for in-top-r
//	-set JSON        candidate set for in-top-r/rank, as JSON rows of
//	                 attribute values in schema order, e.g.
//	                 '[["kite","toy",38],["scarf","fashion",30]]'
//	-explain         ask the server for the plan resolution report
//	-timeout D       per-request deadline, e.g. 10s
//	-refresh         refresh the statement instead of querying
//	-coreset         fetch the statement's shard-local k′-coreset (the
//	                 cluster merge payload) instead of querying
//	-slack N         coreset budget k′ = k + N (with -coreset; negative =
//	                 server default of k)
//	-metrics         print the service counters
//	-health          probe /healthz (prints "ok" or "degraded")
//	-json            print the raw JSON response instead of a summary
//	-retries N       max attempts for retryable failures (default 3)
//	-hedge P         hedge slow idempotent calls at latency percentile P
//
// Degraded responses — the server abandoned an exact route under deadline
// pressure — are flagged on their own output line (and carried in the
// degraded/degraded_from fields of -json output). Client-side retries and
// hedges are reported on stderr so stdout stays the pure response.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"

	"repro/httpapi"
)

func main() {
	var (
		addr      = flag.String("addr", "http://127.0.0.1:8080", "server base URL")
		stmt      = flag.String("stmt", "", "statement to query or refresh")
		problem   = flag.String("problem", "", "diversify | decide | count | in-top-r | rank")
		k         = flag.Int("k", 0, "per-request selection size override")
		lambda    = flag.Float64("lambda", 0, "per-request λ override")
		objName   = flag.String("objective", "", "per-request objective override")
		algName   = flag.String("algorithm", "", "per-request algorithm override")
		bound     = flag.Float64("bound", 0, "objective bound for decide/count")
		rank      = flag.Int("rank", 0, "rank threshold for in-top-r")
		setJSON   = flag.String("set", "", "candidate set for in-top-r/rank, as JSON rows")
		doExplain = flag.Bool("explain", false, "ask the server for the plan resolution report")
		timeout   = flag.Duration("timeout", 30*time.Second, "per-request deadline")
		doRefresh = flag.Bool("refresh", false, "refresh the statement instead of querying")
		doCoreset = flag.Bool("coreset", false, "fetch the statement's shard-local coreset instead of querying")
		slack     = flag.Int("slack", -1, "coreset budget k' = k + N (with -coreset; negative = server default)")
		doMetrics = flag.Bool("metrics", false, "print the service counters")
		doHealth  = flag.Bool("health", false, "probe /healthz")
		rawJSON   = flag.Bool("json", false, "print the raw JSON response")
		retries   = flag.Int("retries", 0, "max attempts for retryable failures (0 = client default of 3)")
		hedge     = flag.Float64("hedge", 0, "hedge slow idempotent calls at this latency percentile in (0,1); 0 = off")
	)
	flag.Parse()

	client := &httpapi.Client{
		BaseURL:         *addr,
		Retry:           httpapi.RetryPolicy{MaxAttempts: *retries},
		HedgePercentile: *hedge,
	}
	statsClient = client
	defer reportStats()
	ctx, cancel := context.WithTimeout(context.Background(), *timeout)
	defer cancel()

	switch {
	case *doHealth:
		h, err := client.Health(ctx)
		if err != nil {
			fatalf("%v", err)
		}
		fmt.Println(h.Status)
	case *doMetrics:
		m, err := client.Metrics(ctx)
		if err != nil {
			fatalf("%v", err)
		}
		printJSON(m)
	case *doRefresh:
		if *stmt == "" {
			fatalf("need -stmt")
		}
		info, err := client.Refresh(ctx, *stmt)
		if err != nil {
			fatalf("%v", err)
		}
		printJSON(info)
	case *doCoreset:
		if *stmt == "" {
			fatalf("need -stmt")
		}
		cr := httpapi.CoresetRequest{}
		flag.Visit(func(f *flag.Flag) {
			switch f.Name {
			case "k":
				cr.K = k
			case "lambda":
				cr.Lambda = lambda
			case "objective":
				cr.Objective = objName
			}
		})
		if *slack >= 0 {
			cr.Slack = slack
		}
		cs, err := client.Coreset(ctx, *stmt, cr)
		if err != nil {
			fatalf("%v", err)
		}
		if *rawJSON {
			printJSON(cs)
			return
		}
		fmt.Printf("coreset k=%d k'=%d %s λ=%g: %d of %d answers, generation %d\n",
			cs.K, cs.KPrime, cs.Objective, cs.Lambda, len(cs.Rows), cs.Answers, cs.Generation)
		for i, row := range cs.Rows {
			vals, _ := json.Marshal(row)
			fmt.Printf("  %s score=%g\n", vals, cs.Scores[i])
		}
	default:
		if *stmt == "" {
			fatalf("need -stmt (or -metrics/-health)")
		}
		qr := httpapi.QueryRequest{Problem: *problem, Explain: *doExplain}
		if *setJSON != "" {
			if err := json.Unmarshal([]byte(*setJSON), &qr.Set); err != nil {
				fatalf("bad -set: %v", err)
			}
		}
		// Overrides are sent exactly when their flag was given — no value
		// sentinels, so -k 0 or -lambda 0 are real overrides.
		flag.Visit(func(f *flag.Flag) {
			switch f.Name {
			case "k":
				qr.K = k
			case "lambda":
				qr.Lambda = lambda
			case "objective":
				qr.Objective = objName
			case "algorithm":
				qr.Algorithm = algName
			case "bound":
				qr.Bound = bound
			case "rank":
				qr.Rank = rank
			}
		})
		resp, err := client.Query(ctx, *stmt, qr)
		if err != nil {
			fatalf("%v", err)
		}
		if *rawJSON {
			printJSON(resp)
			return
		}
		fmt.Printf("problem=%s route=%s generation=%d elapsed=%s\n",
			resp.Problem, resp.Route, resp.Generation, resp.Elapsed)
		if resp.Degraded {
			fmt.Printf("degraded: %s abandoned under deadline pressure; answer is approximate\n", resp.DegradedFrom)
		}
		if resp.Explain != "" {
			fmt.Print(resp.Explain)
		}
		switch {
		case resp.Selection != nil:
			fmt.Printf("selected %d rows (%s, F = %.4f):\n",
				len(resp.Selection.Rows), resp.Selection.Method, resp.Selection.Value)
			for _, r := range resp.Selection.Rows {
				vals, _ := json.Marshal(r)
				fmt.Printf("  %s\n", vals)
			}
		case resp.Count != nil:
			fmt.Printf("count = %s\n", resp.Count)
		case resp.Problem.String() == "decide":
			fmt.Printf("exists = %v\n", resp.Decided())
		case resp.Problem.String() == "in-top-r":
			fmt.Printf("in top r = %v\n", resp.TopR())
		case resp.Problem.String() == "rank":
			fmt.Printf("rank = %d\n", resp.Rank)
		}
	}
}

func printJSON(v interface{}) {
	out, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		fatalf("%v", err)
	}
	fmt.Println(string(out))
}

// statsClient lets fatalf report retry/hedge counts on the failure path
// too — os.Exit skips main's deferred report.
var statsClient *httpapi.Client

// reportStats prints the client's resilience interventions to stderr, so
// stdout stays the pure response (and transcripts stay byte-stable).
func reportStats() {
	if statsClient == nil {
		return
	}
	if st := statsClient.Stats(); st.Retries > 0 || st.Hedges > 0 {
		fmt.Fprintf(os.Stderr, "divquery: client retries=%d hedges=%d\n", st.Retries, st.Hedges)
	}
}

func fatalf(format string, args ...interface{}) {
	reportStats()
	fmt.Fprintf(os.Stderr, "divquery: "+format+"\n", args...)
	os.Exit(1)
}
