// Command divbench regenerates the tables and figures of Deng & Fan,
// "On the Complexity of Query Result Diversification" (VLDB 2013 / TODS
// 2014), and runs the empirical scaling sweeps that compare observed growth
// against the proved complexity bounds.
//
// Usage:
//
//	divbench -table I            # render Table I (complexity matrix)
//	divbench -table all          # render Tables I, II and III
//	divbench -figure 2           # render a figure (1-5)
//	divbench -sweep              # run every experiment in the catalog
//	divbench -sweep -match RDC   # run experiments whose ID contains "RDC"
//	divbench -budget 2s          # per-size time budget for sweeps
//	divbench -list               # list the experiment catalog
//	divbench -cache-replay       # result cache vs a zipfian statement replay
//	divbench -cache-replay -requests 2000 -shapes 16 -zipf-s 1.3
//	divbench -plane-regimes      # plane storage regimes vs n (matrix/index/memo)
//	divbench -plane-regimes -regime-max-n 20000
//	divbench -cluster            # sharded coreset merge vs a single engine
//	divbench -cluster -cluster-max-n 10000
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/reduction"
)

func main() {
	var (
		table  = flag.String("table", "", "render a paper table: I, II, III or all")
		figure = flag.String("figure", "", "render a paper figure: 1, 2, 3, 4, 5 or all")
		sweep  = flag.Bool("sweep", false, "run the empirical scaling sweeps")
		match  = flag.String("match", "", "substring filter for sweep experiment IDs")
		budget = flag.Duration("budget", 2*time.Second, "per-size time budget for sweeps")
		list   = flag.Bool("list", false, "list the experiment catalog and exit")

		planeRegimes = flag.Bool("plane-regimes", false, "time the score plane the planner picks (build, greedy FMS/FMM, bytes) over growing point sets")
		regimeMaxN   = flag.Int("regime-max-n", 100_000, "plane-regimes: largest point count in the sweep")

		clusterSweep = flag.Bool("cluster", false, "benchmark the sharded coreset-merge cluster against a single engine")
		clusterMaxN  = flag.Int("cluster-max-n", 100_000, "cluster: largest candidate count in the sweep")

		cacheReplay = flag.Bool("cache-replay", false, "measure the serving tier's result cache on a zipfian statement replay")
		replayReq   = flag.Int("requests", 2000, "cache-replay: requests in the stream")
		replayShp   = flag.Int("shapes", 16, "cache-replay: distinct request shapes")
		replayZipf  = flag.Float64("zipf-s", 1.3, "cache-replay: zipf skew over the shapes (<=1 = uniform)")
		replaySeed  = flag.Int64("seed", 1, "cache-replay: random seed")
	)
	flag.Parse()

	ran := false
	if *planeRegimes {
		runPlaneSweep(*regimeMaxN, *replaySeed)
		ran = true
	}
	if *clusterSweep {
		runClusterSweep(*clusterMaxN, *replaySeed)
		ran = true
	}
	if *cacheReplay {
		runCacheReplay(*replayReq, *replayShp, *replayZipf, *replaySeed)
		ran = true
	}
	if *list {
		listCatalog()
		ran = true
	}
	if *table != "" {
		renderTables(*table)
		ran = true
	}
	if *figure != "" {
		renderFigures(*figure)
		ran = true
	}
	if *sweep {
		runSweeps(*match, *budget)
		ran = true
	}
	if !ran {
		flag.Usage()
		os.Exit(2)
	}
}

func listCatalog() {
	fmt.Println("Experiment catalog (use -sweep -match <substring> to run a subset):")
	for _, e := range bench.Catalog() {
		fmt.Printf("  [Table %-8s] %-40s %s\n", e.Table, e.ID, e.Setting)
	}
}

func renderTables(which string) {
	w := strings.ToUpper(which)
	if w == "ALL" {
		w = "I II III"
	}
	for _, t := range strings.Fields(w) {
		switch t {
		case "I":
			fmt.Println(bench.RenderTableI())
		case "II":
			fmt.Println(bench.RenderTableII())
		case "III":
			fmt.Println(bench.RenderTableIII())
		default:
			fmt.Fprintf(os.Stderr, "divbench: unknown table %q (want I, II, III or all)\n", t)
			os.Exit(2)
		}
	}
}

func renderFigures(which string) {
	w := strings.ToLower(which)
	if w == "all" {
		w = "1 2 3 4 5"
	}
	for _, f := range strings.Fields(w) {
		switch f {
		case "1":
			fmt.Println(bench.RenderFigure(core.QRD))
		case "2":
			fmt.Println(renderFigure2())
		case "3":
			fmt.Println(bench.RenderFigure(core.DRP))
		case "4":
			fmt.Println(bench.RenderFigure(core.RDC))
		case "5":
			fmt.Println(renderFigure5())
		default:
			fmt.Fprintf(os.Stderr, "divbench: unknown figure %q (want 1-5 or all)\n", f)
			os.Exit(2)
		}
	}
}

// renderFigure2 reproduces the paper's Figure 2: the inductive distance
// function δdis of Lemma 5.3 for ϕ = ∃x1∀x2∃x3∀x4 ψ with
// ψ = (x1∨x2∨¬x3)∧(¬x2∨¬x3∨x4), evaluated on the 16 Boolean tuples
// t1..t16.
func renderFigure2() string {
	var b strings.Builder
	q := reduction.Figure2QBF()
	pd := reduction.NewPrefixDistance(q)
	b.WriteString("Figure 2: example distance function δdis (m = 4), Lemma 5.3\n")
	b.WriteString("ϕ = ∃x1∀x2∃x3∀x4 ψ, ψ = (x1 ∨ x2 ∨ ¬x3) ∧ (¬x2 ∨ ¬x3 ∨ x4)\n\n")
	b.WriteString("     ")
	for j := 1; j <= 16; j++ {
		fmt.Fprintf(&b, "t%-3d", j)
	}
	b.WriteString("\n")
	for i := 1; i <= 16; i++ {
		fmt.Fprintf(&b, "t%-3d ", i)
		for j := 1; j <= 16; j++ {
			d := pd.Dis(reduction.Figure2Tuple(i), reduction.Figure2Tuple(j))
			fmt.Fprintf(&b, "%-4.0f", d)
		}
		b.WriteString("\n")
	}
	b.WriteString("\nPaper's spot checks (levels l = 3, 2, 1, 0):\n")
	checks := []struct {
		i, j int
		want float64
	}{
		{1, 2, 0}, {3, 4, 1}, {5, 6, 1}, {7, 8, 1},
		{9, 10, 0}, {11, 12, 1}, {13, 14, 0}, {15, 16, 1},
		{1, 8, 1}, {9, 16, 1},
	}
	for _, c := range checks {
		got := pd.Dis(reduction.Figure2Tuple(c.i), reduction.Figure2Tuple(c.j))
		status := "✓"
		if got != c.want {
			status = "✗"
		}
		fmt.Fprintf(&b, "  δdis(t%d, t%d) = %.0f (paper: %.0f) %s\n", c.i, c.j, got, c.want, status)
	}
	return b.String()
}

// renderFigure5 reproduces the paper's Figure 5: the Boolean gadget
// relations I01, I∨, I∧ and I¬ used in the Theorem 7.1/7.2 lower-bound
// constructions.
func renderFigure5() string {
	var b strings.Builder
	b.WriteString("Figure 5: gadget relations used in the Theorem 7.1/7.2 reductions\n\n")
	db := reduction.GadgetDatabase()
	for _, name := range db.Names() {
		b.WriteString(db.Relation(name).String())
		b.WriteString("\n")
	}
	return b.String()
}

func runSweeps(match string, budget time.Duration) {
	exps := bench.Catalog()
	ran := 0
	for _, e := range exps {
		if match != "" && !strings.Contains(e.ID, match) && !strings.Contains(e.Table, match) {
			continue
		}
		res := e.Execute(budget)
		fmt.Print(bench.RenderResult(res))
		fmt.Println()
		ran++
	}
	if ran == 0 {
		fmt.Fprintf(os.Stderr, "divbench: no experiments match %q\n", match)
		os.Exit(1)
	}
	fmt.Printf("ran %d experiments\n", ran)
}
