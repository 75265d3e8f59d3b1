package bench

import (
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/objective"
	"repro/internal/query"
)

// problems in table order.
var tableProblems = []core.Problem{core.QRD, core.DRP, core.RDC}

// RenderTableI reproduces Table I: combined and data complexity of the
// three problems for FMS/FMM versus Fmono across the query languages.
func RenderTableI() string {
	var b strings.Builder
	b.WriteString("Table I — combined complexity and data complexity\n\n")
	for _, half := range []bool{false, true} {
		if half {
			b.WriteString("\nData complexity\n")
		} else {
			b.WriteString("Combined complexity\n")
		}
		writeHeader(&b)
		for _, obj := range []struct {
			label string
			kind  objective.Kind
		}{{"FMS and FMM", objective.MaxSum}, {"Fmono", objective.Mono}} {
			row := make([]string, 0, len(tableProblems))
			// Languages with identical bounds collapse, as in the paper;
			// render one row per language group.
			groups := groupLanguages(obj.kind, half)
			for _, g := range groups {
				row = row[:0]
				for _, p := range tableProblems {
					bound, _ := ProvedBound(core.Setting{
						Problem: p, Language: g.rep, Objective: obj.kind, Data: half,
					})
					row = append(row, string(bound))
				}
				fmt.Fprintf(&b, "%-14s %-18s %-22s %-22s %-26s\n",
					obj.label, g.label, row[0], row[1], row[2])
			}
		}
	}
	return b.String()
}

type langGroup struct {
	label string
	rep   query.Language
}

// groupLanguages collapses language columns with identical bounds, echoing
// the paper's "CQ, UCQ, ∃FO+" vs "FO" rows.
func groupLanguages(kind objective.Kind, data bool) []langGroup {
	if data {
		return []langGroup{{"CQ,UCQ,∃FO+,FO", query.CQ}}
	}
	if kind == objective.Mono {
		return []langGroup{{"CQ,UCQ,∃FO+,FO", query.CQ}}
	}
	return []langGroup{
		{"CQ,UCQ,∃FO+", query.CQ},
		{"FO", query.FO},
	}
}

func writeHeader(b *strings.Builder) {
	fmt.Fprintf(b, "%-14s %-18s %-22s %-22s %-26s\n", "Objective", "Languages", "QRD", "DRP", "RDC")
}

// RenderTableII reproduces Table II: the special cases of Section 8.
func RenderTableII() string {
	type row struct {
		cond    string
		setting core.Setting
		kind    string // "Combined" or "Data"
	}
	rows := []row{
		{"identity queries; F=Fmono", core.Setting{Language: query.Identity, Objective: objective.Mono}, "Combined"},
		{"λ=0; F=FMS", core.Setting{Language: query.CQ, Objective: objective.MaxSum, Lambda0: true, Data: true}, "Data"},
		{"λ=0; F=FMM", core.Setting{Language: query.CQ, Objective: objective.MaxMin, Lambda0: true, Data: true}, "Data"},
		{"λ=0; CQ..∃FO+; F=Fmono", core.Setting{Language: query.CQ, Objective: objective.Mono, Lambda0: true}, "Combined"},
		{"constant k; any F", core.Setting{Language: query.CQ, Objective: objective.MaxSum, ConstantK: true, Data: true}, "Data"},
	}
	var b strings.Builder
	b.WriteString("Table II — special cases\n\n")
	fmt.Fprintf(&b, "%-26s %-10s %-14s %-14s %-26s\n", "Conditions", "Complexity", "QRD", "DRP", "RDC")
	for _, r := range rows {
		var cells []string
		for _, p := range tableProblems {
			s := r.setting
			s.Problem = p
			bound, _ := ProvedBound(s)
			cells = append(cells, string(bound))
		}
		fmt.Fprintf(&b, "%-26s %-10s %-14s %-14s %-26s\n", r.cond, r.kind, cells[0], cells[1], cells[2])
	}
	return b.String()
}

// RenderTableIII reproduces Table III: the cells whose complexity changes
// in the presence of compatibility constraints.
func RenderTableIII() string {
	type row struct {
		cond    string
		setting core.Setting
		kind    string
	}
	rows := []row{
		{"F=Fmono", core.Setting{Language: query.CQ, Objective: objective.Mono, Data: true, Constraints: true}, "Data"},
		{"identity; F=Fmono", core.Setting{Language: query.Identity, Objective: objective.Mono, Constraints: true}, "Comb/Data"},
		{"λ=0; any F", core.Setting{Language: query.CQ, Objective: objective.MaxSum, Lambda0: true, Data: true, Constraints: true}, "Data"},
		{"λ=1; F=Fmono", core.Setting{Language: query.CQ, Objective: objective.Mono, Lambda1: true, Data: true, Constraints: true}, "Data"},
	}
	var b strings.Builder
	b.WriteString("Table III — complexity in the presence of compatibility constraints\n\n")
	fmt.Fprintf(&b, "%-22s %-10s %-14s %-16s %-28s\n", "Conditions", "Complexity", "QRD", "DRP", "RDC")
	for _, r := range rows {
		var cells []string
		for _, p := range tableProblems {
			s := r.setting
			s.Problem = p
			bound, _ := ProvedBound(s)
			cells = append(cells, string(bound))
		}
		fmt.Fprintf(&b, "%-22s %-10s %-14s %-16s %-28s\n", r.cond, r.kind, cells[0], cells[1], cells[2])
	}
	return b.String()
}

// RenderFigure reproduces Figures 1 (QRD), 3 (DRP) and 4 (RDC): the
// bound map of one problem across settings, with the reduction arrows
// ("→" reads "restricting the setting lowers the complexity to").
func RenderFigure(p core.Problem) string {
	var b strings.Builder
	num := map[core.Problem]string{core.QRD: "1", core.DRP: "3", core.RDC: "4"}[p]
	fmt.Fprintf(&b, "Figure %s — the complexity bounds of %s\n\n", num, p)

	line := func(label string, s core.Setting) {
		s.Problem = p
		bound, thm := ProvedBound(s)
		fmt.Fprintf(&b, "  %-34s %-28s (%s)\n", label, string(bound), thm)
	}
	b.WriteString("(a) F is FMS or FMM\n")
	line("FO, combined", core.Setting{Language: query.FO, Objective: objective.MaxSum})
	line("CQ/∃FO+, combined", core.Setting{Language: query.CQ, Objective: objective.MaxSum})
	line("  ↓ fix the query", core.Setting{Language: query.CQ, Objective: objective.MaxSum, Data: true})
	line("  ↓ λ=0", core.Setting{Language: query.CQ, Objective: objective.MaxSum, Lambda0: true, Data: true})
	line("  ↓ constant k", core.Setting{Language: query.CQ, Objective: objective.MaxSum, ConstantK: true, Data: true})
	b.WriteString("\n(b) F is Fmono\n")
	line("CQ/FO, combined", core.Setting{Language: query.CQ, Objective: objective.Mono})
	line("  ↓ fix the query", core.Setting{Language: query.CQ, Objective: objective.Mono, Data: true})
	line("  ↓ identity queries", core.Setting{Language: query.Identity, Objective: objective.Mono})
	line("  ↓ λ=0, combined", core.Setting{Language: query.CQ, Objective: objective.Mono, Lambda0: true})
	return b.String()
}

// RenderResult formats one empirical result against its proved bound.
func RenderResult(r Result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-36s proved: %-26s [%s]\n", r.Experiment.ID, string(r.Bound), r.Theorem)
	fmt.Fprintf(&b, "    observed: %s", r.Fit)
	agree := "✓ shape agrees"
	switch {
	case r.Experiment.Table == "ablation":
		// Ablations compare algorithm variants, not a complexity bound.
		agree = "(ablation: bound comparison n/a)"
	case r.Bound.Tractable() != (r.Fit.Kind != Exponential):
		agree = "✗ shape disagrees"
	}
	fmt.Fprintf(&b, "  %s\n", agree)
	for _, m := range r.Series {
		fmt.Fprintf(&b, "      n=%-6d %10.4fms  work=%.0f\n", m.N, m.Secs*1000, m.Work)
	}
	return b.String()
}
