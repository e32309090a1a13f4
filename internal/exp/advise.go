package exp

import (
	"fmt"
	"slices"
	"strings"

	"repro/internal/sim"
	"repro/internal/workload"
)

// AdviseOutcome is one measured intervention in a workload's report
// row, ranked by Score.
type AdviseOutcome struct {
	// Name and Description identify the Perturbation.
	Name        string `json:"name"`
	Description string `json:"description"`
	// Targeted reports whether the intervention's target causes include
	// the workload's dominant stall cause.
	Targeted bool `json:"targeted"`
	// Cost is the intervention's relative hardware cost; IPC the
	// measured IPC under it; DeltaIPC the recovery over baseline; Score
	// the ranking key DeltaIPC/Cost.
	Cost     float64 `json:"cost"`
	IPC      float64 `json:"ipc"`
	DeltaIPC float64 `json:"delta_ipc"`
	Score    float64 `json:"score"`
}

// AdviseRow is one workload's advisor verdict: its baseline, what it
// is bound by, and every intervention ranked by IPC recovered per unit
// of cost.
type AdviseRow struct {
	RankedBaseline
	Interventions []AdviseOutcome `json:"interventions"`
}

// AdviseReport is the what-if advisor's answer over a set of
// workloads: for each one, which intervention buys back the most IPC
// per unit of added hardware.
type AdviseReport struct {
	Warmup int64       `json:"warmup_cycles"`
	Window int64       `json:"window_cycles"`
	Rows   []AdviseRow `json:"rows"`
}

// BuildAdviseReport assembles the advisor report from rows measured
// over the given variant set. It is the advise sweep's pure merge
// half, shared by local runs and the internal/fabric coordinator so a
// fleet-merged report is byte-identical to a local one.
func BuildAdviseReport(specs []workload.Spec, variants []Perturbation, p RunParams, rows VariantRows) AdviseReport {
	heads, ranked := rankVariants(specs, variants, rows, adviseOutcome, adviseFirst)
	rep := AdviseReport{Warmup: p.WarmupCycles, Window: p.WindowCycles,
		Rows: make([]AdviseRow, len(specs))}
	for i := range specs {
		rep.Rows[i] = AdviseRow{RankedBaseline: heads[i], Interventions: ranked[i]}
	}
	return rep
}

// adviseOutcome is one intervention's result against its workload's
// baseline, scored by IPC recovered per unit of cost.
func adviseOutcome(pt Perturbation, base, r sim.Results) AdviseOutcome {
	out := AdviseOutcome{
		Name:        pt.Name,
		Description: pt.Description,
		Cost:        pt.Cost,
		IPC:         r.IPC,
		DeltaIPC:    r.IPC - base.IPC,
	}
	out.Score = out.DeltaIPC / pt.Cost
	out.Targeted = slices.Contains(pt.Targets, base.Stalls.Dominant())
	return out
}

// adviseFirst is the advisor's ranking, the report's whole point: score
// descending, cheaper first on ties, name as the final total order.
func adviseFirst(a, b AdviseOutcome) bool {
	if a.Score != b.Score {
		return a.Score > b.Score
	}
	if a.Cost != b.Cost {
		return a.Cost < b.Cost
	}
	return a.Name < b.Name
}

// String renders the advisor's verdict: one section per workload with
// its interventions ranked by IPC recovered per unit of cost.
func (r AdviseReport) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "what-if advisor — IPC recovered per unit of added hardware (%d-cycle window after %d warm-up)\n",
		r.Window, r.Warmup)
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "\n%s — baseline IPC %.3f, bound by %s\n", row.Workload, row.BaselineIPC, row.Dominant)
		for i, o := range row.Interventions {
			mark := " "
			if o.Targeted {
				mark = "*"
			}
			fmt.Fprintf(&b, "  %2d. %-8s %s IPC %7.3f  dIPC %+7.3f  cost %5.2f  score %+7.3f  %s\n",
				i+1, o.Name, mark, o.IPC, o.DeltaIPC, o.Cost, o.Score, o.Description)
		}
	}
	b.WriteString("\n(score = IPC recovered / cost, cost in rough relative silicon units;\n" +
		" * = the intervention targets the workload's dominant stall cause)\n")
	return b.String()
}

// CSV renders the advisor report as comma-separated values, one line
// per (workload, intervention) in ranked order.
func (r AdviseReport) CSV() string {
	var b strings.Builder
	b.WriteString("workload,baseline_ipc,bound,rank,intervention,targeted,ipc,delta_ipc,cost,score\n")
	for _, row := range r.Rows {
		for i, o := range row.Interventions {
			fmt.Fprintf(&b, "%s,%.4f,%s,%d,%s,%t,%.4f,%.4f,%.2f,%.4f\n",
				row.Workload, row.BaselineIPC, row.Dominant, i+1,
				o.Name, o.Targeted, o.IPC, o.DeltaIPC, o.Cost, o.Score)
		}
	}
	return b.String()
}
