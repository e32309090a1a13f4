package exp

import (
	"fmt"
	"sort"
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
	Workload    string  `json:"workload"`
	BaselineIPC float64 `json:"baseline_ipc"`
	// Dominant is the baseline's dominant stall cause label — what the
	// workload is bound by, per the PR-4 attribution.
	Dominant      string          `json:"dominant"`
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

// BuildAdviseReport assembles the advisor report from already-measured
// grid results laid out as VariantGrid produces them for the same
// variant set: for specs[i], res[i*(1+V)] is the baseline and the
// following V entries are the variants in order. It is the advise
// sweep's pure merge half, shared by local runs and the
// internal/fabric coordinator so a fleet-merged report is
// byte-identical to a local one.
func BuildAdviseReport(specs []workload.Spec, variants []Perturbation, p RunParams, res []sim.Results) (AdviseReport, error) {
	bases, vres, err := variantRows("advise", specs, len(variants), res)
	if err != nil {
		return AdviseReport{}, err
	}
	rep := AdviseReport{Warmup: p.WarmupCycles, Window: p.WindowCycles,
		Rows: make([]AdviseRow, len(specs))}
	for i, sp := range specs {
		baseRes := bases[i]
		dominant := baseRes.Stalls.Dominant()
		row := AdviseRow{
			Workload:      sp.SpecName,
			BaselineIPC:   baseRes.IPC,
			Dominant:      dominant.String(),
			Interventions: make([]AdviseOutcome, len(variants)),
		}
		for j, pt := range variants {
			r := vres[i][j]
			out := AdviseOutcome{
				Name:        pt.Name,
				Description: pt.Description,
				Cost:        pt.Cost,
				IPC:         r.IPC,
				DeltaIPC:    r.IPC - baseRes.IPC,
			}
			out.Score = out.DeltaIPC / pt.Cost
			for _, c := range pt.Targets {
				if c == dominant {
					out.Targeted = true
					break
				}
			}
			row.Interventions[j] = out
		}
		// The ranking is the report's whole point, and it must be
		// fully deterministic: score descending, cheaper first on
		// ties, name as the final total order.
		sort.SliceStable(row.Interventions, func(a, b int) bool {
			ia, ib := row.Interventions[a], row.Interventions[b]
			if ia.Score != ib.Score {
				return ia.Score > ib.Score
			}
			if ia.Cost != ib.Cost {
				return ia.Cost < ib.Cost
			}
			return ia.Name < ib.Name
		})
		rep.Rows[i] = row
	}
	return rep, nil
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
