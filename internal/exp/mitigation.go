package exp

import (
	"fmt"
	"strings"

	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/workload"
)

// MitigationOutcome is one measured policy in a workload's report row,
// ranked by DeltaIPC.
type MitigationOutcome struct {
	// Name and Description identify the Perturbation.
	Name        string `json:"name"`
	Description string `json:"description"`
	// IPC is the measured IPC under the policy; DeltaIPC the change
	// over baseline.
	IPC      float64 `json:"ipc"`
	DeltaIPC float64 `json:"delta_ipc"`
	// Dominant is the dominant stall cause under the policy.
	Dominant string `json:"dominant"`
	// ShiftCause is the stall cause whose share of the breakdown moved
	// most versus baseline, and ShiftPP that movement in percentage
	// points (signed: positive means the policy pushed cycles toward
	// the cause).
	ShiftCause string  `json:"shift_cause"`
	ShiftPP    float64 `json:"shift_pp"`
}

// MitigationRow is one workload's verdict: its baseline, what it is
// bound by, and every policy intervention ranked by IPC recovered.
type MitigationRow struct {
	RankedBaseline
	Policies []MitigationOutcome `json:"policies"`
}

// MitigationReport is the mitigation sweep's answer over a set of
// workloads: for each one, which policy buys back IPC and where its
// cycles moved in the stall breakdown.
type MitigationReport struct {
	Warmup int64           `json:"warmup_cycles"`
	Window int64           `json:"window_cycles"`
	Rows   []MitigationRow `json:"rows"`
}

// BuildMitigationReport assembles the mitigation report from rows
// measured over the given policy variants. It is the mitigation
// sweep's pure merge half, shared by local runs and the
// internal/fabric coordinator so a fleet-merged report is
// byte-identical to a local one.
func BuildMitigationReport(specs []workload.Spec, variants []Perturbation, p RunParams, rows VariantRows) MitigationReport {
	heads, ranked := rankVariants(specs, variants, rows, mitigationOutcome, mitigationFirst)
	rep := MitigationReport{Warmup: p.WarmupCycles, Window: p.WindowCycles,
		Rows: make([]MitigationRow, len(specs))}
	for i := range specs {
		rep.Rows[i] = MitigationRow{RankedBaseline: heads[i], Policies: ranked[i]}
	}
	return rep
}

// mitigationOutcome is one policy's result against its workload's
// baseline: the IPC recovered and where the stall breakdown moved.
func mitigationOutcome(m Perturbation, base, r sim.Results) MitigationOutcome {
	cause, pp := largestShift(base.Stalls, r.Stalls)
	return MitigationOutcome{
		Name:        m.Name,
		Description: m.Description,
		IPC:         r.IPC,
		DeltaIPC:    r.IPC - base.IPC,
		Dominant:    r.Stalls.Dominant().String(),
		ShiftCause:  cause.String(),
		ShiftPP:     pp,
	}
}

// mitigationFirst ranks by IPC recovered; ties break on name so the
// order is a total one and the report deterministic.
func mitigationFirst(a, b MitigationOutcome) bool {
	if a.DeltaIPC != b.DeltaIPC {
		return a.DeltaIPC > b.DeltaIPC
	}
	return a.Name < b.Name
}

// largestShift finds the stall cause whose share of the breakdown
// moved most between the baseline and mitigated runs, in signed
// percentage points. Ties keep the lowest cause index, so the answer
// is deterministic.
func largestShift(base, mit stats.StallBreakdown) (stats.StallCause, float64) {
	best, bestPP := stats.StallCause(0), 0.0
	for c := stats.StallCause(0); c < stats.NumStallCauses; c++ {
		pp := (mit.Frac(c) - base.Frac(c)) * 100
		if abs(pp) > abs(bestPP) {
			best, bestPP = c, pp
		}
	}
	return best, bestPP
}

func abs(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}

// String renders the mitigation verdict: one section per workload with
// its policies ranked by IPC recovered.
func (r MitigationReport) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "mitigation policies — IPC recovered and stall-share shift (%d-cycle window after %d warm-up)\n",
		r.Window, r.Warmup)
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "\n%s — baseline IPC %.3f, bound by %s\n", row.Workload, row.BaselineIPC, row.Dominant)
		for i, o := range row.Policies {
			fmt.Fprintf(&b, "  %2d. %-9s IPC %7.3f  dIPC %+7.3f  now bound by %-10s  shift %-10s %+6.1fpp  %s\n",
				i+1, o.Name, o.IPC, o.DeltaIPC, o.Dominant, o.ShiftCause, o.ShiftPP, o.Description)
		}
	}
	b.WriteString("\n(policies are zero-silicon-cost config knobs; shift = the stall cause\n" +
		" whose share of the breakdown moved most, signed toward the mitigated run)\n")
	return b.String()
}

// CSV renders the mitigation report as comma-separated values, one
// line per (workload, policy) in ranked order.
func (r MitigationReport) CSV() string {
	var b strings.Builder
	b.WriteString("workload,baseline_ipc,bound,rank,policy,ipc,delta_ipc,now_bound,shift_cause,shift_pp\n")
	for _, row := range r.Rows {
		for i, o := range row.Policies {
			fmt.Fprintf(&b, "%s,%.4f,%s,%d,%s,%.4f,%.4f,%s,%s,%.2f\n",
				row.Workload, row.BaselineIPC, row.Dominant, i+1,
				o.Name, o.IPC, o.DeltaIPC, o.Dominant, o.ShiftCause, o.ShiftPP)
		}
	}
	return b.String()
}
