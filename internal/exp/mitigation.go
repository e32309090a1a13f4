package exp

import (
	"fmt"
	"sort"
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
	Workload    string  `json:"workload"`
	BaselineIPC float64 `json:"baseline_ipc"`
	// Dominant is the baseline's dominant stall cause label.
	Dominant string              `json:"dominant"`
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

// BuildMitigationReport assembles the mitigation report from
// already-measured grid results laid out as VariantGrid produces them
// over Mitigations(): for specs[i], res[i*(1+M)] is the baseline and
// the following M entries are the mitigations in order. It is the
// mitigation sweep's pure merge half, shared by local runs and the
// internal/fabric coordinator so a fleet-merged report is
// byte-identical to a local one.
func BuildMitigationReport(specs []workload.Spec, p RunParams, res []sim.Results) (MitigationReport, error) {
	mits := Mitigations()
	bases, vres, err := variantRows("mitigation", specs, len(mits), res)
	if err != nil {
		return MitigationReport{}, err
	}
	rep := MitigationReport{Warmup: p.WarmupCycles, Window: p.WindowCycles,
		Rows: make([]MitigationRow, len(specs))}
	for i, sp := range specs {
		baseRes := bases[i]
		row := MitigationRow{
			Workload:    sp.SpecName,
			BaselineIPC: baseRes.IPC,
			Dominant:    baseRes.Stalls.Dominant().String(),
			Policies:    make([]MitigationOutcome, len(mits)),
		}
		for j, m := range mits {
			r := vres[i][j]
			cause, pp := largestShift(baseRes.Stalls, r.Stalls)
			row.Policies[j] = MitigationOutcome{
				Name:        m.Name,
				Description: m.Description,
				IPC:         r.IPC,
				DeltaIPC:    r.IPC - baseRes.IPC,
				Dominant:    r.Stalls.Dominant().String(),
				ShiftCause:  cause.String(),
				ShiftPP:     pp,
			}
		}
		// Rank by IPC recovered; ties break on name so the order is a
		// total one and the report deterministic.
		sort.SliceStable(row.Policies, func(a, b int) bool {
			pa, pb := row.Policies[a], row.Policies[b]
			if pa.DeltaIPC != pb.DeltaIPC {
				return pa.DeltaIPC > pb.DeltaIPC
			}
			return pa.Name < pb.Name
		})
		rep.Rows[i] = row
	}
	return rep, nil
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
