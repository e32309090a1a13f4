package exp

import (
	"fmt"
	"strings"

	"repro/internal/config"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/workload"
)

// BottleneckRow is one workload's stall stack: every issue slot of
// the measurement window (cycles × SMs) attributed to one cause, plus
// the per-level back-pressure fractions the attribution composes with.
type BottleneckRow struct {
	Workload string
	IPC      float64
	// Cycles is the window length; SMs the core count, so
	// Stalls.Total() == Cycles × SMs (enforced by test).
	Cycles int64
	SMs    int
	Stalls stats.StallBreakdown
	Back   sim.BackPressure
}

// BottleneckReport is the "where do the cycles go" characterization
// over a set of workloads — the paper's central question, answered as
// a per-workload stall stack.
type BottleneckReport struct {
	Warmup, Window int64
	Rows           []BottleneckRow
}

// BuildBottleneckReport assembles the breakdown report from
// already-measured results, res[i] belonging to specs[i]. It is the
// bottleneck sweep's pure merge half.
func BuildBottleneckReport(base config.Config, specs []workload.Spec, p RunParams, res []sim.Results) BottleneckReport {
	rep := BottleneckReport{Warmup: p.WarmupCycles, Window: p.WindowCycles,
		Rows: make([]BottleneckRow, len(specs))}
	for i, sp := range specs {
		rep.Rows[i] = BottleneckRow{
			Workload: sp.SpecName,
			IPC:      res[i].IPC,
			Cycles:   res[i].Cycles,
			SMs:      base.Core.NumSMs,
			Stalls:   res[i].Stalls,
			Back:     res[i].BackPressure,
		}
	}
	return rep
}

// String renders the per-workload stall stacks as one table: each
// cause's share of the workload's issue slots, the dominant cause,
// and the levels' back-pressure fractions.
func (r BottleneckReport) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "bottleneck breakdown — stall-cycle attribution (%% of issue slots, %d-cycle window after %d warm-up)\n\n",
		r.Window, r.Warmup)
	fmt.Fprintf(&b, "%-10s %7s", "workload", "IPC")
	for c := stats.StallCause(0); c < stats.NumStallCauses; c++ {
		fmt.Fprintf(&b, " %10s", c)
	}
	fmt.Fprintf(&b, "  %-10s %s\n", "bound", "icnt/L2/DRAM-full")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-10s %7.3f", row.Workload, row.IPC)
		for c := stats.StallCause(0); c < stats.NumStallCauses; c++ {
			fmt.Fprintf(&b, " %9.1f%%", row.Stalls.Frac(c)*100)
		}
		fmt.Fprintf(&b, "  %-10s %3.0f%%/%3.0f%%/%3.0f%%\n", row.Stalls.Dominant(),
			row.Back.ReqIcntInFull*100, row.Back.L2AccessInFull*100, row.Back.DRAMSchedInFull*100)
	}
	b.WriteString("\n(one cause per SM-cycle; l1-miss/icnt/l2-queue/dram-queue split memory waits\n" +
		" by the deepest saturated level; full% = fraction of each level's cycles its\n" +
		" input queue stalled the upstream)\n")
	return b.String()
}

// CSV renders the breakdown as comma-separated values.
func (r BottleneckReport) CSV() string {
	var b strings.Builder
	b.WriteString("workload,ipc,issue_slots")
	for c := stats.StallCause(0); c < stats.NumStallCauses; c++ {
		fmt.Fprintf(&b, ",%s", strings.ReplaceAll(c.String(), "-", "_"))
	}
	b.WriteString(",bound,icnt_req_in_full,icnt_resp_in_full,l2_access_in_full,dram_sched_in_full\n")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%s,%.4f,%d", row.Workload, row.IPC, row.Stalls.Total())
		for c := stats.StallCause(0); c < stats.NumStallCauses; c++ {
			fmt.Fprintf(&b, ",%.4f", row.Stalls.Frac(c))
		}
		fmt.Fprintf(&b, ",%s,%.4f,%.4f,%.4f,%.4f\n", row.Stalls.Dominant(),
			row.Back.ReqIcntInFull, row.Back.RespIcntInFull,
			row.Back.L2AccessInFull, row.Back.DRAMSchedInFull)
	}
	return b.String()
}

// BatchStallReport renders the stall-stack section of each workload in
// a batch — what cmd/gpusim appends under -stalls, shared here so the
// CLI and library tests agree on the exact bytes.
func BatchStallReport(wls []workload.Workload, res []sim.Results) string {
	var b strings.Builder
	for i, wl := range wls {
		if i > 0 {
			b.WriteString("\n")
		}
		fmt.Fprintf(&b, "stall stack — %s\n\n", wl.Name())
		b.WriteString(res[i].StallString())
	}
	return b.String()
}
