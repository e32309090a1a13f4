package exp

import (
	"fmt"
	"strings"

	"repro/internal/config"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/workload"
)

// OccupancyRow is one benchmark's §III queue-congestion measurement.
type OccupancyRow struct {
	Workload string `json:"workload"`
	// L2AccessFull is the fraction of the L2 access queues' usage
	// lifetime during which they were full (paper average: 46%).
	L2AccessFull float64 `json:"l2_access_full"`
	// DRAMSchedFull is the same for the DRAM scheduler queues (paper
	// average: 39%).
	DRAMSchedFull float64 `json:"dram_sched_full"`
	// Supporting occupancy detail.
	L2AccessMeanOcc  float64 `json:"l2_access_mean_occ"`
	DRAMSchedMeanOcc float64 `json:"dram_sched_mean_occ"`
	AvgMissLatency   float64 `json:"avg_miss_latency"`
}

// OccupancyReport is the §III measurement over a suite.
type OccupancyReport struct {
	// L2AccessCapacity and DRAMSchedCapacity are the measured
	// config's queue depths, the denominators of the detail block's
	// mean occupancies.
	L2AccessCapacity  int            `json:"l2_access_capacity"`
	DRAMSchedCapacity int            `json:"dram_sched_capacity"`
	Rows              []OccupancyRow `json:"rows"`
	// MeanL2AccessFull and MeanDRAMSchedFull are the suite averages
	// the paper reports (46% and 39%).
	MeanL2AccessFull  float64 `json:"mean_l2_access_full"`
	MeanDRAMSchedFull float64 `json:"mean_dram_sched_full"`

	// arch is config.Architecture of the measured config. It is not
	// served, so a report decoded from JSON has a title without it.
	arch string
}

// BuildOccupancyReport assembles §III from one result per spec,
// measured on cfg. It is the occupancy sweep's pure merge half.
func BuildOccupancyReport(cfg config.Config, specs []workload.Spec, res []sim.Results) OccupancyReport {
	rep := OccupancyReport{
		L2AccessCapacity:  cfg.L2.AccessQueue,
		DRAMSchedCapacity: cfg.DRAM.SchedQueue,
		Rows:              make([]OccupancyRow, len(specs)),
		arch:              config.Architecture(cfg),
	}
	l2s := make([]float64, len(specs))
	drams := make([]float64, len(specs))
	for i, sp := range specs {
		r := res[i]
		rep.Rows[i] = OccupancyRow{
			Workload:         sp.SpecName,
			L2AccessFull:     r.L2AccessQueue.FullOfUsage,
			DRAMSchedFull:    r.DRAMSchedQueue.FullOfUsage,
			L2AccessMeanOcc:  r.L2AccessQueue.MeanOccupancy,
			DRAMSchedMeanOcc: r.DRAMSchedQueue.MeanOccupancy,
			AvgMissLatency:   r.AvgMissLatency,
		}
		l2s[i], drams[i] = r.L2AccessQueue.FullOfUsage, r.DRAMSchedQueue.FullOfUsage
	}
	rep.MeanL2AccessFull = stats.Mean(l2s)
	rep.MeanDRAMSchedFull = stats.Mean(drams)
	return rep
}

// String renders the §III table, titled with the measured
// architecture when the report was built rather than decoded, then each benchmark's mean queue occupancy against the
// queue's capacity.
func (r OccupancyReport) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "§III — queue full-of-usage occupancy")
	if r.arch != "" {
		fmt.Fprintf(&b, " (%s architecture)", r.arch)
	}
	fmt.Fprintf(&b, "\n\n")
	fmt.Fprintf(&b, "%-10s %14s %15s %12s\n", "bench", "L2-access-full", "DRAM-sched-full", "avg-miss-lat")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-10s %13.0f%% %14.0f%% %12.0f\n",
			row.Workload, row.L2AccessFull*100, row.DRAMSchedFull*100, row.AvgMissLatency)
	}
	fmt.Fprintf(&b, "%-10s %13.0f%% %14.0f%%   (paper: 46%% / 39%%)\n",
		"average", r.MeanL2AccessFull*100, r.MeanDRAMSchedFull*100)
	fmt.Fprintf(&b, "\nper-benchmark detail (mean occupancy / capacity)\n")
	fmt.Fprintf(&b, "%-10s %18s %18s\n", "bench", "L2-access", "DRAM-sched")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-10s %13.1f / %d %13.1f / %d\n",
			row.Workload, row.L2AccessMeanOcc, r.L2AccessCapacity, row.DRAMSchedMeanOcc, r.DRAMSchedCapacity)
	}
	return b.String()
}
