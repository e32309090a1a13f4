package exp

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/sim"
	"repro/internal/workload"
)

// BatchReport renders the full measurement report of a batch of
// simulations, one section per workload — the exact output of
// cmd/gpusim, shared with the golden-output tests so the CLI and the
// snapshot gate can never drift apart. arch names the measured
// architecture (config.Architecture: "baseline", a scaling set's label
// or "custom").
func BatchReport(arch string, warmup, window int64, wls []workload.Workload, res []sim.Results) string {
	var b strings.Builder
	for i, wl := range wls {
		if i > 0 {
			b.WriteString("\n")
		}
		fmt.Fprintf(&b, "workload %s on %s config (%d-cycle window after %d warm-up)\n\n",
			wl.Name(), arch, window, warmup)
		b.WriteString(res[i].String())
	}
	return b.String()
}

// CSV renders the Fig. 1 report as comma-separated values: a header
// row of benchmark names, then one row per swept latency — ready for
// any plotting tool.
func (r Fig1Report) CSV() string {
	var b strings.Builder
	b.WriteString("latency")
	for _, c := range r.Curves {
		b.WriteString(",")
		b.WriteString(c.Workload)
	}
	b.WriteString("\n")
	for i, lat := range r.Latencies {
		b.WriteString(strconv.FormatInt(lat, 10))
		for _, c := range r.Curves {
			fmt.Fprintf(&b, ",%.4f", c.Points[i].Normalized)
		}
		b.WriteString("\n")
	}
	return b.String()
}

// CSV renders the §III occupancy report as comma-separated values.
func (r OccupancyReport) CSV() string {
	var b strings.Builder
	b.WriteString("bench,l2_access_full,dram_sched_full,l2_access_mean_occ,dram_sched_mean_occ,avg_miss_latency\n")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%s,%.4f,%.4f,%.2f,%.2f,%.0f\n",
			row.Workload, row.L2AccessFull, row.DRAMSchedFull,
			row.L2AccessMeanOcc, row.DRAMSchedMeanOcc, row.AvgMissLatency)
	}
	fmt.Fprintf(&b, "average,%.4f,%.4f,,,\n", r.MeanL2AccessFull, r.MeanDRAMSchedFull)
	return b.String()
}

// CSV renders the §IV design-space result as comma-separated values.
func (r DesignSpaceResult) CSV() string {
	var b strings.Builder
	b.WriteString("bench,base_ipc")
	for _, s := range r.Sets {
		fmt.Fprintf(&b, ",%s", strings.ReplaceAll(s.String(), "+", "_"))
	}
	b.WriteString("\n")
	for wi, w := range r.Workloads {
		fmt.Fprintf(&b, "%s,%.4f", w, r.BaselineIPC[wi])
		for si := range r.Sets {
			fmt.Fprintf(&b, ",%.4f", r.Speedup[wi][si])
		}
		b.WriteString("\n")
	}
	b.WriteString("average,")
	for si := range r.Sets {
		fmt.Fprintf(&b, ",%.4f", r.MeanSpeedup[si])
	}
	b.WriteString("\n")
	return b.String()
}

// Plot renders the Fig. 1 curves as an ASCII chart (height rows),
// normalized IPC on the y-axis and latency on the x-axis — a terminal
// rendition of the paper's figure. Each curve uses one glyph; the
// shaded 1.0× line of the paper is drawn as dashes.
func (r Fig1Report) Plot(height int) string {
	if height < 4 {
		height = 4
	}
	if len(r.Curves) == 0 || len(r.Latencies) == 0 {
		return "(no data)\n"
	}
	glyphs := "o*x+#@%&"
	maxY := 1.0
	for _, c := range r.Curves {
		for _, p := range c.Points {
			if p.Normalized > maxY {
				maxY = p.Normalized
			}
		}
	}
	width := len(r.Latencies)
	grid := make([][]byte, height)
	for i := range grid {
		grid[i] = []byte(strings.Repeat(" ", width))
	}
	rowFor := func(v float64) int {
		row := int(v / maxY * float64(height-1))
		if row < 0 {
			row = 0
		}
		if row >= height {
			row = height - 1
		}
		return height - 1 - row // invert: row 0 on top
	}
	// The baseline (1.0×) reference line.
	oneRow := rowFor(1.0)
	for x := 0; x < width; x++ {
		grid[oneRow][x] = '-'
	}
	for ci, c := range r.Curves {
		g := glyphs[ci%len(glyphs)]
		for x, p := range c.Points {
			grid[rowFor(p.Normalized)][x] = g
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "normalized IPC (top = %.1fx, dashes = baseline 1.0x)\n", maxY)
	for _, row := range grid {
		b.WriteString("  |")
		b.Write(row)
		b.WriteString("\n")
	}
	b.WriteString("  +" + strings.Repeat("-", width) + "> L1 miss latency ")
	fmt.Fprintf(&b, "%d..%d\n  ", r.Latencies[0], r.Latencies[len(r.Latencies)-1])
	for ci, c := range r.Curves {
		fmt.Fprintf(&b, " %c=%s", glyphs[ci%len(glyphs)], c.Workload)
	}
	b.WriteString("\n")
	return b.String()
}
