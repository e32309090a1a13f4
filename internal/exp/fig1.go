package exp

import (
	"fmt"
	"strings"

	"repro/internal/config"
	"repro/internal/sim"
	"repro/internal/workload"
)

// LatencyPoint is one x/y point of a Fig. 1 curve.
type LatencyPoint struct {
	// Latency is the fixed L1 miss latency in core cycles (x-axis).
	Latency int64 `json:"latency"`
	// IPC is the absolute IPC at that latency.
	IPC float64 `json:"ipc"`
	// Normalized is IPC over the baseline architecture's IPC (y-axis).
	Normalized float64 `json:"normalized"`
}

// Fig1Curve is one benchmark's latency-tolerance profile.
type Fig1Curve struct {
	Workload string `json:"workload"`
	// BaselineIPC is the real-hierarchy IPC the curve normalizes to.
	BaselineIPC float64 `json:"baseline_ipc"`
	// BaselineAvgMissLatency is the measured average L1-miss round
	// trip of the baseline architecture (§II's "baseline memory
	// latency").
	BaselineAvgMissLatency float64        `json:"baseline_avg_miss_latency"`
	Points                 []LatencyPoint `json:"points"`
	// CrossoverLatency interpolates where the curve crosses 1.0×: the
	// fixed latency equivalent to the baseline's loaded latency. §II
	// observes it far exceeds the 120-cycle ideal L2 latency.
	CrossoverLatency float64 `json:"crossover_latency"`
	// PlateauSpeedup is the normalized IPC at the lowest swept
	// latency (the performance plateau's height).
	PlateauSpeedup float64 `json:"plateau_speedup"`
}

// DefaultLatencies is Fig. 1's x-axis: 0 to 800 in steps of 50.
func DefaultLatencies() []int64 {
	xs := make([]int64, 0, 17)
	for l := int64(0); l <= 800; l += 50 {
		xs = append(xs, l)
	}
	return xs
}

// LatencyVariants returns Fig. 1's sweep points as variants, one per
// latency in order: each swaps the hierarchy below the L1 for a
// fixed-latency, infinite-bandwidth responder. With VariantGrid they
// lay out the Fig. 1 grid — per workload, the real-hierarchy baseline
// the curve normalizes to, then one job per latency.
func LatencyVariants(latencies []int64) []Perturbation {
	vs := make([]Perturbation, len(latencies))
	for i, lat := range latencies {
		vs[i] = Perturbation{
			Name: fmt.Sprintf("lat-%d", lat),
			Apply: func(cfg config.Config, sp workload.Spec) (config.Config, workload.Spec) {
				cfg.FixedLatency = config.FixedLatencyConfig{Enabled: true, Cycles: lat}
				return cfg, sp
			},
		}
	}
	return vs
}

// BuildFig1Report assembles Fig. 1 from rows measured over
// LatencyVariants(latencies): per spec, the baseline, then one result
// per latency. It is the latsweep sweep's pure merge half.
func BuildFig1Report(specs []workload.Spec, latencies []int64, rows VariantRows) Fig1Report {
	rep := Fig1Report{Latencies: latencies, Curves: make([]Fig1Curve, len(specs))}
	for i, sp := range specs {
		rep.Curves[i] = fig1Curve(sp.SpecName, latencies, rows.Bases[i], rows.Variants[i])
	}
	return rep
}

// fig1Curve assembles one workload's curve from its baseline and its
// per-latency measurements.
func fig1Curve(name string, latencies []int64, baseRes sim.Results, res []sim.Results) Fig1Curve {
	c := Fig1Curve{
		Workload:               name,
		BaselineIPC:            baseRes.IPC,
		BaselineAvgMissLatency: baseRes.AvgMissLatency,
	}
	for i, lat := range latencies {
		pt := LatencyPoint{Latency: lat, IPC: res[i].IPC}
		if baseRes.IPC > 0 {
			pt.Normalized = res[i].IPC / baseRes.IPC
		}
		c.Points = append(c.Points, pt)
	}
	if len(c.Points) > 0 {
		c.PlateauSpeedup = c.Points[0].Normalized
	}
	c.CrossoverLatency = crossover(c.Points)
	return c
}

// crossover finds where normalized IPC crosses 1.0, interpolating
// linearly between bracketing points. Curves decrease with latency;
// if the whole sweep stays above 1.0 the last latency is returned,
// and if it starts below 1.0 the first is returned.
func crossover(pts []LatencyPoint) float64 {
	if len(pts) == 0 {
		return 0
	}
	if pts[0].Normalized <= 1 {
		return float64(pts[0].Latency)
	}
	for i := 1; i < len(pts); i++ {
		a, b := pts[i-1], pts[i]
		if b.Normalized > 1 {
			continue
		}
		// a.Normalized > 1 >= b.Normalized: interpolate.
		dy := a.Normalized - b.Normalized
		if dy <= 0 {
			return float64(b.Latency)
		}
		f := (a.Normalized - 1) / dy
		return float64(a.Latency) + f*float64(b.Latency-a.Latency)
	}
	return float64(pts[len(pts)-1].Latency)
}

// Fig1Report is the full Fig. 1 sweep over a suite.
type Fig1Report struct {
	Latencies []int64     `json:"latencies"`
	Curves    []Fig1Curve `json:"curves"`
}

// String renders the report: a table with one row per latency and one
// column per benchmark (the data behind Fig. 1), the §II crossover
// summary, an ASCII rendition of the figure, and the paper's
// reference points.
func (r Fig1Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig. 1 — IPC normalized to baseline vs fixed L1 miss latency\n\n")
	fmt.Fprintf(&b, "%8s", "latency")
	for _, c := range r.Curves {
		fmt.Fprintf(&b, " %9s", c.Workload)
	}
	fmt.Fprintln(&b)
	for i, lat := range r.Latencies {
		fmt.Fprintf(&b, "%8d", lat)
		for _, c := range r.Curves {
			fmt.Fprintf(&b, " %9.2f", c.Points[i].Normalized)
		}
		fmt.Fprintln(&b)
	}
	fmt.Fprintf(&b, "\n§II analysis (per benchmark)\n")
	fmt.Fprintf(&b, "%-10s %12s %12s %10s\n", "bench", "base-IPC", "avg-miss-lat", "crossover")
	for _, c := range r.Curves {
		fmt.Fprintf(&b, "%-10s %12.3f %12.0f %10.0f\n",
			c.Workload, c.BaselineIPC, c.BaselineAvgMissLatency, c.CrossoverLatency)
	}
	b.WriteString("\n")
	b.WriteString(r.Plot(20))
	b.WriteString("\n(paper Fig. 1: plateaus between ~1.2× and ~6×, sc highest;\n" +
		" §II: crossovers far above the 120-cycle ideal L2 latency)\n")
	return b.String()
}
