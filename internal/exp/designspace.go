package exp

import (
	"fmt"
	"strings"

	"repro/internal/config"
	"repro/internal/stats"
	"repro/internal/workload"
)

// DesignSpaceResult holds the §IV exploration: per-workload speedups
// for each Table I scaling set, plus the suite averages the paper
// reports (L1 +4%, L2 +59%, DRAM +11%, L1+L2 +69%, L2+DRAM +76%).
type DesignSpaceResult struct {
	Sets      []config.ScalingSet `json:"sets"`
	Workloads []string            `json:"workloads"`
	// BaselineIPC[w] is workload w's baseline IPC.
	BaselineIPC []float64 `json:"baseline_ipc"`
	// Speedup[w][s] is IPC(set s) / IPC(baseline) for workload w.
	Speedup [][]float64 `json:"speedup"`
	// MeanSpeedup[s] is the arithmetic-mean speedup of set s across
	// workloads (the paper's "average speedup").
	MeanSpeedup []float64 `json:"mean_speedup"`

	// tableI is Table I of the measured base config. It is not served,
	// so a result decoded from JSON renders without it.
	tableI []config.TableIRow
}

// ScalingVariants returns one variant per Table I scaling set, in
// order, each applying the set to the measured config. With
// VariantGrid they lay out the §IV grid: per workload, one baseline
// measurement shared by every set's speedup, then one job per set.
func ScalingVariants(sets []config.ScalingSet) []Perturbation {
	vs := make([]Perturbation, len(sets))
	for i, set := range sets {
		vs[i] = Perturbation{
			Name: set.String(),
			Apply: func(cfg config.Config, sp workload.Spec) (config.Config, workload.Spec) {
				return set.Apply(cfg), sp
			},
		}
	}
	return vs
}

// BuildDesignSpaceResult assembles §IV from rows measured over
// ScalingVariants(sets) on the base config cfg. It is the designspace
// sweep's pure merge half.
func BuildDesignSpaceResult(cfg config.Config, specs []workload.Spec, sets []config.ScalingSet, rows VariantRows) DesignSpaceResult {
	bases, scaled := rows.Bases, rows.Variants
	out := DesignSpaceResult{Sets: sets, Speedup: make([][]float64, len(specs)), tableI: config.TableI(cfg)}
	for wi, sp := range specs {
		out.Workloads = append(out.Workloads, sp.SpecName)
		out.BaselineIPC = append(out.BaselineIPC, bases[wi].IPC)
		out.Speedup[wi] = make([]float64, len(sets))
		for si := range sets {
			if bases[wi].IPC > 0 {
				out.Speedup[wi][si] = scaled[wi][si].IPC / bases[wi].IPC
			}
		}
	}
	out.MeanSpeedup = make([]float64, len(sets))
	for si := range sets {
		col := make([]float64, len(specs))
		for wi := range specs {
			col[wi] = out.Speedup[wi][si]
		}
		out.MeanSpeedup[si] = stats.Mean(col)
	}
	return out
}

// SpeedupFor returns the mean speedup of a given set, or 0 if the set
// was not evaluated.
func (r DesignSpaceResult) SpeedupFor(set config.ScalingSet) float64 {
	for i, s := range r.Sets {
		if s == set {
			return r.MeanSpeedup[i]
		}
	}
	return 0
}

// String renders Table I — the design space itself, from the measured
// base config, when the result was built rather than decoded — and
// then the §IV table: one row per workload, one column per scaling
// set, plus the average row the paper quotes.
func (r DesignSpaceResult) String() string {
	var b strings.Builder
	if r.tableI != nil {
		fmt.Fprintf(&b, "Table I — consolidated design space to mitigate congestion\n")
		fmt.Fprintf(&b, "\n%-10s %-22s %-4s %-20s %-20s\n", "group", "parameter", "type", "baseline", "scaled (~4x)")
	}
	group := ""
	for _, row := range r.tableI {
		g := row.Group
		if g == group {
			g = ""
		} else {
			group = g
		}
		fmt.Fprintf(&b, "%-10s %-22s %-4s %-20s %-20s\n", g, row.Parameter, row.Type, row.Baseline, row.Scaled)
	}
	fmt.Fprintf(&b, "§IV — speedup over baseline when scaling Table I groups ~4×\n\n")
	fmt.Fprintf(&b, "%-10s %9s", "bench", "base-IPC")
	for _, s := range r.Sets {
		fmt.Fprintf(&b, " %9s", s)
	}
	fmt.Fprintln(&b)
	for wi, w := range r.Workloads {
		fmt.Fprintf(&b, "%-10s %9.3f", w, r.BaselineIPC[wi])
		for si := range r.Sets {
			fmt.Fprintf(&b, " %8.2f×", r.Speedup[wi][si])
		}
		fmt.Fprintln(&b)
	}
	fmt.Fprintf(&b, "%-10s %9s", "average", "")
	for si := range r.Sets {
		fmt.Fprintf(&b, " %+8.0f%%", (r.MeanSpeedup[si]-1)*100)
	}
	fmt.Fprintf(&b, "\n(paper:  L1 +4%%, L2 +59%%, DRAM +11%%, L1+L2 +69%%, L2+DRAM +76%%)\n")
	return b.String()
}
