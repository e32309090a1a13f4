package gpgpumem

// One benchmark per paper artifact. Each regenerates the experiment
// behind a figure or table at reduced scale (`gpusim sweep latsweep`,
// `occupancy` and `designspace` run the full-scale versions) and
// reports the headline quantity with b.ReportMetric so
// `go test -bench=.` prints the reproduced numbers:
//
//	BenchmarkFig1LatencyTolerance  — Fig. 1: plateau speedup and
//	                                 crossover latency per benchmark
//	BenchmarkSecIIBaselineLatency  — §II: baseline avg miss latency
//	BenchmarkSecIIIQueueOccupancy  — §III: queue full-of-usage (46/39)
//	BenchmarkSecIVScale*           — §IV/Table I: mean speedups
//	                                 (paper: L1 +4, L2 +59, DRAM +11,
//	                                  L1+L2 +69, L2+DRAM +76)
//	BenchmarkAblation*             — beyond-paper design ablations
import (
	"context"
	"fmt"
	"testing"

	"repro/internal/exp"
)

// The bench methodology trades a little measurement stability for
// bench speed; the sweep kinds default to 6000 + 20000 cycles.
const benchWarmup, benchWindow = 4000, 10000

// benchSweep measures the Fig. 1 suite under a "baseline + variants"
// grid (exp.VariantGrid; no variants is one job per workload) as one
// MeasureBatch at the bench methodology — the grid and compute a sweep
// kind runs, at the benchmark's own axis — and returns the specs and
// ordered results for the kind's build half (split per workload by
// exp.SplitVariantRows where the grid has variants).
func benchSweep(b *testing.B, variants []exp.Perturbation, parallelism int) ([]WorkloadSpec, []Results) {
	b.Helper()
	suite := Suite()
	specs := make([]WorkloadSpec, len(suite))
	for i, wl := range suite {
		specs[i] = wl.(WorkloadSpec)
	}
	grid, err := exp.VariantGrid(DefaultConfig(), specs, variants)
	if err != nil {
		b.Fatal(err)
	}
	jobs := make([]Job, len(grid))
	for i, g := range grid {
		jobs[i] = Job{Config: g.Config, Workload: g.Spec, WarmupCycles: benchWarmup, WindowCycles: benchWindow}
	}
	res, err := MeasureBatch(context.Background(), jobs, parallelism, nil)
	if err != nil {
		b.Fatal(err)
	}
	return specs, res
}

// benchFig1 regenerates Fig. 1 at the benchmarks' reduced x-axis.
func benchFig1(b *testing.B, parallelism int) LatencyReport {
	b.Helper()
	lats := []int64{0, 200, 400, 600, 800}
	specs, res := benchSweep(b, exp.LatencyVariants(lats), parallelism)
	rows, err := exp.SplitVariantRows("latsweep", len(specs), len(lats), res)
	if err != nil {
		b.Fatal(err)
	}
	return exp.BuildFig1Report(specs, lats, rows)
}

// BenchmarkFig1LatencyTolerance regenerates Fig. 1 (reduced x-axis)
// and reports each benchmark's plateau speedup (×1000) and crossover
// latency in cycles.
func BenchmarkFig1LatencyTolerance(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rep := benchFig1(b, 0)
		for _, c := range rep.Curves {
			b.ReportMetric(c.PlateauSpeedup, c.Workload+"_plateau_x")
			b.ReportMetric(c.CrossoverLatency, c.Workload+"_crossover_cyc")
		}
	}
}

// BenchmarkSecIIBaselineLatency measures the §II observation: the
// baseline average L1-miss latency far exceeds the ideal L2 (120) and
// DRAM (220) access latencies.
func BenchmarkSecIIBaselineLatency(b *testing.B) {
	for i := 0; i < b.N; i++ {
		var sum float64
		for _, wl := range Suite() {
			sys, err := NewSystem(DefaultConfig(), wl)
			if err != nil {
				b.Fatal(err)
			}
			r := sys.Measure(benchWarmup, benchWindow)
			b.ReportMetric(r.AvgMissLatency, wl.Name()+"_avg_miss_lat")
			sum += r.AvgMissLatency
		}
		b.ReportMetric(sum/8, "suite_avg_miss_lat")
	}
}

// BenchmarkSecIIIQueueOccupancy regenerates §III and reports the
// suite-average full-of-usage percentages (paper: 46% L2 access,
// 39% DRAM scheduler).
func BenchmarkSecIIIQueueOccupancy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		specs, res := benchSweep(b, nil, 0)
		rep := exp.BuildOccupancyReport(DefaultConfig(), specs, res)
		b.ReportMetric(rep.MeanL2AccessFull*100, "l2_access_full_pct")
		b.ReportMetric(rep.MeanDRAMSchedFull*100, "dram_sched_full_pct")
	}
}

// benchScaling runs the §IV exploration for one Table I scaling set
// and reports the suite-mean speedup percentage.
func benchScaling(b *testing.B, set ScalingSet) {
	b.Helper()
	sets := []ScalingSet{set}
	for i := 0; i < b.N; i++ {
		specs, res := benchSweep(b, exp.ScalingVariants(sets), 0)
		rows, err := exp.SplitVariantRows("designspace", len(specs), len(sets), res)
		if err != nil {
			b.Fatal(err)
		}
		ds := exp.BuildDesignSpaceResult(DefaultConfig(), specs, sets, rows)
		b.ReportMetric((ds.SpeedupFor(set)-1)*100, "mean_speedup_pct")
	}
}

// BenchmarkSecIVScaleL1 reproduces §IV's "L1 alone" row (paper: +4%).
func BenchmarkSecIVScaleL1(b *testing.B) { benchScaling(b, ScaleL1) }

// BenchmarkSecIVScaleL2 reproduces §IV's "L2 alone" row (paper: +59%).
func BenchmarkSecIVScaleL2(b *testing.B) { benchScaling(b, ScaleL2) }

// BenchmarkSecIVScaleDRAM reproduces §IV's "DRAM alone" row (paper: +11%).
func BenchmarkSecIVScaleDRAM(b *testing.B) { benchScaling(b, ScaleDRAM) }

// BenchmarkSecIVScaleL1L2 reproduces §IV's "L1+L2" row (paper: +69%).
func BenchmarkSecIVScaleL1L2(b *testing.B) { benchScaling(b, ScaleL1L2) }

// BenchmarkSecIVScaleL2DRAM reproduces §IV's "L2+DRAM" row (paper: +76%).
func BenchmarkSecIVScaleL2DRAM(b *testing.B) { benchScaling(b, ScaleL2DRAM) }

// BenchmarkAblationDRAMScheduler compares FR-FCFS against plain FCFS
// on a DRAM-heavy workload (design choice called out in DESIGN.md §7).
func BenchmarkAblationDRAMScheduler(b *testing.B) {
	wl, err := WorkloadByName("lbm")
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		for _, sched := range []string{"frfcfs", "fcfs"} {
			cfg := DefaultConfig()
			cfg.DRAM.Scheduler = sched
			sys, err := NewSystem(cfg, wl)
			if err != nil {
				b.Fatal(err)
			}
			r := sys.Measure(benchWarmup, benchWindow)
			b.ReportMetric(r.IPC, sched+"_ipc")
			b.ReportMetric(r.DRAMRowHitRate*100, sched+"_rowhit_pct")
		}
	}
}

// BenchmarkAblationWarpScheduler compares GTO against loose
// round-robin warp scheduling on a locality-sensitive workload.
func BenchmarkAblationWarpScheduler(b *testing.B) {
	wl, err := WorkloadByName("leukocyte")
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		for _, sched := range []string{"gto", "lrr"} {
			cfg := DefaultConfig()
			cfg.Core.Scheduler = sched
			sys, err := NewSystem(cfg, wl)
			if err != nil {
				b.Fatal(err)
			}
			r := sys.Measure(benchWarmup, benchWindow)
			b.ReportMetric(r.IPC, sched+"_ipc")
		}
	}
}

// BenchmarkAblationL2AccessQueueDepth sweeps the depth of the §III
// L2 access queue alone, isolating how much of the Table I(b) gain
// comes from that single '=' parameter.
func BenchmarkAblationL2AccessQueueDepth(b *testing.B) {
	wl, err := WorkloadByName("sc")
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		for _, depth := range []int{2, 8, 32} {
			cfg := DefaultConfig()
			cfg.L2.AccessQueue = depth
			sys, err := NewSystem(cfg, wl)
			if err != nil {
				b.Fatal(err)
			}
			r := sys.Measure(benchWarmup, benchWindow)
			b.ReportMetric(r.IPC, "ipc_depth_"+itoa(depth))
		}
	}
}

// BenchmarkSimulatorThroughput measures raw simulation speed
// (simulated core cycles per second) on the baseline, for engineering
// regressions rather than paper reproduction.
func BenchmarkSimulatorThroughput(b *testing.B) {
	wl, err := WorkloadByName("cfd")
	if err != nil {
		b.Fatal(err)
	}
	sys, err := NewSystem(DefaultConfig(), wl)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sys.Run(1000)
	}
	b.ReportMetric(1000, "sim_cycles/op")
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}

// BenchmarkAblationBankHash compares plain modulo bank interleaving
// against XOR permutation-based interleaving on the gather-heavy cfd
// model (DESIGN.md §7).
func BenchmarkAblationBankHash(b *testing.B) {
	wl, err := WorkloadByName("cfd")
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		for _, hash := range []string{"none", "xor"} {
			cfg := DefaultConfig()
			cfg.DRAM.BankHash = hash
			sys, err := NewSystem(cfg, wl)
			if err != nil {
				b.Fatal(err)
			}
			r := sys.Measure(benchWarmup, benchWindow)
			b.ReportMetric(r.IPC, hash+"_ipc")
			b.ReportMetric(r.DRAMRowHitRate*100, hash+"_rowhit_pct")
		}
	}
}

// BenchmarkFig1SuiteParallel measures how the Fig. 1 sweep scales on
// the experiment engine's worker pool. The grid (suite × latencies,
// plus one baseline per benchmark) is identical in every sub-benchmark;
// only the worker count changes, so ns/op directly shows the speedup
// (results are bit-identical at every -j — see
// TestDeterminismAcrossRunner).
func BenchmarkFig1SuiteParallel(b *testing.B) {
	for _, j := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("j=%d", j), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				benchFig1(b, j)
			}
		})
	}
}
