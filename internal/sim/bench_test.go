package sim

import (
	"testing"

	"repro/internal/config"
	"repro/internal/policy"
	"repro/internal/workload"
)

// BenchmarkHierarchyStep is the full GTX480 hierarchy on cfd: all SMs,
// both crossbars, the L2 partitions and DRAM channels, congested. It
// reports host ns per core cycle and, per clock domain, the share of
// its component cycles that ran a full tick rather than a sleeping or
// skipped one: sm_awake_frac, l2_stepped_frac, dram_stepped_frac and
// icnt_stepped_frac (both crossbars).
func BenchmarkHierarchyStep(b *testing.B) {
	benchHierarchyStep(b, config.GTX480Baseline())
}

// BenchmarkHierarchyStepPolicies is BenchmarkHierarchyStep under the
// combined mitigation: the throttling issue policy, each SM's L1
// bypass table and the L2 tag arrays' pin threshold, all on.
func BenchmarkHierarchyStepPolicies(b *testing.B) {
	cfg := config.GTX480Baseline()
	cfg.Policy = config.PolicyConfig{
		Issue: policy.IssueThrottle, L1Fill: policy.FillBypassLowReuse, L2Insert: policy.L2PinHot,
	}
	benchHierarchyStep(b, cfg)
}

// benchHierarchyStep runs cfd on cfg's full hierarchy and reports the
// metrics BenchmarkHierarchyStep documents.
func benchHierarchyStep(b *testing.B, cfg config.Config) {
	wl, err := workload.ByName("cfd")
	if err != nil {
		b.Fatal(err)
	}
	g, err := New(cfg, wl)
	if err != nil {
		b.Fatal(err)
	}
	g.Run(5000) // fill the pool, queues and MSHRs
	before := g.domainTicks()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Run(1000)
	}
	b.StopTimer()
	after := g.domainTicks()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(1000*b.N), "ns/cycle")
	for d, unit := range []string{"sm_awake_frac", "l2_stepped_frac", "dram_stepped_frac", "icnt_stepped_frac"} {
		full, cycles := after[d][0]-before[d][0], after[d][1]-before[d][1]
		b.ReportMetric(float64(full)/float64(cycles), unit)
	}
}

// BenchmarkSMIssue is the SM issue layer alone: nn on one SM behind
// a fixed-latency port with zero latency, so loads return at once and
// the host time goes to the warp scheduler and its instruction feed,
// mostly batched compute runs. It reports host ns per warp
// instruction.
func BenchmarkSMIssue(b *testing.B) {
	wl, err := workload.ByName("nn")
	if err != nil {
		b.Fatal(err)
	}
	cfg := config.GTX480Baseline()
	cfg.Core.NumSMs = 1
	cfg.FixedLatency = config.FixedLatencyConfig{Enabled: true, Cycles: 0}
	g, err := New(cfg, wl)
	if err != nil {
		b.Fatal(err)
	}
	g.Run(5000) // fill the pool, rings and MSHRs
	insts := g.Results().Instructions
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Run(1000)
	}
	b.StopTimer()
	insts = g.Results().Instructions - insts
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(insts), "ns/inst")
}

// BenchmarkNew is system construction alone: config validation, the
// hierarchy's components and one instruction stream per warp. kmeans
// is multi-phase, so its streams carry per-phase state.
func BenchmarkNew(b *testing.B) {
	for _, name := range []string{"cfd", "kmeans"} {
		b.Run(name, func(b *testing.B) {
			wl, err := workload.ByName(name)
			if err != nil {
				b.Fatal(err)
			}
			cfg := config.GTX480Baseline()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := New(cfg, wl); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
