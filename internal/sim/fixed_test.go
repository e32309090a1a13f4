package sim

import (
	"fmt"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/config"
	"repro/internal/policy"
	"repro/internal/workload"
)

// fixedRun measures one fixed-latency job: warm up, reset, window.
func fixedRun(t *testing.T, cfg config.Config, wl workload.Workload, eng Engine) Results {
	t.Helper()
	g, err := New(cfg, wl)
	if err != nil {
		t.Fatal(err)
	}
	g.SetEngine(eng)
	g.Run(400)
	g.ResetStats()
	g.Run(1600)
	return g.Results()
}

// TestFixedLatencyDeterministicAcrossCores: in Fig. 1 mode every SM
// runs its own event loop, spread over GOMAXPROCS goroutines. The
// Results must not depend on that spread — 1, 2 and 7 workers (7
// splits the 15 SMs unevenly) — and must equal the lockstep cycle
// engine's. The stateful fill and issue policies ride along because
// they keep per-SM state the loops must not share. Under the race
// detector this also checks that the loops share no memory.
func TestFixedLatencyDeterministicAcrossCores(t *testing.T) {
	type job struct {
		name string
		cfg  config.Config
		wl   workload.Workload
	}
	var jobs []job
	base := config.GTX480Baseline()
	add := func(name string, cfg config.Config, wl workload.Workload) {
		for _, lat := range []int64{1, 900} {
			c := cfg
			c.FixedLatency = config.FixedLatencyConfig{Enabled: true, Cycles: lat}
			jobs = append(jobs, job{fmt.Sprintf("%s@%d", name, lat), c, wl})
		}
	}
	for _, wl := range workload.Suite() {
		add(wl.Name(), base, wl)
	}
	sc, err := workload.ByName("sc")
	if err != nil {
		t.Fatal(err)
	}
	bypass := base
	bypass.Policy.L1Fill = policy.FillBypassLowReuse
	add("sc/"+policy.FillBypassLowReuse, bypass, sc)
	throttle := base
	throttle.Policy.Issue = policy.IssueThrottle
	add("sc/"+policy.IssueThrottle, throttle, sc)

	old := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(old)
	for _, j := range jobs {
		runtime.GOMAXPROCS(1)
		want := fixedRun(t, j.cfg, j.wl, EngineCycle)
		for _, procs := range []int{1, 2, 7} {
			runtime.GOMAXPROCS(procs)
			if got := fixedRun(t, j.cfg, j.wl, EngineEvent); !reflect.DeepEqual(want, got) {
				t.Fatalf("%s: GOMAXPROCS=%d event engine diverged from the cycle engine:\nwant %+v\ngot  %+v",
					j.name, procs, want, got)
			}
		}
	}
}

// BenchmarkSMFixedLatency is the core layer alone: SM issue, L1,
// MSHRs and the workload streams of one SM behind its fixed-latency
// port (400 cycles), on cfd, which keeps the SM busy every cycle. It
// reports host ns per warp instruction and stepped_frac, the share of
// the cycles advanced that the SM was ticked rather than skipped.
func BenchmarkSMFixedLatency(b *testing.B) {
	wl, err := workload.ByName("cfd")
	if err != nil {
		b.Fatal(err)
	}
	cfg := config.GTX480Baseline()
	cfg.Core.NumSMs = 1
	cfg.FixedLatency = config.FixedLatencyConfig{Enabled: true, Cycles: 400}
	g, err := New(cfg, wl)
	if err != nil {
		b.Fatal(err)
	}
	p := g.ports[0]
	g.Run(5000) // fill the pool, rings and MSHRs
	insts, stepped, advanced := p.sm.Stats().Instructions, p.stepped, p.advanced
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Run(1000)
	}
	b.StopTimer()
	insts = p.sm.Stats().Instructions - insts
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(insts), "ns/inst")
	b.ReportMetric(float64(p.stepped-stepped)/float64(p.advanced-advanced), "stepped_frac")
}
