package sim_test

// The event engine's correctness argument is "a skipped span is a
// span in which nothing could have happened", and the per-cycle loop
// is the oracle that definition is checked against. This file is the
// property test behind the -engine flag's byte-identity guarantee:
// every built-in benchmark, every multi-phase scenario, and a pile of
// randomized multi-phase specs run under both engines, on the real
// hierarchy and in fixed-latency (Fig. 1) mode, at pool parallelism
// 1 and 4 — and every run of a job must produce reflect.DeepEqual
// Results (including the full StallBreakdown). It lives outside
// package sim so it can drive the runner pool the CLIs use.

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/config"
	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/workload"
)

// equivJobs builds the property-test grid: one real-hierarchy job per
// workload, plus a fixed-latency job per Fig. 1 suite benchmark so
// the per-SM event loops are exercised, not just the hierarchy path.
func equivJobs(t *testing.T) []runner.Job {
	t.Helper()
	cfg := config.GTX480Baseline()
	fixed := cfg
	fixed.FixedLatency = config.FixedLatencyConfig{Enabled: true, Cycles: 400}

	var jobs []runner.Job
	add := func(c config.Config, w workload.Workload) {
		jobs = append(jobs, runner.Job{
			Config: c, Workload: w,
			WarmupCycles: 300, WindowCycles: 1200,
		})
	}
	for _, w := range workload.Suite() {
		add(cfg, w)
		add(fixed, w)
	}
	for _, s := range workload.Scenarios() {
		add(cfg, s)
	}
	for i, s := range fuzzedSpecs(20) {
		if err := s.Validate(); err != nil {
			t.Fatalf("fuzzed spec %d invalid: %v", i, err)
		}
		add(cfg, s)
	}
	return jobs
}

// fuzzedSpecs generates n random multi-phase specs from a fixed seed,
// so a failure names a reproducible spec. The draws stay inside
// Spec.Validate's envelope but deliberately hit the corners: single
// warps and full occupancy, store-only and load-only phases, every
// access pattern, phases sharing and not sharing regions.
func fuzzedSpecs(n int) []workload.Spec {
	r := rand.New(rand.NewSource(0x1f5))
	patterns := []workload.Pattern{
		workload.Streaming, workload.Strided, workload.Stencil,
		workload.Gather, workload.Thrash, workload.Hotset,
		workload.Transpose,
	}
	specs := make([]workload.Spec, n)
	for i := range specs {
		phases := make([]workload.PhaseSpec, 2+r.Intn(3))
		for p := range phases {
			pat := patterns[r.Intn(len(patterns))]
			lpa := 1 + r.Intn(4)
			wsl := lpa + r.Intn(8192)
			stride := 0
			switch pat {
			case workload.Strided:
				stride = 1 + r.Intn(16)
			case workload.Transpose:
				stride = r.Intn(wsl + 1)
			}
			phases[p] = workload.PhaseSpec{
				PhaseName:       fmt.Sprintf("p%d", p),
				Instructions:    50 + r.Intn(400),
				ComputePerMem:   r.Intn(8),
				StoreFrac:       float64(r.Intn(11)) / 10,
				AccessPattern:   pat,
				WorkingSetLines: wsl,
				LinesPerAccess:  lpa,
				StrideLines:     stride,
				HitFrac:         float64(r.Intn(11)) / 10,
				DepDist:         r.Intn(5), // 0 inherits the spec's
				Region:          r.Intn(4),
			}
		}
		specs[i] = workload.Spec{
			SpecName:      fmt.Sprintf("fuzz-%02d", i),
			Warps:         1 + r.Intn(48),
			ComputePerMem: r.Intn(8),
			DepDist:       1 + r.Intn(6),
			Shared:        r.Intn(2) == 0,
			Phases:        phases,
		}
	}
	return specs
}

// TestEngineEquivalence is the -engine contract: event vs cycle,
// serial vs four workers — four runs of the same grid, one answer.
func TestEngineEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("equivalence grid is ~128 simulations")
	}
	base := equivJobs(t)

	variant := func(eng sim.Engine) []runner.Job {
		jobs := make([]runner.Job, len(base))
		copy(jobs, base)
		for i := range jobs {
			jobs[i].Engine = eng
		}
		return jobs
	}
	run := func(jobs []runner.Job, par int) []sim.Results {
		t.Helper()
		res, err := runner.Run(context.Background(), jobs, runner.Options{Parallelism: par})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}

	want := run(variant(sim.EngineEvent), 1)
	for _, alt := range []struct {
		name string
		eng  sim.Engine
		par  int
	}{
		{"event -j4", sim.EngineEvent, 4},
		{"cycle -j1", sim.EngineCycle, 1},
		{"cycle -j4", sim.EngineCycle, 4},
	} {
		got := run(variant(alt.eng), alt.par)
		for i := range base {
			if !reflect.DeepEqual(want[i].Stalls, got[i].Stalls) {
				t.Errorf("%s: job %d (%s): StallBreakdown diverged from event -j1:\nwant %+v\ngot  %+v",
					alt.name, i, base[i].Workload.Name(), want[i].Stalls, got[i].Stalls)
			}
			if !reflect.DeepEqual(want[i], got[i]) {
				t.Errorf("%s: job %d (%s): Results diverged from event -j1:\nwant %+v\ngot  %+v",
					alt.name, i, base[i].Workload.Name(), want[i], got[i])
			}
		}
		if t.Failed() {
			t.FailNow() // one variant's diff is enough noise
		}
	}
}
