// Package exp contains the harnesses that regenerate every figure and
// table of the paper: the Fig. 1 latency-tolerance sweep (with the §II
// crossover analysis), the §III queue-occupancy characterization, and
// the Table I / §IV design-space exploration — plus the bottleneck,
// scenario, advise and mitigation reports built on the same model.
//
// Each artifact is a baseline measured beside variants of it, as a
// grid of fully independent simulations split into two halves: the
// grid (VariantGrid over a variant list: per workload, the baseline
// and then each variant; no variants is one job per workload) and a
// pure Build half that turns the results, split per workload by the
// one stride check (SplitVariantRows), into the report. Advise and
// mitigation share one ranked-variants builder. The internal/api sweep
// registry pairs the halves and runs the grid on the internal/runner
// worker pool; because each sim.GPU instance owns all of its state
// (including the seeded RNG behind the workload address streams), a
// report is bit-identical at any parallelism.
package exp

import (
	"fmt"

	"repro/internal/config"
	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/workload"
)

// RunParams sets the measurement methodology shared by all harnesses:
// warm up the caches and queues, reset statistics, then measure a
// fixed window (steady-state IPC, like GPGPU-Sim's periodic stats).
type RunParams struct {
	WarmupCycles int64
	WindowCycles int64
	// Parallelism is the worker count a sweep hands to the experiment
	// engine. 0 means runtime.GOMAXPROCS(0); 1 runs one job at a time.
	Parallelism int
}

// DefaultRunParams balances fidelity and runtime; requests and CLI
// flags lengthen the runs and change the worker count.
func DefaultRunParams() RunParams {
	return RunParams{WarmupCycles: 6000, WindowCycles: 20000}
}

// job binds a (config, workload) pair to p's methodology.
func job(cfg config.Config, wl workload.Workload, p RunParams) runner.Job {
	return runner.Job{
		Config: cfg, Workload: wl,
		WarmupCycles: p.WarmupCycles, WindowCycles: p.WindowCycles,
	}
}

// Measure builds a GPU for (cfg, wl), runs warmup+window, and returns
// the window's results. It is the single-job form of the engine: the
// worker pool executes exactly this per job, so a batch at any
// parallelism is bit-identical to calling Measure in a loop.
func Measure(cfg config.Config, wl workload.Workload, p RunParams) (sim.Results, error) {
	r, err := runner.Execute(job(cfg, wl, p))
	if err != nil {
		return sim.Results{}, fmt.Errorf("exp: %w", err)
	}
	return r, nil
}
