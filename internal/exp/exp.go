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
