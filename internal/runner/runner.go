// Package runner is the experiment-execution engine behind the exp
// harnesses: a bounded worker pool that farms independent
// (config, workload) simulations out to goroutines and returns their
// measurements in submission order.
//
// Every figure and table of the paper is a grid of fully independent
// simulations (Fig. 1 alone is 8 workloads × 18 configurations), and
// each sim.GPU instance is self-contained state — the seeded RNG that
// drives a workload's address streams lives inside the instance, and
// no package-level mutable state is shared between instances. A batch
// therefore produces bit-identical Results regardless of worker count
// or completion order; only wall-clock time changes. The determinism
// regression tests in this package and in the root package guard that
// invariant, and CI runs the whole tree under the race detector.
package runner

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"

	"repro/internal/config"
	"repro/internal/sim"
	"repro/internal/workload"
)

// Job is one independent simulation: build a GPU for (Config,
// Workload), warm it up, and measure a window. Jobs carry their own
// methodology so one batch can mix sweep points with different
// configurations.
type Job struct {
	Config   config.Config
	Workload workload.Workload
	// WarmupCycles run before statistics are reset; WindowCycles is
	// the measurement window (the exp.RunParams methodology).
	WarmupCycles int64
	WindowCycles int64
	// Engine selects the time-advancement strategy (the zero value is
	// sim.EngineEvent, under which SMs sleep and Fig. 1's SMs each run
	// a next-event loop). Results are byte-identical under either
	// engine — sim.EngineCycle exists as the slow reference oracle
	// (gpusim -engine=cycle), and the sim equivalence property tests
	// hold the two to reflect.DeepEqual.
	Engine sim.Engine
}

// Options tunes a batch run.
type Options struct {
	// Parallelism is the worker count: how many jobs run at once. 0
	// (or negative) means runtime.GOMAXPROCS(0); 1 runs the jobs one
	// at a time, in order. A fixed-latency (Fig. 1) job spreads its
	// SMs over up to GOMAXPROCS goroutines of its own, so even 1 can
	// keep several cores busy.
	Parallelism int
	// Progress, when non-nil, is called after every job completes with
	// the number of finished jobs and the batch size. Calls are
	// serialized and done is strictly increasing, but jobs finish out
	// of submission order, so done=k does not mean jobs 0..k-1.
	Progress func(done, total int)
}

// workers resolves Options.Parallelism against the batch size.
func (o Options) workers(jobs int) int {
	n := o.Parallelism
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	if n > jobs {
		n = jobs
	}
	if n < 1 {
		n = 1
	}
	return n
}

// Execute runs a single job to completion, returning on the calling
// goroutine: validate and build the GPU, run warmup, reset
// statistics, run the measurement window. A fixed-latency job runs
// its SMs on up to GOMAXPROCS goroutines (sim.GPU.Run); any other job
// runs entirely on the calling goroutine. This is the one definition
// of the measurement methodology; the serial exp.Measure path and
// every pool worker both funnel through it, which is what makes "same
// job, any parallelism, same bits" checkable.
func Execute(j Job) (sim.Results, error) {
	g, err := sim.New(j.Config, j.Workload)
	if err != nil {
		return sim.Results{}, err
	}
	g.SetEngine(j.Engine)
	g.Run(j.WarmupCycles)
	g.ResetStats()
	g.Run(j.WindowCycles)
	return g.Results(), nil
}

// Run executes every job on a bounded worker pool and returns the
// results indexed by submission order, regardless of completion
// order. Errors are collected per job and joined (a failed sweep
// point does not abort the rest of the grid); ctx cancellation marks
// every not-yet-started job with ctx.Err() but lets in-flight
// simulations finish their window. A worker panic is captured and
// reported as that job's error rather than tearing down the process.
func Run(ctx context.Context, jobs []Job, opt Options) ([]sim.Results, error) {
	return Map(ctx, len(jobs), opt, func(i int) (sim.Results, error) {
		res, err := execute(jobs[i])
		if err != nil {
			return sim.Results{}, fmt.Errorf("runner: job %d (%s): %w", i, jobName(jobs[i]), err)
		}
		return res, nil
	})
}

// Map is the pool's ordered-results discipline, generalized: run
// fn(0..n-1) on a bounded worker pool and return the values indexed
// by i, regardless of completion order. It is what Run is built on,
// and what lets other layers — the cluster coordinator in
// internal/fabric farms one HTTP job per index out to a worker fleet
// — inherit the same guarantees without re-proving them:
//
//   - results land at their submission index, so a deterministic fn
//     yields a deterministic slice at any parallelism;
//   - errors are collected per index and joined, one failure does not
//     abort the rest;
//   - ctx cancellation marks every not-yet-started index with
//     ctx.Err() but lets in-flight calls finish;
//   - a panicking fn is captured as that index's error;
//   - Progress callbacks are serialized with a strictly increasing
//     done count.
func Map[T any](ctx context.Context, n int, opt Options, fn func(i int) (T, error)) ([]T, error) {
	results := make([]T, n)
	if n == 0 {
		return results, nil
	}
	errs := make([]error, n)

	idxCh := make(chan int)
	doneCh := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < opt.workers(n); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idxCh {
				if err := ctx.Err(); err != nil {
					errs[i] = fmt.Errorf("runner: job %d canceled: %w", i, err)
				} else if res, err := guard(fn, i); err != nil {
					errs[i] = err
				} else {
					results[i] = res
				}
				doneCh <- i
			}
		}()
	}
	go func() {
		// Feeding never blocks forever: workers keep draining idxCh
		// even after cancellation (they just record ctx.Err()).
		for i := 0; i < n; i++ {
			idxCh <- i
		}
		close(idxCh)
	}()

	// The collector is the single goroutine that observes completions,
	// so Progress needs no locking of its own.
	for done := 1; done <= n; done++ {
		<-doneCh
		if opt.Progress != nil {
			opt.Progress(done, n)
		}
	}
	wg.Wait()
	return results, errors.Join(errs...)
}

// guard runs fn(i) with panic capture, so one bad call surfaces as an
// error on its own index instead of killing the pool.
func guard[T any](fn func(int) (T, error), i int) (res T, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("runner: job %d panicked: %v", i, r)
		}
	}()
	return fn(i)
}

// jobName labels a job for error messages; a zero-value Job has a
// nil Workload, which must not crash the error path itself.
func jobName(j Job) string {
	if j.Workload == nil {
		return "<nil workload>"
	}
	return j.Workload.Name()
}

// execute wraps Execute with panic capture so one bad sweep point
// surfaces as an error on its own index instead of killing the pool.
func execute(j Job) (res sim.Results, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic: %v", r)
		}
	}()
	return Execute(j)
}
