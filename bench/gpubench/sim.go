package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"time"

	gm "repro"
)

// workloadNames are the paper's eight benchmarks followed by the four
// multi-phase scenarios: the advisor's default scope. They are spelled
// out so that a workload added to the library later does not change
// what the benchmark runs.
var workloadNames = []string{
	"cfd", "dwt2d", "leukocyte", "nn", "nw", "sc", "lbm", "ss",
	"kmeans", "bfs", "histo", "dct8x8",
}

// hardwarePerturbations are the advisor's registered candidates;
// policyPerturbations the three policy seams.
var (
	hardwarePerturbations = []string{"l1-x2", "l2-x2", "mshr-x4", "icnt-x2", "l2q-x4", "dramq-x4", "coalesce"}
	policyPerturbations   = []string{"p-throttle", "p-l1bypass", "p-l2pin"}
)

// simBench runs a grid of simulation jobs per pass through
// MeasureBatch, one job per call at parallelism 1, so that every job
// has its own latency.
type simBench struct {
	seed uint64
	grid func(seed uint64) ([]gm.Job, error)
	sum  hash.Hash
	n    int
	// reruns holds every 16th job with the bytes it produced; verify
	// runs them again and expects the same bytes.
	reruns []probe
}

func newFig1(seed uint64, sz size) bench {
	return &simBench{seed: seed, sum: sha256.New(), grid: func(s uint64) ([]gm.Job, error) {
		base := gm.DefaultConfig()
		base.Seed = s
		var jobs []gm.Job
		for _, name := range workloadNames[:8] {
			wl, err := gm.WorkloadByName(name)
			if err != nil {
				return nil, err
			}
			for _, lat := range gm.DefaultLatencies() {
				cfg := base
				cfg.FixedLatency = gm.FixedLatencyConfig{Enabled: true, Cycles: lat}
				jobs = append(jobs, gm.Job{Config: cfg, Workload: wl, WarmupCycles: sz.simWarmup, WindowCycles: sz.simWindow})
			}
		}
		return truncate(jobs, sz.simJobs), nil
	}}
}

func newAdvise(seed uint64, sz size) bench {
	perts := append(append([]string(nil), hardwarePerturbations...), policyPerturbations...)
	return &simBench{seed: seed, sum: sha256.New(), grid: func(s uint64) ([]gm.Job, error) {
		jobs, err := adviseGrid(s, workloadNames, perts, sz.simWarmup, sz.simWindow)
		return truncate(jobs, sz.simJobs), err
	}}
}

// adviseGrid is the advisor's grid for one seed: per workload, the
// baseline and then each named perturbation.
func adviseGrid(seed uint64, names, perts []string, warmup, window int64) ([]gm.Job, error) {
	byName := map[string]gm.Perturbation{}
	for _, p := range append(gm.Perturbations(), gm.PolicyPerturbations()...) {
		byName[p.Name] = p
	}
	base := gm.DefaultConfig()
	base.Seed = seed
	var jobs []gm.Job
	for _, name := range names {
		spec, err := gm.WorkloadSpecByName(name)
		if err != nil {
			return nil, err
		}
		jobs = append(jobs, gm.Job{Config: base, Workload: spec, WarmupCycles: warmup, WindowCycles: window})
		for _, pn := range perts {
			p, ok := byName[pn]
			if !ok {
				return nil, fmt.Errorf("no perturbation named %q", pn)
			}
			cfg, sp := p.Apply(base, spec)
			jobs = append(jobs, gm.Job{Config: cfg, Workload: sp, WarmupCycles: warmup, WindowCycles: window})
		}
	}
	return jobs, nil
}

func truncate(jobs []gm.Job, n int) []gm.Job {
	if n > 0 && n < len(jobs) {
		return jobs[:n]
	}
	return jobs
}

// setup builds one system for each job of the first pass; set-up time
// is what constructing the grid costs before anything runs.
func (b *simBench) setup() error {
	jobs, err := b.grid(b.seed)
	if err != nil {
		return err
	}
	for _, j := range jobs {
		if _, err := gm.NewSystem(j.Config, j.Workload); err != nil {
			return err
		}
	}
	return nil
}

func (b *simBench) prepare(*recorder) error { return nil }

func (b *simBench) pass(k int, rec *recorder) error {
	seed := b.seed + uint64(k)
	jobs, err := b.grid(seed)
	if err != nil {
		return err
	}
	ps := rec.tr.open("pass", 0, time.Now())
	for _, j := range jobs {
		js := rec.tr.open("job", ps, time.Now())
		t := time.Now()
		res, err := gm.MeasureBatch(context.Background(), []gm.Job{j}, 1, nil)
		d := time.Since(t)
		rec.tr.end(js, "workload", j.Workload.Name())
		var enc []byte
		if err == nil {
			enc, err = roundTrip(res[0])
		}
		rec.done(d, err)
		if err != nil {
			continue
		}
		if k == 0 {
			b.sum.Write(enc)
		}
		if b.n%16 == 0 {
			b.reruns = append(b.reruns, probe{job: j, enc: enc})
		}
		b.n++
		rec.simulated(j, &res[0], enc)
	}
	rec.tr.end(ps, "seed", fmt.Sprint(seed))
	return nil
}

func (b *simBench) verify(rec *recorder) {
	for _, p := range b.reruns {
		enc, _, err := runJob(p.job, gm.EngineEvent)
		if err == nil && !bytes.Equal(enc, p.enc) {
			err = fmt.Errorf("%s: rerun gave different results", p.job.Workload.Name())
		}
		rec.check(err)
	}
}

func (b *simBench) counters(metrics) error { return nil }

func (b *simBench) digest() string { return hex.EncodeToString(b.sum.Sum(nil)) }

func (b *simBench) close() {}
