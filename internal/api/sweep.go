package api

import (
	"context"
	"encoding/json"
	"fmt"

	"repro/internal/config"
	"repro/internal/exp"
	"repro/internal/resultcache"
	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/workload"
)

// Sweep is a resolved sweep request: the registry entry, the workload
// scope (as names and as specs), the config and methodology the
// request describes, and the validated grid they expand to.
type Sweep struct {
	Kind Kind
	// Names is the request's workloads list, or the kind's defaults
	// when the list was empty; the envelope echoes it.
	Names  []string
	Specs  []workload.Spec
	Config config.Config
	Params exp.RunParams
	// Grid is exp.VariantGrid(Config, Specs, Kind.Variants): per
	// workload, the baseline and then each variant.
	Grid []exp.GridJob
}

// ResolveSweep is the one definition of "which sweep does this request
// describe", shared by the single-node server, the fabric coordinator
// and the `gpusim sweep` CLI: the kind lookup, the rejection of the
// single-job workload/spec fields, the kind's default scope and each
// name's spec, then Kind.Resolve. Every error it returns is the
// request's fault.
func ResolveSweep(kind string, base config.Config, req JobRequest, maxParallel int, maxWindow int64) (Sweep, error) {
	k, err := KindByName(kind)
	if err != nil {
		return Sweep{}, err
	}
	if req.Workload != "" || len(req.Spec) > 0 {
		return Sweep{}, fmt.Errorf("sweeps take a workloads list, not workload/spec")
	}
	names := req.Workloads
	if len(names) == 0 {
		if k.Defaults == nil {
			return Sweep{}, fmt.Errorf("a %s batch needs an explicit workloads list", k.Name)
		}
		names = k.Defaults()
	}
	specs := make([]workload.Spec, len(names))
	for i, n := range names {
		if specs[i], err = workload.SpecByName(n); err != nil {
			return Sweep{}, err
		}
	}
	return k.Resolve(specs, base, req, maxParallel, maxWindow)
}

// Resolve is the kind's sweep over specs already in hand — gpusim's
// batch passes spec-file workloads here: the methodology against base
// and the caller's caps, the kind's request check, and its grid, whose
// every entry is validated here. req's workload fields are not read.
func (k Kind) Resolve(specs []workload.Spec, base config.Config, req JobRequest, maxParallel int, maxWindow int64) (Sweep, error) {
	names := make([]string, len(specs))
	for i, sp := range specs {
		names[i] = sp.SpecName
	}
	cfg, p, err := ResolveMethodology(base, req, maxParallel, maxWindow)
	if err != nil {
		return Sweep{}, err
	}
	if k.Check != nil {
		if err := k.Check(cfg, specs); err != nil {
			return Sweep{}, err
		}
	}
	grid, err := exp.VariantGrid(cfg, specs, k.Variants)
	if err != nil {
		return Sweep{}, err
	}
	for _, g := range grid {
		if err := CheckWarps(g.Config, g.Spec); err != nil {
			return Sweep{}, err
		}
	}
	return Sweep{Kind: k, Names: names, Specs: specs, Config: cfg, Params: p, Grid: grid}, nil
}

// CheckWarps rejects a spec that needs more resident warps per SM
// than cfg's core.max_warps_per_sm allows — the request's fault, on
// /v1/run and on every sweep grid entry alike.
func CheckWarps(cfg config.Config, spec workload.Spec) error {
	if spec.Warps > cfg.Core.MaxWarpsPerSM {
		return fmt.Errorf("workload %s wants %d warps/SM, config allows %d", spec.SpecName, spec.Warps, cfg.Core.MaxWarpsPerSM)
	}
	return nil
}

// Key is the sweep's content address (resultcache.SweepKey): the
// same on every node, so a fleet-merged envelope carries the key a
// single node's would.
func (s Sweep) Key() (string, error) {
	return resultcache.SweepKey(s.Kind.Name, s.Config, s.Specs, s.Params.WarmupCycles, s.Params.WindowCycles)
}

// Envelope wraps the sweep's marshaled report in its response
// envelope.
func (s Sweep) Envelope(key string, report json.RawMessage) Envelope {
	return Envelope{
		Key: key, Kind: s.Kind.ResponseKind, Workloads: s.Names,
		WarmupCycles: s.Params.WarmupCycles, WindowCycles: s.Params.WindowCycles,
		Report: report,
	}
}

// Measure obtains grid entry i of a sweep, whose content address
// (resultcache.JobKey) is key: its exp.EncodeResults bytes and the
// snapshot they decode to. Sweep.Local simulates the entry in process,
// gpusimd measures it on its job cache, and the fabric coordinator
// posts it to a worker; each decodes the bytes it obtained once.
type Measure func(ctx context.Context, i int, key string) ([]byte, sim.Results, error)

// Run is the one sweep pipeline, whatever measures the entries: derive
// each grid entry's job key, fan the grid out on the runner.Map pool
// (results land at their grid index whatever the completion order) and
// merge. A fleet-merged report is byte-identical to a local one because
// both are this function over decoded bytes.
func (s Sweep) Run(ctx context.Context, measure Measure) (any, error) {
	p := s.Params
	res, err := runner.Map(ctx, len(s.Grid), runner.Options{Parallelism: p.Parallelism}, func(i int) (GridResult, error) {
		g := s.Grid[i]
		key, err := resultcache.JobKey(g.Config, g.Spec, p.WarmupCycles, p.WindowCycles)
		if err != nil {
			return GridResult{}, err
		}
		enc, r, err := measure(ctx, i, key)
		if err != nil {
			return GridResult{}, err
		}
		return GridResult{Key: key, Encoded: enc, Results: r}, nil
	})
	if err != nil {
		return nil, err
	}
	return s.merge(res)
}

// merge is the pure merge half: the one stride check splits the
// ordered results per workload, and the kind's Report assembles them.
func (s Sweep) merge(res []GridResult) (any, error) {
	rs := make([]sim.Results, len(res))
	for i, r := range res {
		rs[i] = r.Results
	}
	rows, err := exp.SplitVariantRows(s.Kind.Name, len(s.Specs), len(s.Kind.Variants), rs)
	if err != nil {
		return nil, err
	}
	return s.Kind.Report(s, rows, res), nil
}

// Job binds grid job g to p's methodology as a runner job on the
// default engine.
func Job(g exp.GridJob, p exp.RunParams) runner.Job {
	return runner.Job{
		Config: g.Config, Workload: g.Spec,
		WarmupCycles: p.WarmupCycles, WindowCycles: p.WindowCycles,
	}
}

// Simulate is the one "measure and encode": it runs j on the calling
// goroutine and returns its exp.EncodeResults bytes, which Sweep.Local
// decodes and gpusimd caches under the job's key.
func Simulate(j runner.Job) ([]byte, error) {
	r, err := runner.Execute(j)
	if err != nil {
		return nil, err
	}
	return exp.EncodeResults(r)
}

// Decode completes a Measure from an entry's bytes, or from the error
// that obtaining them returned: the bytes and the snapshot they decode
// to.
func Decode(enc []byte, err error) ([]byte, sim.Results, error) {
	if err != nil {
		return nil, sim.Results{}, err
	}
	r, err := exp.DecodeResults(enc)
	return enc, r, err
}

// ValidateEntry vets a job's result-cache entry loaded from disk or
// fetched from a peer before it is served, and returns it in canonical
// form (resultcache.Canonical), so an envelope can splice it in as it
// is: the entry must decode as a valid snapshot. gpusimd and
// `gpusim -cache-dir` both recompute, never trust, an entry it rejects.
func ValidateEntry(key string, val []byte) ([]byte, error) {
	if _, err := exp.DecodeResults(val); err != nil {
		return nil, err
	}
	canon, err := resultcache.Canonical(val)
	if err != nil {
		return nil, fmt.Errorf("cache entry %s is not valid JSON", key)
	}
	return canon, nil
}

// Local is the in-process Measure: Simulate grid entry i, then decode
// its bytes, so a local merge consumes what a fleet merge does.
func (s Sweep) Local(_ context.Context, i int, _ string) ([]byte, sim.Results, error) {
	return Decode(Simulate(Job(s.Grid[i], s.Params)))
}

// Compute runs the sweep locally and returns its typed report — the
// path of `gpusim sweep` and gpgpumem.RunSweep.
func (s Sweep) Compute() (any, error) {
	return s.Run(context.Background(), s.Local)
}

// Payload runs the sweep and returns its report's JSON bytes: the
// report of gpusimd's and the fabric coordinator's sweep envelopes.
func (s Sweep) Payload(ctx context.Context, measure Measure) ([]byte, error) {
	rep, err := s.Run(ctx, measure)
	if err != nil {
		return nil, err
	}
	return json.Marshal(rep)
}
