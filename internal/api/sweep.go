package api

import (
	"context"
	"encoding/json"
	"fmt"

	"repro/internal/config"
	"repro/internal/exp"
	"repro/internal/resultcache"
	"repro/internal/runner"
	"repro/internal/workload"
)

// Sweep is a resolved sweep request: the registry entry, the workload
// scope (as names and as specs), and the config and methodology the
// request describes.
type Sweep struct {
	Kind Kind
	// Names is the request's workloads list, or the kind's defaults
	// when the list was empty; the envelope echoes it.
	Names  []string
	Specs  []workload.Spec
	Config config.Config
	Params exp.RunParams
}

// ResolveSweep is the one definition of "which sweep does this request
// describe", shared by the single-node server, the fabric coordinator
// and the `gpusim sweep` CLI: the kind lookup, the rejection of the
// single-job workload/spec fields, the kind's default scope, each
// name's spec, and the methodology against base and the caller's caps.
// Every error it returns is the request's fault.
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
	cfg, p, err := ResolveMethodology(base, req, maxParallel, maxWindow)
	if err != nil {
		return Sweep{}, err
	}
	return Sweep{Kind: k, Names: names, Specs: specs, Config: cfg, Params: p}, nil
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

// Compute runs the sweep locally: expand the kind's grid, run it as
// one batch on the worker pool (per-job configs — the variant grids
// perturb the architecture), content-address and encode each result,
// and hand the ordered results to the kind's pure Report half. The
// fabric coordinator runs the same Grid and Report over
// fleet-collected results, which is what makes a fleet-merged report
// byte-identical to this one.
func (s Sweep) Compute() (any, error) {
	grid, err := s.Kind.Grid(s.Config, s.Specs)
	if err != nil {
		return nil, err
	}
	p := s.Params
	jobs := make([]runner.Job, len(grid))
	for i, g := range grid {
		jobs[i] = runner.Job{
			Config: g.Config, Workload: g.Spec,
			WarmupCycles: p.WarmupCycles, WindowCycles: p.WindowCycles,
		}
	}
	results, err := runner.Run(context.Background(), jobs, runner.Options{Parallelism: p.Parallelism})
	if err != nil {
		return nil, err
	}
	res := make([]GridResult, len(grid))
	for i, g := range grid {
		key, err := resultcache.JobKey(g.Config, g.Spec, p.WarmupCycles, p.WindowCycles)
		if err != nil {
			return nil, err
		}
		enc, err := exp.EncodeResults(results[i])
		if err != nil {
			return nil, err
		}
		res[i] = GridResult{Key: key, Encoded: enc, Results: results[i]}
	}
	return s.Kind.Report(s.Config, s.Specs, p, grid, res)
}
