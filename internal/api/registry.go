package api

import (
	"fmt"
	"strings"

	"repro/internal/config"
	"repro/internal/exp"
	"repro/internal/sim"
	"repro/internal/workload"
)

// Job is one grid entry of a sweep: the exact (config, spec) pair to
// measure. Some kinds measure every spec on the request's resolved
// config; the variant kinds (latsweep, designspace, advise,
// mitigation) perturb the architecture per job, which is why the grid
// carries configs rather than assuming one.
type Job = exp.GridJob

// GridResult is one grid entry's measurement, however it was obtained
// — computed locally, served from a cache, or collected from a fleet
// worker. Encoded carries the exact exp.EncodeResults bytes (the
// run-batch report embeds them verbatim); Results the decoded
// snapshot the merge halves consume.
type GridResult struct {
	// Key is the entry's content address (resultcache.JobKey of its
	// config, spec and methodology).
	Key     string
	Encoded []byte
	Results sim.Results
}

// Kind is one registered sweep: everything a serving surface needs to
// validate a request, expand it into independent measurement jobs,
// and merge ordered results into the deterministic report — the
// single definition consumed by internal/serve (POST /v1/sweep/{kind}),
// the internal/fabric coordinator (sharded + SSE) and the one-shot
// `gpusim sweep <kind>` CLI. Adding a sweep to every surface at once
// is adding one entry to the registry.
type Kind struct {
	// Name is the kind's wire name — the {kind} path segment and the
	// resultcache.SweepKey kind string.
	Name string
	// ResponseKind is the merged envelope's Kind field ("sweep-<name>"
	// for report sweeps, "run-batch" for the plain measurement batch).
	ResponseKind string
	// Description is a one-line summary for documentation and
	// discovery listings.
	Description string
	// Defaults returns the workload scope a request with an empty
	// workloads list gets. A nil Defaults means the kind requires an
	// explicit list.
	Defaults func() []string
	// Grid expands the resolved (config, specs) into the sweep's
	// measurement grid, validating every entry. The order is part of
	// the sweep's byte-identity contract: Report reads results at
	// exactly these indices. ResolveSweep calls it once per request,
	// so a Grid error is the request's fault on every surface.
	Grid func(cfg config.Config, specs []workload.Spec) ([]Job, error)
	// Report is the pure merge half: it assembles the typed report
	// from ordered grid results. res[i] belongs to grid[i]; the same
	// function merges local batches and fleet-collected results, which
	// is what makes the two byte-identical. The served payload is the
	// report's json.Marshal bytes.
	Report func(cfg config.Config, specs []workload.Spec, p exp.RunParams, grid []Job, res []GridResult) (any, error)
}

// decoded projects grid results onto the []sim.Results layout the exp
// merge halves take.
func decoded(res []GridResult) []sim.Results {
	rs := make([]sim.Results, len(res))
	for i, r := range res {
		rs[i] = r.Results
	}
	return rs
}

// specJobs is the one-job-per-spec grid shared by the kinds that
// measure each workload once on the request's config.
func specJobs(cfg config.Config, specs []workload.Spec) ([]Job, error) {
	if len(specs) == 0 {
		return nil, fmt.Errorf("sweep needs at least one workload")
	}
	grid := make([]Job, len(specs))
	for i, sp := range specs {
		grid[i] = Job{Config: cfg, Spec: sp}
	}
	return grid, nil
}

// hierarchyOnly rejects a fixed-latency (Fig. 1) base for a kind that
// measures or scales the hierarchy that mode removes.
func hierarchyOnly(kind, why string, cfg config.Config) error {
	if cfg.FixedLatency.Enabled {
		return fmt.Errorf("%s %s; its baseline must be the real hierarchy (drop fixed_latency)", kind, why)
	}
	return nil
}

// kinds is the registry, in documentation order. It is built by a
// function (not a package var) so every caller gets fresh closures
// and nothing can mutate the shared definition.
func kinds() []Kind {
	return []Kind{
		{
			Name:         "latsweep",
			ResponseKind: "sweep-latsweep",
			Description:  "Fig. 1 latency tolerance: IPC vs a fixed L1 miss latency, 0 to 800 cycles (exp.Fig1Report)",
			Defaults:     suiteNames,
			Grid: func(cfg config.Config, specs []workload.Spec) ([]Job, error) {
				if err := hierarchyOnly("latsweep", "sets the fixed latency itself", cfg); err != nil {
					return nil, err
				}
				return exp.VariantGrid(cfg, specs, exp.LatencyVariants(exp.DefaultLatencies()))
			},
			Report: func(cfg config.Config, specs []workload.Spec, p exp.RunParams, grid []Job, res []GridResult) (any, error) {
				return exp.BuildFig1Report(specs, exp.DefaultLatencies(), decoded(res))
			},
		},
		{
			Name:         "occupancy",
			ResponseKind: "sweep-occupancy",
			Description:  "§III queue full-of-usage occupancy of the L2 access and DRAM scheduler queues (exp.OccupancyReport)",
			Defaults:     suiteNames,
			Grid: func(cfg config.Config, specs []workload.Spec) ([]Job, error) {
				if err := hierarchyOnly("occupancy", "measures the L2 and DRAM queues", cfg); err != nil {
					return nil, err
				}
				return specJobs(cfg, specs)
			},
			Report: func(cfg config.Config, specs []workload.Spec, p exp.RunParams, grid []Job, res []GridResult) (any, error) {
				return exp.BuildOccupancyReport(cfg, specs, decoded(res))
			},
		},
		{
			Name:         "designspace",
			ResponseKind: "sweep-designspace",
			Description:  "Table I and the §IV design space: speedups with Table I groups scaled ~4x (exp.DesignSpaceResult)",
			Defaults:     suiteNames,
			Grid: func(cfg config.Config, specs []workload.Spec) ([]Job, error) {
				if err := hierarchyOnly("designspace", "scales the L2 and DRAM", cfg); err != nil {
					return nil, err
				}
				return exp.VariantGrid(cfg, specs, exp.ScalingVariants(designSpaceSets()))
			},
			Report: func(cfg config.Config, specs []workload.Spec, p exp.RunParams, grid []Job, res []GridResult) (any, error) {
				return exp.BuildDesignSpaceResult(cfg, specs, designSpaceSets(), decoded(res))
			},
		},
		{
			Name:         "bottleneck",
			ResponseKind: "sweep-bottleneck",
			Description:  "per-workload stall-cycle attribution (exp.BottleneckReport)",
			Defaults:     suiteAndScenarioNames,
			Grid:         specJobs,
			Report: func(cfg config.Config, specs []workload.Spec, p exp.RunParams, grid []Job, res []GridResult) (any, error) {
				return exp.BuildBottleneckReport(cfg, specs, p, decoded(res)), nil
			},
		},
		{
			Name:         "scenarios",
			ResponseKind: "sweep-scenarios",
			Description:  "multi-phase scenarios vs their fixed-mix controls (exp.ScenarioReport)",
			Defaults:     scenarioNames,
			Grid:         exp.ScenarioGrid,
			Report: func(cfg config.Config, specs []workload.Spec, p exp.RunParams, grid []Job, res []GridResult) (any, error) {
				return exp.BuildScenarioReport(specs, decoded(res)), nil
			},
		},
		{
			Name:         "advise",
			ResponseKind: "sweep-advise",
			Description:  "what-if advisor: interventions ranked by IPC recovered per unit cost (exp.AdviseReport)",
			Defaults:     suiteAndScenarioNames,
			Grid: func(cfg config.Config, specs []workload.Spec) ([]Job, error) {
				return exp.VariantGrid(cfg, specs, exp.Perturbations())
			},
			Report: func(cfg config.Config, specs []workload.Spec, p exp.RunParams, grid []Job, res []GridResult) (any, error) {
				return exp.BuildAdviseReport(specs, exp.Perturbations(), p, decoded(res))
			},
		},
		{
			Name:         "mitigation",
			ResponseKind: "sweep-mitigation",
			Description:  "mitigation policies: scenario × policy grid of the internal/policy seams (exp.MitigationReport)",
			Defaults:     scenarioNames,
			Grid: func(cfg config.Config, specs []workload.Spec) ([]Job, error) {
				return exp.VariantGrid(cfg, specs, exp.Mitigations())
			},
			Report: func(cfg config.Config, specs []workload.Spec, p exp.RunParams, grid []Job, res []GridResult) (any, error) {
				return exp.BuildMitigationReport(specs, p, decoded(res))
			},
		},
		{
			Name:         "run",
			ResponseKind: "run-batch",
			Description:  "plain measurement batch: the ordered per-workload run envelopes",
			Defaults:     nil, // a run batch needs an explicit workloads list
			Grid:         specJobs,
			Report: func(cfg config.Config, specs []workload.Spec, p exp.RunParams, grid []Job, res []GridResult) (any, error) {
				envs := make([]Envelope, len(grid))
				for i := range grid {
					envs[i] = Envelope{
						Key: res[i].Key, Kind: "measure",
						Workload:     grid[i].Spec.SpecName,
						WarmupCycles: p.WarmupCycles, WindowCycles: p.WindowCycles,
						Results: res[i].Encoded,
					}
				}
				return envs, nil
			},
		},
	}
}

// Kinds returns every registered sweep kind, in documentation order.
func Kinds() []Kind { return kinds() }

// KindNames lists the registered kind names in registry order — the
// valid {kind} path segments, also embedded in error messages so the
// hints stay truthful as kinds are added.
func KindNames() []string {
	ks := kinds()
	names := make([]string, len(ks))
	for i, k := range ks {
		names[i] = k.Name
	}
	return names
}

// KindByName resolves a wire name to its registry entry; the error
// lists the valid names.
func KindByName(name string) (Kind, error) {
	for _, k := range kinds() {
		if k.Name == name {
			return k, nil
		}
	}
	return Kind{}, fmt.Errorf("unknown sweep kind %q (want %s)", name, strings.Join(KindNames(), ", "))
}

// designSpaceSets is the designspace kind's scaling sets in the
// paper's order: each Table I group alone, then the two combinations
// §IV reports.
func designSpaceSets() []config.ScalingSet {
	return []config.ScalingSet{config.ScaleL1, config.ScaleL2, config.ScaleDRAM, config.ScaleL1L2, config.ScaleL2DRAM}
}

// suiteNames is the default scope of the paper kinds: the Fig. 1
// benchmark suite in figure order.
func suiteNames() []string {
	suite := workload.Suite()
	names := make([]string, len(suite))
	for i, wl := range suite {
		names[i] = wl.Name()
	}
	return names
}

// suiteAndScenarioNames is the default scope of the bottleneck and
// advise kinds: the paper's Fig. 1 benchmark suite followed by the
// built-in multi-phase scenarios, so a sweep covers both steady and
// phased behaviour.
func suiteAndScenarioNames() []string {
	return append(suiteNames(), scenarioNames()...)
}

// scenarioNames lists the built-in multi-phase scenarios.
func scenarioNames() []string {
	ss := workload.Scenarios()
	names := make([]string, len(ss))
	for i, sp := range ss {
		names[i] = sp.SpecName
	}
	return names
}
