package api

import (
	"fmt"
	"strings"

	"repro/internal/config"
	"repro/internal/exp"
	"repro/internal/sim"
	"repro/internal/workload"
)

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
// validate a request, lay out its measurement grid, and merge ordered
// results into the deterministic report — the single definition
// consumed by internal/serve (POST /v1/sweep/{kind}), the
// internal/fabric coordinator (sharded + SSE) and the one-shot
// `gpusim sweep <kind>` CLI. Every kind has one shape, a baseline plus
// variants: adding a sweep to every surface at once is adding one
// entry to the registry.
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
	// Check, when non-nil, rejects a resolved (config, specs) pair the
	// kind cannot measure, before its grid is built.
	Check func(cfg config.Config, specs []workload.Spec) error
	// Variants is the kind's variant list, named here and nowhere
	// else. Every grid is exp.VariantGrid(cfg, specs, Variants): per
	// workload, the baseline, then one job per variant. Nil measures
	// each workload once.
	Variants []exp.Perturbation
	// Report is the pure merge half: it assembles the typed report
	// from the grid's results, split per workload by the one stride
	// check (rows) and in grid order (res, for the run batch's keys
	// and bytes). The same function merges local and fleet-collected
	// results, which is what makes the two byte-identical. The served
	// payload is the report's json.Marshal bytes.
	Report func(s Sweep, rows exp.VariantRows, res []GridResult) any
}

// hierarchyOnly is the request check of a kind that measures or
// scales the hierarchy a fixed-latency (Fig. 1) base removes.
func hierarchyOnly(kind, why string) func(config.Config, []workload.Spec) error {
	return func(cfg config.Config, _ []workload.Spec) error {
		if cfg.FixedLatency.Enabled {
			return fmt.Errorf("%s %s; its baseline must be the real hierarchy (drop fixed_latency)", kind, why)
		}
		return nil
	}
}

// kinds is the registry, in documentation order. It is built by a
// function (not a package var) so every caller gets fresh closures
// and nothing can mutate the shared definition.
func kinds() []Kind {
	// The latency axis and the scaling sets are named once and read
	// twice: as the variants and as the report's columns. The sets are
	// in the paper's order: each Table I group alone, then the two
	// combinations §IV reports.
	lats := exp.DefaultLatencies()
	sets := []config.ScalingSet{config.ScaleL1, config.ScaleL2, config.ScaleDRAM, config.ScaleL1L2, config.ScaleL2DRAM}
	return []Kind{
		{
			Name:         "latsweep",
			ResponseKind: "sweep-latsweep",
			Description:  "Fig. 1 latency tolerance: IPC vs a fixed L1 miss latency, 0 to 800 cycles (exp.Fig1Report)",
			Defaults:     suiteNames,
			Check:        hierarchyOnly("latsweep", "sets the fixed latency itself"),
			Variants:     exp.LatencyVariants(lats),
			Report: func(s Sweep, rows exp.VariantRows, _ []GridResult) any {
				return exp.BuildFig1Report(s.Specs, lats, rows)
			},
		},
		{
			Name:         "occupancy",
			ResponseKind: "sweep-occupancy",
			Description:  "§III queue full-of-usage occupancy of the L2 access and DRAM scheduler queues (exp.OccupancyReport)",
			Defaults:     suiteNames,
			Check:        hierarchyOnly("occupancy", "measures the L2 and DRAM queues"),
			Report: func(s Sweep, rows exp.VariantRows, _ []GridResult) any {
				return exp.BuildOccupancyReport(s.Config, s.Specs, rows.Bases)
			},
		},
		{
			Name:         "designspace",
			ResponseKind: "sweep-designspace",
			Description:  "Table I and the §IV design space: speedups with Table I groups scaled ~4x (exp.DesignSpaceResult)",
			Defaults:     suiteNames,
			Check:        hierarchyOnly("designspace", "scales the L2 and DRAM"),
			Variants:     exp.ScalingVariants(sets),
			Report: func(s Sweep, rows exp.VariantRows, _ []GridResult) any {
				return exp.BuildDesignSpaceResult(s.Config, s.Specs, sets, rows)
			},
		},
		{
			Name:         "bottleneck",
			ResponseKind: "sweep-bottleneck",
			Description:  "per-workload stall-cycle attribution (exp.BottleneckReport)",
			Defaults:     suiteAndScenarioNames,
			Report: func(s Sweep, rows exp.VariantRows, _ []GridResult) any {
				return exp.BuildBottleneckReport(s.Config, s.Specs, s.Params, rows.Bases)
			},
		},
		{
			Name:         "scenarios",
			ResponseKind: "sweep-scenarios",
			Description:  "multi-phase scenarios vs their fixed-mix controls (exp.ScenarioReport)",
			Defaults:     scenarioNames,
			Check: func(_ config.Config, specs []workload.Spec) error {
				return exp.CheckScenarios(specs)
			},
			Variants: exp.ScenarioControl(),
			Report: func(s Sweep, rows exp.VariantRows, _ []GridResult) any {
				return exp.BuildScenarioReport(s.Specs, rows)
			},
		},
		{
			Name:         "advise",
			ResponseKind: "sweep-advise",
			Description:  "what-if advisor: interventions ranked by IPC recovered per unit cost (exp.AdviseReport)",
			Defaults:     suiteAndScenarioNames,
			Variants:     exp.Perturbations(),
			Report: func(s Sweep, rows exp.VariantRows, _ []GridResult) any {
				return exp.BuildAdviseReport(s.Specs, s.Kind.Variants, s.Params, rows)
			},
		},
		{
			Name:         "mitigation",
			ResponseKind: "sweep-mitigation",
			Description:  "mitigation policies: scenario × policy grid of the internal/policy seams (exp.MitigationReport)",
			Defaults:     scenarioNames,
			Variants:     exp.Mitigations(),
			Report: func(s Sweep, rows exp.VariantRows, _ []GridResult) any {
				return exp.BuildMitigationReport(s.Specs, s.Kind.Variants, s.Params, rows)
			},
		},
		{
			Name:         "run",
			ResponseKind: "run-batch",
			Description:  "plain measurement batch: the ordered per-workload run envelopes",
			Defaults:     nil, // a run batch needs an explicit workloads list
			Report: func(s Sweep, _ exp.VariantRows, res []GridResult) any {
				envs := make([]Envelope, len(res))
				for i, r := range res {
					envs[i] = Envelope{
						Key: r.Key, Kind: "measure",
						Workload:     s.Grid[i].Spec.SpecName,
						WarmupCycles: s.Params.WarmupCycles, WindowCycles: s.Params.WindowCycles,
						Results: r.Encoded,
					}
				}
				return envs
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
