package exp

import (
	"fmt"

	"repro/internal/config"
	"repro/internal/policy"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/workload"
)

// Perturbation is one variant of a "baseline + variants" sweep: a
// named architectural, software or policy change, the stall causes it
// is expected to relieve, its rough hardware cost, and the pure
// transform that produces the perturbed (config, spec) pair to
// measure. The advisor ranks hardware and policy variants by IPC
// recovered per unit of cost; the mitigation sweep ranks policy
// variants by IPC recovered alone.
type Perturbation struct {
	// Name identifies the variant in reports and CSV.
	Name string
	// Description is the one-line summary reports print next to the
	// name.
	Description string
	// Targets lists the stall causes this variant attacks; a workload
	// whose dominant cause is in the list gets the variant marked as
	// targeted in its advise row.
	Targets []stats.StallCause
	// Cost is the variant's price in rough relative silicon units
	// (1.0 ≈ quadrupling the MSHR files). It is the denominator of the
	// advisor's score, so cheap fixes outrank equally effective
	// expensive ones.
	Cost float64
	// Apply derives the perturbed simulation from the baseline pair.
	// It must be pure: same inputs, same outputs, no mutation of the
	// originals — the grid must stay a deterministic function of
	// (config, specs).
	Apply func(config.Config, workload.Spec) (config.Config, workload.Spec)
}

// Perturbations returns the advisor's candidate set, in grid order.
// The set covers the mitigations the paper's related work keeps
// recommending — bigger caches, more MSHRs, a wider interconnect,
// deeper queues — plus one software counterfactual (forced full
// coalescing); the advise sweep measures them all instead of citing
// them.
func Perturbations() []Perturbation {
	return []Perturbation{
		{
			Name:        "l1-x2",
			Description: "double the L1 data cache (2x sets)",
			Targets:     []stats.StallCause{stats.StallL1Miss},
			Cost:        2.0,
			Apply: func(cfg config.Config, sp workload.Spec) (config.Config, workload.Spec) {
				cfg.L1.Sets *= 2
				return cfg, sp
			},
		},
		{
			Name:        "l2-x2",
			Description: "double the shared L2 (2x sets per partition)",
			Targets:     []stats.StallCause{stats.StallL1Miss, stats.StallL2Queue},
			Cost:        4.0,
			Apply: func(cfg config.Config, sp workload.Spec) (config.Config, workload.Spec) {
				cfg.L2.Sets *= 2
				return cfg, sp
			},
		},
		{
			Name:        "mshr-x4",
			Description: "4x the L1 and L2 MSHR files",
			Targets:     []stats.StallCause{stats.StallMemPipe, stats.StallL1Miss},
			Cost:        1.0,
			Apply: func(cfg config.Config, sp workload.Spec) (config.Config, workload.Spec) {
				cfg.L1.MSHREntries *= 4
				cfg.L2.MSHREntries *= 4
				return cfg, sp
			},
		},
		{
			Name:        "icnt-x2",
			Description: "double the crossbar flit size",
			Targets:     []stats.StallCause{stats.StallIcnt},
			Cost:        2.0,
			Apply: func(cfg config.Config, sp workload.Spec) (config.Config, workload.Spec) {
				cfg.Icnt.FlitSizeBytes *= 2
				return cfg, sp
			},
		},
		{
			Name:        "l2q-x4",
			Description: "4x the L2 access/miss/response/return queues",
			Targets:     []stats.StallCause{stats.StallL2Queue},
			Cost:        0.5,
			Apply: func(cfg config.Config, sp workload.Spec) (config.Config, workload.Spec) {
				cfg.L2.AccessQueue *= 4
				cfg.L2.MissQueue *= 4
				cfg.L2.ResponseQueue *= 4
				cfg.L2.DRAMReturnQueue *= 4
				return cfg, sp
			},
		},
		{
			Name:        "dramq-x4",
			Description: "4x the DRAM scheduler queues",
			Targets:     []stats.StallCause{stats.StallDRAMQueue},
			Cost:        0.5,
			Apply: func(cfg config.Config, sp workload.Spec) (config.Config, workload.Spec) {
				cfg.DRAM.SchedQueue *= 4
				return cfg, sp
			},
		},
		{
			Name:        "coalesce",
			Description: "software: restructure accesses to coalesce fully",
			Targets:     []stats.StallCause{stats.StallIcnt, stats.StallL2Queue, stats.StallDRAMQueue},
			Cost:        0.25,
			Apply: func(cfg config.Config, sp workload.Spec) (config.Config, workload.Spec) {
				return cfg, Coalesced(sp)
			},
		},
	}
}

// policySeam is one internal/policy seam switched on: the config knob
// it sets and the stall causes it targets. Each seam is defined once;
// Mitigations and PolicyPerturbations only name and describe it.
type policySeam struct {
	targets []stats.StallCause
	set     func(*config.PolicyConfig)
}

var (
	throttleSeam = policySeam{
		targets: []stats.StallCause{stats.StallL1Miss, stats.StallIcnt, stats.StallL2Queue, stats.StallDRAMQueue},
		set:     func(p *config.PolicyConfig) { p.Issue = policy.IssueThrottle },
	}
	l1BypassSeam = policySeam{
		targets: []stats.StallCause{stats.StallL1Miss, stats.StallMemPipe},
		set:     func(p *config.PolicyConfig) { p.L1Fill = policy.FillBypassLowReuse },
	}
	l2PinSeam = policySeam{
		targets: []stats.StallCause{stats.StallL1Miss, stats.StallL2Queue},
		set:     func(p *config.PolicyConfig) { p.L2Insert = policy.L2PinHot },
	}
)

// policyCost prices a policy variant: not free (scheduling/bypass
// logic and verification effort), but far below any capacity change.
const policyCost = 0.1

// policyVariant is the config-only variant that switches on the given
// seams, targeting the union of their causes.
func policyVariant(name, desc string, seams ...policySeam) Perturbation {
	var targets []stats.StallCause
	for _, s := range seams {
		targets = append(targets, s.targets...)
	}
	return Perturbation{
		Name: name, Description: desc, Targets: targets, Cost: policyCost,
		Apply: func(cfg config.Config, sp workload.Spec) (config.Config, workload.Spec) {
			for _, s := range seams {
				s.set(&cfg.Policy)
			}
			return cfg, sp
		},
	}
}

// Mitigations returns the mitigation sweep's candidate set, in grid
// order: one variant per non-baseline policy seam plus the
// all-at-once combination.
func Mitigations() []Perturbation {
	return []Perturbation{
		policyVariant("throttle", "issue: cap memory-warp issue while the L1 MSHRs saturate", throttleSeam),
		policyVariant("l1-bypass", "l1: route first-touch (streaming) fills around the cache", l1BypassSeam),
		policyVariant("l2-pin", "l2: protect lines with proven reuse from eviction", l2PinSeam),
		policyVariant("combined", "all three policy seams enabled together", throttleSeam, l1BypassSeam, l2PinSeam),
	}
}

// PolicyPerturbations returns the policy seams as advisor candidates:
// zero-silicon-cost config knobs to rank alongside the hardware ones.
// They are not part of Perturbations() — the registered advise sweep's
// grid (and its pinned golden) is unchanged — but a caller can append
// them and pass the extended set to VariantGrid and BuildAdviseReport.
func PolicyPerturbations() []Perturbation {
	return []Perturbation{
		policyVariant("p-throttle", "policy: throttle memory-warp issue while MSHRs saturate", throttleSeam),
		policyVariant("p-l1bypass", "policy: bypass first-touch (streaming) L1 fills", l1BypassSeam),
		policyVariant("p-l2pin", "policy: pin L2 lines with proven reuse", l2PinSeam),
	}
}

// Coalesced returns the fully coalesced variant of a spec: every warp
// memory access touches exactly one cache line (top level and in every
// phase), modelling the kernel after a perfect access-restructuring
// pass. The variant is renamed "<name>-coalesced" so its measurements
// content-address separately from the original's.
func Coalesced(sp workload.Spec) workload.Spec {
	out := sp
	out.SpecName = sp.SpecName + "-coalesced"
	out.LinesPerAccess = 1
	if len(sp.Phases) > 0 {
		out.Phases = make([]workload.PhaseSpec, len(sp.Phases))
		for i, p := range sp.Phases {
			p.LinesPerAccess = 1
			out.Phases[i] = p
		}
	}
	return out
}

// GridJob is one entry of a sweep grid: the exact (config, spec) pair
// to measure. Grids carry configs rather than assuming one because the
// variant sweeps perturb the architecture per job.
type GridJob struct {
	Config config.Config
	Spec   workload.Spec
}

// VariantGrid validates the workloads and expands them into a variant
// sweep's measurement grid: for each spec, the baseline measurement
// followed by one job per variant, in that order. The layout is part
// of the sweep's byte-identity contract — the report builders read
// results in exactly this stride of 1+len(variants).
func VariantGrid(base config.Config, specs []workload.Spec, variants []Perturbation) ([]GridJob, error) {
	if len(specs) == 0 {
		return nil, fmt.Errorf("exp: a variant sweep needs at least one workload")
	}
	grid := make([]GridJob, 0, len(specs)*(1+len(variants)))
	for _, sp := range specs {
		if err := sp.Validate(); err != nil {
			return nil, err
		}
		grid = append(grid, GridJob{Config: base, Spec: sp})
		for _, v := range variants {
			cfg, vsp := v.Apply(base, sp)
			if err := cfg.Validate(); err != nil {
				return nil, fmt.Errorf("exp: variant %s: %w", v.Name, err)
			}
			if err := vsp.Validate(); err != nil {
				return nil, fmt.Errorf("exp: variant %s: %w", v.Name, err)
			}
			grid = append(grid, GridJob{Config: cfg, Spec: vsp})
		}
	}
	return grid, nil
}

// variantRows splits results laid out as VariantGrid produces them
// into one (baseline, variant results) pair per spec, rejecting a
// slice that does not match the stride. what names the sweep in the
// error.
func variantRows(what string, specs []workload.Spec, n int, res []sim.Results) ([]sim.Results, [][]sim.Results, error) {
	stride := 1 + n
	if len(res) != len(specs)*stride {
		return nil, nil, fmt.Errorf("exp: %s merge: %d results for %d workloads (want %d)",
			what, len(res), len(specs), len(specs)*stride)
	}
	bases := make([]sim.Results, len(specs))
	variants := make([][]sim.Results, len(specs))
	for i := range specs {
		bases[i] = res[i*stride]
		variants[i] = res[i*stride+1 : (i+1)*stride]
	}
	return bases, variants, nil
}
