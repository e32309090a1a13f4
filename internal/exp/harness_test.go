package exp

import (
	"context"
	"testing"

	"repro/internal/config"
	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/workload"
)

// The harness helpers compose a sweep the way the internal/api
// registry does — grid, one batch on the worker pool, build half — so
// the tests here exercise exactly the halves the sweep kinds pair.

// runGrid measures a sweep grid as one batch on the worker pool.
func runGrid(t *testing.T, grid []GridJob, p RunParams) []sim.Results {
	t.Helper()
	jobs := make([]runner.Job, len(grid))
	for i, g := range grid {
		jobs[i] = job(g.Config, g.Spec, p)
	}
	res, err := runner.Run(context.Background(), jobs, runner.Options{Parallelism: p.Parallelism})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// variantRows measures the "baseline + variants" grid of specs on
// cfg and splits it per workload; with no variants, Bases holds one
// measurement per spec.
func variantRows(t *testing.T, cfg config.Config, specs []workload.Spec, variants []Perturbation, p RunParams) VariantRows {
	t.Helper()
	grid, err := VariantGrid(cfg, specs, variants)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := SplitVariantRows("test", len(specs), len(variants), runGrid(t, grid, p))
	if err != nil {
		t.Fatal(err)
	}
	return rows
}

// fig1Report is the latsweep sweep at the given latency axis.
func fig1Report(t *testing.T, cfg config.Config, specs []workload.Spec, lats []int64, p RunParams) Fig1Report {
	t.Helper()
	return BuildFig1Report(specs, lats, variantRows(t, cfg, specs, LatencyVariants(lats), p))
}

// occupancyReport is the occupancy sweep.
func occupancyReport(t *testing.T, cfg config.Config, specs []workload.Spec, p RunParams) OccupancyReport {
	t.Helper()
	return BuildOccupancyReport(cfg, specs, variantRows(t, cfg, specs, nil, p).Bases)
}

// designSpace is the designspace sweep over the given scaling sets.
func designSpace(t *testing.T, cfg config.Config, specs []workload.Spec, sets []config.ScalingSet, p RunParams) DesignSpaceResult {
	t.Helper()
	return BuildDesignSpaceResult(cfg, specs, sets, variantRows(t, cfg, specs, ScalingVariants(sets), p))
}
