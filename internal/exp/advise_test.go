package exp

import (
	"strings"
	"testing"

	"repro/internal/config"
	"repro/internal/workload"
)

func adviseSpecs(t *testing.T, names ...string) []workload.Spec {
	t.Helper()
	specs := make([]workload.Spec, len(names))
	for i, n := range names {
		sp, err := workload.SpecByName(n)
		if err != nil {
			t.Fatal(err)
		}
		specs[i] = sp
	}
	return specs
}

// TestAdviseGridLayout: the grid is baseline-first with one entry per
// perturbation, per spec, and building it mutates neither the base
// config nor the input specs (Apply purity).
func TestAdviseGridLayout(t *testing.T) {
	base := config.GTX480Baseline()
	orig := base
	specs := adviseSpecs(t, "sc", "kmeans")
	origKmeans := specs[1]

	perts := Perturbations()
	grid, err := VariantGrid(base, specs, perts)
	if err != nil {
		t.Fatal(err)
	}
	stride := 1 + len(perts)
	if len(grid) != len(specs)*stride {
		t.Fatalf("grid has %d entries, want %d", len(grid), len(specs)*stride)
	}
	for i, sp := range specs {
		b := grid[i*stride]
		if b.Config != base || b.Spec.SpecName != sp.SpecName {
			t.Errorf("grid[%d] is not %s's baseline", i*stride, sp.SpecName)
		}
		for j, pt := range perts {
			g := grid[i*stride+1+j]
			if g.Config == base && g.Spec.SpecName == sp.SpecName {
				t.Errorf("perturbation %s left both config and spec unchanged for %s", pt.Name, sp.SpecName)
			}
		}
	}
	if base != orig {
		t.Error("VariantGrid mutated the base config")
	}
	if specs[1].SpecName != origKmeans.SpecName || len(specs[1].Phases) != len(origKmeans.Phases) {
		t.Error("VariantGrid mutated an input spec")
	}

	if _, err := VariantGrid(base, nil, perts); err == nil || !strings.Contains(err.Error(), "at least one workload") {
		t.Errorf("empty grid error = %v", err)
	}
}

// TestCoalesced: the variant renames the spec, forces one line per
// access at the top level and in every phase, and leaves the original
// untouched.
func TestCoalesced(t *testing.T) {
	sp := adviseSpecs(t, "kmeans")[0]
	before := sp.Phases[0].LinesPerAccess
	co := Coalesced(sp)
	if co.SpecName != sp.SpecName+"-coalesced" {
		t.Errorf("coalesced name = %q", co.SpecName)
	}
	if co.LinesPerAccess != 1 {
		t.Errorf("top-level LinesPerAccess = %d, want 1", co.LinesPerAccess)
	}
	for i, p := range co.Phases {
		if p.LinesPerAccess != 1 {
			t.Errorf("phase %d LinesPerAccess = %d, want 1", i, p.LinesPerAccess)
		}
	}
	if sp.Phases[0].LinesPerAccess != before {
		t.Error("Coalesced mutated the original spec's phases")
	}
	if err := co.Validate(); err != nil {
		t.Errorf("coalesced variant does not validate: %v", err)
	}
}

// TestBuildAdviseReportShape: every row ranks all variants of an
// explicit set — here the hardware perturbations extended with the
// policy ones.
func TestBuildAdviseReportShape(t *testing.T) {
	cfg := config.GTX480Baseline()
	specs := adviseSpecs(t, "sc")
	p := goldenParams(2)
	perts := append(Perturbations(), PolicyPerturbations()...)
	rep := BuildAdviseReport(specs, perts, p, variantRows(t, cfg, specs, perts, p))
	if len(rep.Rows) != 1 || len(rep.Rows[0].Interventions) != len(perts) {
		t.Fatalf("report shape: %d rows, %d interventions", len(rep.Rows), len(rep.Rows[0].Interventions))
	}
	for i := 1; i < len(rep.Rows[0].Interventions); i++ {
		a, b := rep.Rows[0].Interventions[i-1], rep.Rows[0].Interventions[i]
		if a.Score < b.Score {
			t.Errorf("ranking not descending at %d: %f < %f", i, a.Score, b.Score)
		}
	}
	if !strings.HasPrefix(rep.CSV(), "workload,baseline_ipc,bound,rank,") {
		t.Errorf("CSV header: %q", strings.SplitN(rep.CSV(), "\n", 2)[0])
	}
}
