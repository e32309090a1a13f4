package exp

import (
	"strings"
	"testing"

	"repro/internal/config"
)

// TestMitigationGridLayout: the grid is baseline-first with one entry
// per mitigation, per spec, every mitigated config validates, and
// building the grid mutates neither the base config nor the specs
// (Apply purity).
func TestMitigationGridLayout(t *testing.T) {
	base := config.GTX480Baseline()
	orig := base
	specs := adviseSpecs(t, "sc", "kmeans")

	mits := Mitigations()
	grid, err := VariantGrid(base, specs, mits)
	if err != nil {
		t.Fatal(err)
	}
	stride := 1 + len(mits)
	if len(grid) != len(specs)*stride {
		t.Fatalf("grid has %d entries, want %d", len(grid), len(specs)*stride)
	}
	for i, sp := range specs {
		b := grid[i*stride]
		if b.Config != base || b.Spec.SpecName != sp.SpecName {
			t.Errorf("grid[%d] is not %s's baseline", i*stride, sp.SpecName)
		}
		for j, m := range mits {
			g := grid[i*stride+1+j]
			if g.Config == base {
				t.Errorf("mitigation %s left the config unchanged for %s", m.Name, sp.SpecName)
			}
			if g.Config.Policy == (config.PolicyConfig{}) {
				t.Errorf("mitigation %s set no policy field for %s", m.Name, sp.SpecName)
			}
		}
	}
	if base != orig {
		t.Error("VariantGrid mutated the base config")
	}

	if _, err := VariantGrid(base, nil, mits); err == nil || !strings.Contains(err.Error(), "at least one workload") {
		t.Errorf("empty grid error = %v", err)
	}
}

// TestBuildMitigationReportShape: every row ranks all mitigations by
// IPC recovered, the CSV header is stable, and the merge half rejects
// a result slice that does not match the grid stride.
func TestBuildMitigationReportShape(t *testing.T) {
	cfg := config.GTX480Baseline()
	specs := adviseSpecs(t, "sc")
	p := goldenParams(2)
	grid, err := VariantGrid(cfg, specs, Mitigations())
	if err != nil {
		t.Fatal(err)
	}
	rep, err := BuildMitigationReport(specs, p, runGrid(t, grid, p))
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Rows) != 1 || len(rep.Rows[0].Policies) != len(Mitigations()) {
		t.Fatalf("report shape: %d rows, %d policies", len(rep.Rows), len(rep.Rows[0].Policies))
	}
	for i := 1; i < len(rep.Rows[0].Policies); i++ {
		a, b := rep.Rows[0].Policies[i-1], rep.Rows[0].Policies[i]
		if a.DeltaIPC < b.DeltaIPC {
			t.Errorf("ranking not descending at %d: %f < %f", i, a.DeltaIPC, b.DeltaIPC)
		}
	}
	if !strings.HasPrefix(rep.CSV(), "workload,baseline_ipc,bound,rank,policy,") {
		t.Errorf("CSV header: %q", strings.SplitN(rep.CSV(), "\n", 2)[0])
	}

	if _, err := BuildMitigationReport(specs, p, nil); err == nil || !strings.Contains(err.Error(), "mitigation merge") {
		t.Errorf("mismatched result count error = %v", err)
	}
}
