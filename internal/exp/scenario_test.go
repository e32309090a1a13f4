package exp

import (
	"strings"
	"testing"

	"repro/internal/workload"
)

func testScenarios(t *testing.T) []workload.Spec {
	t.Helper()
	var out []workload.Spec
	for _, n := range []string{"kmeans", "dct8x8"} {
		s, err := workload.SpecByName(n)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, s)
	}
	return out
}

// scenarioReport measures the scenario grid and builds its report.
func scenarioReport(t *testing.T, scenarios []workload.Spec, p RunParams) ScenarioReport {
	t.Helper()
	grid, err := ScenarioGrid(testConfig(), scenarios)
	if err != nil {
		t.Fatal(err)
	}
	return BuildScenarioReport(scenarios, runGrid(t, grid, p))
}

func TestScenarioSweepComparesControls(t *testing.T) {
	rep := scenarioReport(t, testScenarios(t), testParams(1))
	if len(rep.Rows) != 2 {
		t.Fatalf("rows = %d, want 2", len(rep.Rows))
	}
	for _, row := range rep.Rows {
		if row.Control != row.Scenario+"-fixed" {
			t.Errorf("%s: control named %q", row.Scenario, row.Control)
		}
		if row.Phases != 2 {
			t.Errorf("%s: phase count %d, want 2", row.Scenario, row.Phases)
		}
		if row.ScenarioIPC <= 0 || row.ControlIPC <= 0 {
			t.Errorf("%s: non-positive IPCs: %+v", row.Scenario, row)
		}
		if row.Ratio <= 0 {
			t.Errorf("%s: ratio %f", row.Scenario, row.Ratio)
		}
	}
	s := rep.String()
	if !strings.Contains(s, "kmeans") || !strings.Contains(s, "dct8x8") {
		t.Fatalf("report missing scenarios:\n%s", s)
	}
	csv := rep.CSV()
	if len(strings.Split(strings.TrimSpace(csv), "\n")) != 3 {
		t.Fatalf("csv shape wrong:\n%s", csv)
	}
}

// TestScenarioSweepParallelismInvariant: the sweep report renders
// byte-identically at any worker count, like every other harness.
func TestScenarioSweepParallelismInvariant(t *testing.T) {
	scen := testScenarios(t)
	serial := scenarioReport(t, scen, testParams(1))
	parallel := scenarioReport(t, scen, testParams(4))
	if serial.String() != parallel.String() {
		t.Fatalf("scenario sweep differs across parallelism\nserial:\n%s\nparallel:\n%s",
			serial.String(), parallel.String())
	}
}

func TestScenarioSweepRejectsSinglePhase(t *testing.T) {
	sc, err := workload.SpecByName("sc")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ScenarioGrid(testConfig(), []workload.Spec{sc}); err == nil {
		t.Fatalf("expected error for single-phase spec")
	}
	if _, err := ScenarioGrid(testConfig(), nil); err == nil {
		t.Fatalf("expected error for empty scenario list")
	}
}
