package exp

import (
	"reflect"
	"testing"

	"repro/internal/config"
	"repro/internal/runner"
	"repro/internal/workload"
)

// testConfig shrinks the GPU so each harness runs in milliseconds.
func testConfig() config.Config {
	cfg := config.GTX480Baseline()
	cfg.Core.NumSMs = 4
	cfg.L2.Partitions = 2
	return cfg
}

func testSuite(t *testing.T) []workload.Spec {
	t.Helper()
	return adviseSpecs(t, "sc", "cfd", "nn")
}

func testParams(parallelism int) RunParams {
	return RunParams{WarmupCycles: 500, WindowCycles: 1500, Parallelism: parallelism}
}

// TestFig1SuiteParallelismInvariant: the full Fig. 1 report renders
// byte-identically at any worker count.
func TestFig1SuiteParallelismInvariant(t *testing.T) {
	cfg, suite := testConfig(), testSuite(t)
	lats := []int64{0, 300, 600}
	serial := fig1Report(t, cfg, suite, lats, testParams(1))
	parallel := fig1Report(t, cfg, suite, lats, testParams(8))
	if serial.String() != parallel.String() {
		t.Fatalf("Fig. 1 report differs across parallelism\nserial:\n%s\nparallel:\n%s",
			serial.String(), parallel.String())
	}
}

// TestOccupancyParallelismInvariant: the §III report is identical at
// any worker count.
func TestOccupancyParallelismInvariant(t *testing.T) {
	cfg, suite := testConfig(), testSuite(t)
	serial := occupancyReport(t, cfg, suite, testParams(1))
	parallel := occupancyReport(t, cfg, suite, testParams(4))
	if serial.String() != parallel.String() {
		t.Fatalf("§III report differs across parallelism\nserial:\n%s\nparallel:\n%s",
			serial.String(), parallel.String())
	}
}

// TestDesignSpaceParallelismInvariant: the §IV report is identical at
// any worker count.
func TestDesignSpaceParallelismInvariant(t *testing.T) {
	cfg, suite := testConfig(), testSuite(t)
	sets := []config.ScalingSet{config.ScaleL2, config.ScaleL2DRAM}
	serial := designSpace(t, cfg, suite, sets, testParams(1))
	parallel := designSpace(t, cfg, suite, sets, testParams(8))
	if serial.String() != parallel.String() {
		t.Fatalf("§IV report differs across parallelism\nserial:\n%s\nparallel:\n%s",
			serial.String(), parallel.String())
	}
}

// TestRunFig1MatchesSuiteColumn: a one-workload Fig. 1 is the
// workload's column of a multi-workload one — each curve depends on
// its own measurements only.
func TestRunFig1MatchesSuiteColumn(t *testing.T) {
	cfg, suite := testConfig(), testSuite(t)
	lats := []int64{0, 400}
	one := fig1Report(t, cfg, suite[:1], lats, testParams(4))
	all := fig1Report(t, cfg, suite, lats, testParams(1))
	if !reflect.DeepEqual(one.Curves[0], all.Curves[0]) {
		t.Fatalf("one-workload curve diverges from its suite column: %+v vs %+v", one.Curves[0], all.Curves[0])
	}
}

// TestBaselinesMatchesMeasure: a batch of baseline measurements agrees
// with the single-job path.
func TestBaselinesMatchesMeasure(t *testing.T) {
	cfg, suite := testConfig(), testSuite(t)
	batch := variantRows(t, cfg, suite, nil, testParams(4)).Bases
	for i, sp := range suite {
		p := testParams(1)
		single, err := runner.Execute(runner.Job{Config: cfg, Workload: sp, WarmupCycles: p.WarmupCycles, WindowCycles: p.WindowCycles})
		if err != nil {
			t.Fatal(err)
		}
		if batch[i] != single {
			t.Fatalf("baseline for %s differs between batch and runner.Execute", sp.SpecName)
		}
	}
}
