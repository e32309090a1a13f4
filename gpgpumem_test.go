package gpgpumem

import (
	"context"
	"strings"
	"testing"
)

func TestDefaultConfigIsPaperBaseline(t *testing.T) {
	cfg := DefaultConfig()
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	if cfg.Core.NumSMs != 15 || cfg.L2.Partitions != 6 {
		t.Fatalf("not a GTX480 shape: %d SMs, %d partitions", cfg.Core.NumSMs, cfg.L2.Partitions)
	}
	if cfg.L2.AccessQueue != 8 || cfg.DRAM.SchedQueue != 16 || cfg.Core.MemPipelineWidth != 10 {
		t.Fatalf("Table I baseline values wrong")
	}
}

func TestSuiteMatchesFigureLegend(t *testing.T) {
	want := []string{"cfd", "dwt2d", "leukocyte", "nn", "nw", "sc", "lbm", "ss"}
	suite := Suite()
	if len(suite) != len(want) {
		t.Fatalf("suite size %d", len(suite))
	}
	for i, w := range suite {
		if w.Name() != want[i] {
			t.Fatalf("suite[%d] = %s, want %s", i, w.Name(), want[i])
		}
	}
}

func TestSystemMeasure(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Core.NumSMs = 4
	cfg.L2.Partitions = 2
	wl, err := WorkloadByName("sc")
	if err != nil {
		t.Fatal(err)
	}
	sys, err := NewSystem(cfg, wl)
	if err != nil {
		t.Fatal(err)
	}
	res := sys.Measure(1500, 4000)
	if res.Cycles != 4000 || res.IPC <= 0 {
		t.Fatalf("bad measurement: %+v", res)
	}
	if sys.Cycle() != 5500 {
		t.Fatalf("cycle = %d", sys.Cycle())
	}
}

func TestCustomWorkloadSpec(t *testing.T) {
	spec := WorkloadSpec{
		SpecName: "custom", Warps: 4, ComputePerMem: 3, DepDist: 2,
		AccessPattern: Gather, WorkingSetLines: 512, Shared: true,
		LinesPerAccess: 2,
	}
	cfg := DefaultConfig()
	cfg.Core.NumSMs = 2
	cfg.L2.Partitions = 2
	sys, err := NewSystem(cfg, spec)
	if err != nil {
		t.Fatal(err)
	}
	res := sys.Measure(500, 2000)
	if res.L1.Accesses == 0 {
		t.Fatalf("custom workload generated no traffic")
	}
}

func TestTableIRendered(t *testing.T) {
	rows := TableI(DefaultConfig())
	if len(rows) != 13 {
		t.Fatalf("Table I rows = %d", len(rows))
	}
}

func TestParseScalingSetRoundTrip(t *testing.T) {
	s, err := ParseScalingSet("l2+dram")
	if err != nil || s != ScaleL2DRAM {
		t.Fatalf("parse: %v %v", s, err)
	}
	if !strings.Contains(ScaleL2DRAM.String(), "L2") {
		t.Fatalf("string: %v", ScaleL2DRAM)
	}
}

func TestScalingAppliesThroughPublicAPI(t *testing.T) {
	scaled := ScaleL2.Apply(DefaultConfig())
	if scaled.L2.AccessQueue != 32 || scaled.Icnt.FlitSizeBytes != 16 {
		t.Fatalf("scaling not applied: %+v", scaled.L2)
	}
}

// TestRunLatencyToleranceSmall runs the latsweep kind through RunSweep
// on a shrunken inline config: one curve over Fig. 1's full axis, with
// latency 0 no slower than 600.
func TestRunLatencyToleranceSmall(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Core.NumSMs = 3
	cfg.L2.Partitions = 2
	raw, err := cfg.ToJSON()
	if err != nil {
		t.Fatal(err)
	}
	warmup, window := int64(1000), int64(3000)
	rep, err := RunSweep("latsweep", JobRequest{Workloads: []string{"sc"}, Config: raw, Warmup: &warmup, Window: &window})
	if err != nil {
		t.Fatal(err)
	}
	curves := rep.(LatencyReport).Curves
	lats := DefaultLatencies()
	if len(curves) != 1 || len(curves[0].Points) != len(lats) {
		t.Fatalf("curves: %+v", curves)
	}
	pts := curves[0].Points
	if pts[0].Latency != 0 || pts[12].Latency != 600 || pts[0].Normalized < pts[12].Normalized {
		t.Fatalf("latency 0 should not be slower than 600: %+v", pts)
	}
}

// TestDeterminismAcrossRunner is the regression guard for the
// parallel experiment engine's core invariant: the same
// (config, workload, seed) measured twice serially and once through
// the parallel runner yields identical Results. Each simulated GPU
// owns its entire state — including the seeded RNG behind the
// workload address streams — so worker count must not change a bit.
func TestDeterminismAcrossRunner(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Core.NumSMs = 4
	cfg.L2.Partitions = 2
	cfg.Seed = 7

	var jobs []Job
	for _, name := range []string{"sc", "lbm", "cfd", "dwt2d"} {
		wl, err := WorkloadByName(name)
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, Job{Config: cfg, Workload: wl, WarmupCycles: 500, WindowCycles: 1500})
	}

	serial1, err := MeasureBatch(context.Background(), jobs, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	serial2, err := MeasureBatch(context.Background(), jobs, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := MeasureBatch(context.Background(), jobs, 8, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range jobs {
		if serial1[i] != serial2[i] {
			t.Fatalf("job %d: two serial runs differ — simulation itself is nondeterministic", i)
		}
		if serial1[i] != parallel[i] {
			t.Fatalf("job %d: parallel runner diverged from serial:\n serial   %+v\n parallel %+v",
				i, serial1[i], parallel[i])
		}
	}
}
