package exp

import (
	"encoding/json"
	"regexp"
	"strings"
	"testing"

	"repro/internal/config"
	"repro/internal/sim"
	"repro/internal/workload"
)

// fastParams keeps harness tests quick.
func fastParams() RunParams { return RunParams{WarmupCycles: 1500, WindowCycles: 4000} }

// smallConfig shrinks the GPU for harness tests.
func smallConfig() config.Config {
	cfg := config.GTX480Baseline()
	cfg.Core.NumSMs = 4
	cfg.L2.Partitions = 2
	return cfg
}

func congested() workload.Spec {
	return workload.Spec{
		SpecName: "hammer", Warps: 24, ComputePerMem: 3, DepDist: 1,
		AccessPattern: workload.Thrash, WorkingSetLines: 1024,
		Shared: true, LinesPerAccess: 1,
	}
}

func TestMeasureProducesResults(t *testing.T) {
	r, err := Measure(smallConfig(), congested(), fastParams())
	if err != nil {
		t.Fatal(err)
	}
	if r.Cycles != 4000 || r.IPC <= 0 {
		t.Fatalf("bad window: %+v", r)
	}
}

func TestMeasureRejectsBadConfig(t *testing.T) {
	cfg := smallConfig()
	cfg.L1.Sets = 0
	if _, err := Measure(cfg, congested(), fastParams()); err == nil {
		t.Fatalf("expected error")
	}
}

func TestFig1CurveShape(t *testing.T) {
	lats := []int64{0, 200, 600, 1200}
	c := fig1Report(t, smallConfig(), []workload.Spec{congested()}, lats, fastParams()).Curves[0]
	if len(c.Points) != 4 {
		t.Fatalf("points = %d", len(c.Points))
	}
	// Monotone non-increasing normalized IPC.
	for i := 1; i < len(c.Points); i++ {
		if c.Points[i].Normalized > c.Points[i-1].Normalized*1.02 {
			t.Fatalf("curve not decreasing: %+v", c.Points)
		}
	}
	if c.PlateauSpeedup <= 1 {
		t.Fatalf("congested workload should speed up at 0 latency: %v", c.PlateauSpeedup)
	}
	// The crossover should land near the measured baseline latency.
	if c.CrossoverLatency <= 0 {
		t.Fatalf("no crossover found")
	}
	ratio := c.CrossoverLatency / c.BaselineAvgMissLatency
	if ratio < 0.4 || ratio > 2.5 {
		t.Fatalf("crossover %v inconsistent with baseline latency %v",
			c.CrossoverLatency, c.BaselineAvgMissLatency)
	}
}

func TestCrossoverInterpolation(t *testing.T) {
	pts := []LatencyPoint{
		{Latency: 0, Normalized: 3},
		{Latency: 100, Normalized: 2},
		{Latency: 200, Normalized: 0.5},
	}
	got := crossover(pts)
	// Between 100 (2.0) and 200 (0.5): crosses 1.0 at 100 + 100·(1/1.5).
	want := 100 + 100*(1.0/1.5)
	if got < want-1 || got > want+1 {
		t.Fatalf("crossover = %v, want ≈%v", got, want)
	}
}

func TestCrossoverEdgeCases(t *testing.T) {
	if got := crossover(nil); got != 0 {
		t.Fatalf("empty crossover = %v", got)
	}
	below := []LatencyPoint{{Latency: 50, Normalized: 0.8}}
	if got := crossover(below); got != 50 {
		t.Fatalf("all-below crossover = %v", got)
	}
	above := []LatencyPoint{{Latency: 0, Normalized: 3}, {Latency: 100, Normalized: 2}}
	if got := crossover(above); got != 100 {
		t.Fatalf("all-above crossover = %v", got)
	}
}

func TestDefaultLatenciesMatchFigure(t *testing.T) {
	lats := DefaultLatencies()
	if len(lats) != 17 || lats[0] != 0 || lats[16] != 800 || lats[1] != 50 {
		t.Fatalf("x-axis wrong: %v", lats)
	}
}

func TestOccupancyReport(t *testing.T) {
	rep := occupancyReport(t, smallConfig(), []workload.Spec{congested()}, fastParams())
	if len(rep.Rows) != 1 {
		t.Fatalf("rows = %d", len(rep.Rows))
	}
	row := rep.Rows[0]
	if row.L2AccessFull < 0 || row.L2AccessFull > 1 || row.DRAMSchedFull < 0 || row.DRAMSchedFull > 1 {
		t.Fatalf("occupancies out of range: %+v", row)
	}
	if rep.MeanL2AccessFull != row.L2AccessFull {
		t.Fatalf("mean != single row")
	}
	if !strings.Contains(rep.String(), "hammer") {
		t.Fatalf("report missing workload name")
	}
}

// TestOccupancyDetailCapacities: the detail block divides each mean
// occupancy by the measured config's queue depths, not the baseline's
// 8 and 16 — under the L2+DRAM scaling set they are 32 and 64.
func TestOccupancyDetailCapacities(t *testing.T) {
	cfg := config.ScaleL2DRAM.Apply(smallConfig())
	rep := occupancyReport(t, cfg, []workload.Spec{congested()}, fastParams())
	if rep.L2AccessCapacity != 32 || rep.DRAMSchedCapacity != 64 {
		t.Fatalf("capacities %d / %d, want 32 / 64", rep.L2AccessCapacity, rep.DRAMSchedCapacity)
	}
	_, detail, _ := strings.Cut(rep.String(), "per-benchmark detail")
	if !strings.Contains(detail, " / 32 ") || !strings.HasSuffix(detail, " / 64\n") {
		t.Errorf("detail block does not show the scaled capacities:\n%s", detail)
	}
	if row := rep.Rows[0]; row.L2AccessMeanOcc > 32 || row.DRAMSchedMeanOcc > 64 {
		t.Errorf("a mean occupancy exceeds its capacity: %+v", row)
	}
}

// TestReportsShowMeasuredArchitecture: §III is titled with the
// architecture it measured, and §IV's Table I is the measured base's,
// so an L2-scaled base shows its L2 access queue as 32 -> 128 entries.
func TestReportsShowMeasuredArchitecture(t *testing.T) {
	base := config.GTX480Baseline()
	custom := base
	custom.L2.HitLatency = 0
	specs := []workload.Spec{congested()}
	for want, cfg := range map[string]config.Config{
		"(baseline architecture)": base,
		"(L2+DRAM architecture)":  config.ScaleL2DRAM.Apply(base),
		"(custom architecture)":   custom,
	} {
		rep := BuildOccupancyReport(cfg, specs, make([]sim.Results, 1))
		if title, _, _ := strings.Cut(rep.String(), "\n"); !strings.HasSuffix(title, want) {
			t.Errorf("title %q, want it to end %q", title, want)
		}
	}
	sets := []config.ScalingSet{config.ScaleL2}
	ds := BuildDesignSpaceResult(config.ScaleL2.Apply(base), specs, sets, zeroRows(1, 1))
	if !regexp.MustCompile(`L2 access queue += +32 entries +128 entries`).MatchString(ds.String()) {
		t.Errorf("Table I does not show the L2-scaled base:\n%s", ds.String())
	}
}

// TestDecodedReportsRender: the architecture and Table I are not
// served, so a report decoded from a served response renders a
// neutral title and leaves Table I out rather than printing them
// blank. The decoded §IV result re-marshals to the served bytes, and
// an unknown scaling-set spelling fails to decode.
func TestDecodedReportsRender(t *testing.T) {
	base := config.ScaleL2.Apply(config.GTX480Baseline())
	specs := []workload.Spec{congested()}
	occ := BuildOccupancyReport(base, specs, make([]sim.Results, 1))
	data, err := json.Marshal(occ)
	if err != nil {
		t.Fatal(err)
	}
	var back OccupancyReport
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if title, _, _ := strings.Cut(back.String(), "\n"); title != "§III — queue full-of-usage occupancy" {
		t.Errorf("decoded §III title %q", title)
	}
	ds := BuildDesignSpaceResult(base, specs, []config.ScalingSet{config.ScaleL2}, zeroRows(1, 1))
	if !strings.HasPrefix(ds.String(), "Table I") {
		t.Errorf("built §IV renders:\n%s", ds.String())
	}
	data, err = json.Marshal(ds)
	if err != nil {
		t.Fatal(err)
	}
	var decoded DesignSpaceResult
	if err := json.Unmarshal(data, &decoded); err != nil {
		t.Fatal(err)
	}
	if again, err := json.Marshal(decoded); err != nil || string(again) != string(data) {
		t.Errorf("re-marshaled §IV result %s (%v), served %s", again, err, data)
	}
	if got := decoded.String(); !strings.HasPrefix(got, "§IV") || strings.Contains(got, "design space") {
		t.Errorf("decoded §IV renders:\n%s", got)
	}
	bad := strings.Replace(string(data), `"sets":["l2"]`, `"sets":["l3"]`, 1)
	if bad == string(data) {
		t.Fatalf("served §IV body has no l2 set: %s", data)
	}
	if err := json.Unmarshal([]byte(bad), &decoded); err == nil || !strings.Contains(err.Error(), `"l3"`) {
		t.Errorf("unknown scaling set decoded, err %v", err)
	}
}

func TestDesignSpaceSpeedups(t *testing.T) {
	sets := []config.ScalingSet{config.ScaleL2}
	res := designSpace(t, smallConfig(), []workload.Spec{congested()}, sets, fastParams())
	if len(res.Speedup) != 1 || len(res.Speedup[0]) != 1 {
		t.Fatalf("shape wrong: %+v", res.Speedup)
	}
	sp := res.SpeedupFor(config.ScaleL2)
	if sp <= 1.1 {
		t.Fatalf("L2 scaling speedup = %v for a hierarchy-bound workload", sp)
	}
	if res.SpeedupFor(config.ScaleDRAM) != 0 {
		t.Fatalf("unevaluated set should report 0")
	}
	out := res.String()
	for _, frag := range []string{"Table I", "hammer", "average"} {
		if !strings.Contains(out, frag) {
			t.Fatalf("report missing %q:\n%s", frag, out)
		}
	}
}

func TestFig1SuiteAndReportRendering(t *testing.T) {
	rep := fig1Report(t, smallConfig(), []workload.Spec{congested()}, []int64{0, 400}, fastParams())
	out := rep.String()
	for _, frag := range []string{"latency", "hammer", "crossover", "o=hammer", "paper Fig. 1"} {
		if !strings.Contains(out, frag) {
			t.Fatalf("report missing %q:\n%s", frag, out)
		}
	}
}

// zeroRows is an all-zero measurement of the given grid shape.
func zeroRows(workloads, variants int) VariantRows {
	rows, err := SplitVariantRows("zero", workloads, variants, make([]sim.Results, workloads*(1+variants)))
	if err != nil {
		panic(err)
	}
	return rows
}
