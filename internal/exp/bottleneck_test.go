package exp

import (
	"strings"
	"testing"

	"repro/internal/config"
	"repro/internal/stats"
	"repro/internal/workload"
)

// bottleneckReport measures the golden scope — a memory-bound
// streaming benchmark, a compute-leaning one, and a multi-phase
// scenario — and builds its breakdown report.
func bottleneckReport(t *testing.T, p RunParams) BottleneckReport {
	t.Helper()
	cfg := config.GTX480Baseline()
	specs := adviseSpecs(t, "sc", "leukocyte", "kmeans")
	wls := make([]workload.Workload, len(specs))
	for i, sp := range specs {
		wls[i] = sp
	}
	res, err := Baselines(cfg, wls, p)
	if err != nil {
		t.Fatal(err)
	}
	return BuildBottleneckReport(cfg, specs, p, res)
}

// TestBottleneckStacksSumToIssueSlots enforces the report-level
// closure property: every row's stall categories account for exactly
// 100%% of its issue slots (window cycles × SMs) — no cycle lost, no
// cycle double-charged — and the rendered percentages come from the
// same breakdown.
func TestBottleneckStacksSumToIssueSlots(t *testing.T) {
	rep := bottleneckReport(t, RunParams{WarmupCycles: 500, WindowCycles: 1500, Parallelism: 2})
	for _, row := range rep.Rows {
		slots := row.Cycles * int64(row.SMs)
		if got := row.Stalls.Total(); got != slots {
			t.Errorf("%s: attributed %d cycles, want %d (%d cycles × %d SMs)",
				row.Workload, got, slots, row.Cycles, row.SMs)
		}
		var frac float64
		for c := stats.StallCause(0); c < stats.NumStallCauses; c++ {
			frac += row.Stalls.Frac(c)
		}
		if frac < 0.999999 || frac > 1.000001 {
			t.Errorf("%s: category fractions sum to %v, want 1", row.Workload, frac)
		}
	}
}

// TestBottleneckCSVHasAllRows sanity-checks the CSV renderer.
func TestBottleneckCSVHasAllRows(t *testing.T) {
	rep := bottleneckReport(t, RunParams{WarmupCycles: 200, WindowCycles: 600, Parallelism: 1})
	csv := rep.CSV()
	lines := strings.Split(strings.TrimSpace(csv), "\n")
	if len(lines) != 1+len(rep.Rows) {
		t.Fatalf("CSV has %d lines, want %d:\n%s", len(lines), 1+len(rep.Rows), csv)
	}
	if !strings.HasPrefix(lines[0], "workload,ipc,issue_slots,issue,") {
		t.Fatalf("unexpected CSV header: %s", lines[0])
	}
	for i, row := range rep.Rows {
		if !strings.HasPrefix(lines[i+1], row.Workload+",") {
			t.Errorf("CSV row %d = %q, want workload %q", i+1, lines[i+1], row.Workload)
		}
	}
}
