package main

import (
	"encoding/json"
	"os"
	"testing"
)

func TestTailLevelLeavesTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{10000, 99.9}, {9999, 99}, {2000, 99}, {1000, 99}, {999, 90},
		{136, 90}, {100, 90}, {99, 50}, {20, 50}, {1, 50},
	} {
		if got := tailLevel(c.n); got != c.want {
			t.Errorf("tailLevel(%d) = p%g, want p%g", c.n, got, c.want)
		}
	}
}

func TestPercentileIsNearestRank(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[len(xs)-1-i] = float64(i + 1) // unsorted on purpose
	}
	for p, want := range map[float64]float64{90: 90, 99: 99, 99.9: 100, 50: 50.5} {
		if got := percentile(xs, p); got != want {
			t.Errorf("p%g = %g, want %g", p, got, want)
		}
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median of 3 samples = %g, want 2", got)
	}
	if got := percentile(nil, 99); got != 0 {
		t.Errorf("p99 of no samples = %g, want 0", got)
	}
}

func TestVerifyDigest(t *testing.T) {
	rec := newRecorder(nil)
	if got := verifyDigest(rec, "ab", ""); got != "unpinned" || rec.attempted != 0 {
		t.Errorf("no pin: %s, %d attempted", got, rec.attempted)
	}
	if got := verifyDigest(rec, "ab", "ab"); got != "pinned" || rec.failed != 0 {
		t.Errorf("matching pin: %s, %d failed", got, rec.failed)
	}
	if got := verifyDigest(rec, "ab", "cd"); got != "mismatch" || rec.failed != 1 {
		t.Errorf("wrong digest: %s, %d failed", got, rec.failed)
	}
}

// TestBenchmarkJSONMatches holds the repository's BENCHMARK.json to
// the workloads and metrics this program reports.
func TestBenchmarkJSONMatches(t *testing.T) {
	data, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type def struct{ Name, Unit string }
	var doc struct {
		Workloads []def
		EndToEnd  []def `json:"end_to_end"`
		PerLayer  []def `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(doc.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if doc.Workloads[i].Name != w.name {
			t.Errorf("workload %d: BENCHMARK.json %q, program %q", i, doc.Workloads[i].Name, w.name)
		}
	}
	for _, c := range []struct {
		name string
		json []def
		prog []metricDef
	}{{"end_to_end", doc.EndToEnd, endToEnd}, {"per_layer", doc.PerLayer, perLayer}} {
		if len(c.json) != len(c.prog) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, the program %d", c.name, len(c.json), len(c.prog))
			continue
		}
		for i, d := range c.prog {
			if c.json[i].Name != d.name || c.json[i].Unit != d.unit {
				t.Errorf("%s %d: BENCHMARK.json %s %s, program %s %s", c.name, i, c.json[i].Name, c.json[i].Unit, d.name, d.unit)
			}
		}
	}
}

// TestWorkloadsSmoke runs every workload untraced and traced at the
// tiny size: both runs must be correct and report every metric.
func TestWorkloadsSmoke(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			res, err := measureRun(w, 3, 0, tiny, "")
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Fatalf("untraced: correct %v, %d of %d failed", res.Correct, res.Failed, res.Attempted)
			}
			for _, d := range endToEnd {
				if m, ok := res.Metrics[d.name]; !ok || m.Value <= 0 || m.Unit != d.unit {
					t.Errorf("untraced %s = %+v", d.name, m)
				}
			}
			res, err = traceRun(w, 3, 0, tiny, "", t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 {
				t.Fatalf("traced: correct %v, %d of %d failed", res.Correct, res.Failed, res.Attempted)
			}
			if len(res.Metrics) != len(perLayer) {
				t.Errorf("traced run reports %d metrics, want %d", len(res.Metrics), len(perLayer))
			}
			if res.Metrics["sim.event_speedup_x"].Value <= 0 {
				t.Errorf("no engine probe ran")
			}
		})
	}
}
