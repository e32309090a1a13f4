package exp_test

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/api"
	"repro/internal/config"
)

// The sweep goldens pin what `gpusim sweep <kind>` prints
// (scripts/regen-golden.sh regenerates them with the real binary):
// the table, the CSV and the JSON report, whose bytes are the payload
// gpusimd caches and serves. The reports here come from the
// registry's request resolver and local compute in internal/api — the
// one path the CLI, gpusimd and gpusimc share — at serial and parallel
// worker counts. This is an external test package because
// internal/api imports internal/exp.

// testGoldenSweep pins every rendering of one computed report: its
// JSON against <kind>.json.golden and, for a kind with a table form,
// its table against <kind>.golden and its CSV against
// <kind>.csv.golden.
func testGoldenSweep(t *testing.T, kind string, workloads ...string) {
	t.Helper()
	read := func(name string) string {
		data, err := os.ReadFile(filepath.Join("testdata", name))
		if err != nil {
			t.Fatal(err)
		}
		return string(data)
	}
	wantJSON := read(kind + ".json.golden")
	warmup, window, seed := int64(2000), int64(5000), uint64(1)
	for _, j := range []int{1, 4} {
		req := api.JobRequest{Workloads: workloads, Seed: &seed, Warmup: &warmup, Window: &window, Parallelism: j}
		sw, err := api.ResolveSweep(kind, config.GTX480Baseline(), req, j, math.MaxInt64)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := sw.Compute()
		if err != nil {
			t.Fatal(err)
		}
		data, err := json.Marshal(rep)
		if err != nil {
			t.Fatal(err)
		}
		if got := string(data) + "\n"; got != wantJSON {
			t.Errorf("j=%d: %s JSON drifted from golden:\n got: %s\nwant: %s", j, kind, got, wantJSON)
		}
		table, ok := rep.(interface {
			String() string
			CSV() string
		})
		if !ok {
			continue
		}
		if got, want := table.String(), read(kind+".golden"); got != want {
			t.Errorf("j=%d: %s report drifted from golden:\n got:\n%s\nwant:\n%s", j, kind, got, want)
		}
		if got, want := table.CSV(), read(kind+".csv.golden"); got != want {
			t.Errorf("j=%d: %s CSV drifted from golden:\n got:\n%s\nwant:\n%s", j, kind, got, want)
		}
	}
}

// TestGoldenLatsweepReport pins Fig. 1 over the paper's full 0–800
// axis, plot and commentary included.
func TestGoldenLatsweepReport(t *testing.T) {
	testGoldenSweep(t, "latsweep", "sc", "cfd")
}

// TestGoldenOccupancyReport pins §III over the default suite, detail
// block included.
func TestGoldenOccupancyReport(t *testing.T) {
	testGoldenSweep(t, "occupancy")
}

// TestGoldenDesignSpaceReport pins Table I and the §IV speedups over
// the default suite.
func TestGoldenDesignSpaceReport(t *testing.T) {
	testGoldenSweep(t, "designspace")
}

func TestGoldenBottleneckReport(t *testing.T) {
	testGoldenSweep(t, "bottleneck", "sc", "leukocyte", "kmeans")
}

// TestGoldenScenariosReport pins the phase-mix comparison over the
// kind's default set, every built-in scenario.
func TestGoldenScenariosReport(t *testing.T) {
	testGoldenSweep(t, "scenarios")
}

func TestGoldenAdviseReport(t *testing.T) {
	testGoldenSweep(t, "advise", "sc", "kmeans")
}

func TestGoldenMitigationReport(t *testing.T) {
	testGoldenSweep(t, "mitigation", "kmeans", "bfs")
}

// TestGoldenRunReport pins the run batch, which has only a JSON form:
// the ordered per-workload envelopes, job keys included.
func TestGoldenRunReport(t *testing.T) {
	testGoldenSweep(t, "run", "sc", "kmeans")
}
