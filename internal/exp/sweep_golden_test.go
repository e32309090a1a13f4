package exp_test

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/api"
	"repro/internal/config"
)

// The sweep goldens pin the tables `gpusim sweep <kind>` prints
// (scripts/regen-golden.sh regenerates them with the real binary). The
// reports here come from the registry's request resolver and local
// compute in internal/api — the one path the CLI, gpusimd and gpusimc
// share — at serial and parallel worker counts. This is an external
// test package because internal/api imports internal/exp.

func testGoldenSweep(t *testing.T, kind, golden string, workloads ...string) {
	t.Helper()
	want, err := os.ReadFile(filepath.Join("testdata", golden))
	if err != nil {
		t.Fatal(err)
	}
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
		if got := rep.(fmt.Stringer).String(); got != string(want) {
			t.Errorf("j=%d: %s report drifted from golden:\n got:\n%s\nwant:\n%s", j, kind, got, want)
		}
	}
}

// TestGoldenLatsweepReport pins Fig. 1 over the paper's full 0–800
// axis, plot and commentary included.
func TestGoldenLatsweepReport(t *testing.T) {
	testGoldenSweep(t, "latsweep", "latsweep.golden", "sc", "cfd")
}

// TestGoldenOccupancyReport pins §III over the default suite, detail
// block included.
func TestGoldenOccupancyReport(t *testing.T) {
	testGoldenSweep(t, "occupancy", "occupancy.golden")
}

// TestGoldenDesignSpaceReport pins Table I and the §IV speedups over
// the default suite.
func TestGoldenDesignSpaceReport(t *testing.T) {
	testGoldenSweep(t, "designspace", "designspace.golden")
}

func TestGoldenBottleneckReport(t *testing.T) {
	testGoldenSweep(t, "bottleneck", "bottleneck.golden", "sc", "leukocyte", "kmeans")
}

func TestGoldenAdviseReport(t *testing.T) {
	testGoldenSweep(t, "advise", "advise.golden", "sc", "kmeans")
}

func TestGoldenMitigationReport(t *testing.T) {
	testGoldenSweep(t, "mitigation", "mitigation.golden", "kmeans", "bfs")
}
