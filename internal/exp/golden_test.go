package exp

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/config"
	"repro/internal/workload"
)

// The golden files under testdata/ pin the exact bytes of the CLI
// reports (they predate the hot-path refactor: free lists, idle
// skipping, buffer reuse — none of which may change a single digit).
// CI additionally regenerates them with the real binaries and
// git-diffs; these tests enforce the same bytes at the library level,
// at serial and parallel worker counts.

// goldenParams is the pinned methodology of the golden runs:
// gpusim -workload sc,cfd -warmup 2000 -window 5000 -seed 1.
func goldenParams(parallelism int) RunParams {
	return RunParams{WarmupCycles: 2000, WindowCycles: 5000, Parallelism: parallelism}
}

func readGolden(t *testing.T, name string) string {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// testGoldenBatch pins the gpusim report of the named workloads on
// the baseline at serial and parallel worker counts.
func testGoldenBatch(t *testing.T, golden string, names ...string) {
	t.Helper()
	want := readGolden(t, golden)
	specs := adviseSpecs(t, names...)
	wls := make([]workload.Workload, len(specs))
	for i, sp := range specs {
		wls[i] = sp
	}
	cfg := config.GTX480Baseline()
	for _, j := range []int{1, 4} {
		p := goldenParams(j)
		res := variantRows(t, cfg, specs, nil, p).Bases
		got := BatchReport("baseline", p.WarmupCycles, p.WindowCycles, wls, res)
		if got != want {
			t.Errorf("j=%d: %s drifted from golden:\n got:\n%s\nwant:\n%s", j, golden, got, want)
		}
	}
}

func TestGoldenGpusimReport(t *testing.T) {
	testGoldenBatch(t, "gpusim-sc-cfd.golden", "sc", "cfd")
}

// TestGoldenGpusimKmeansReport pins one multi-phase scenario the same
// way the single-phase suite is pinned: the kmeans report must stay
// byte-identical at serial and parallel worker counts.
func TestGoldenGpusimKmeansReport(t *testing.T) {
	testGoldenBatch(t, "gpusim-kmeans.golden", "kmeans")
}
