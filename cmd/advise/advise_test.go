// Package advise_test checks `gpusim sweep advise`, which replaced the
// advise command. The package holds only these tests, so the checks
// the advise command carried keep their names.
package advise_test

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/clitest"
)

// TestAdviseGolden pins the real binary's table against the same
// golden file the library test uses, at -j 1 and -j 4 — the ranking
// must be deterministic at any parallelism.
func TestAdviseGolden(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("..", "..", "internal", "exp", "testdata", "advise.golden"))
	if err != nil {
		t.Fatal(err)
	}
	bin := clitest.Build(t, "repro/cmd/gpusim")
	args := []string{"sweep", "advise", "-workloads", "sc,kmeans", "-warmup", "2000", "-window", "5000", "-seed", "1"}
	for _, j := range []string{"1", "4"} {
		out, _ := clitest.Run(t, bin, append(args, "-j", j)...)
		if out != string(want) {
			t.Errorf("-j %s: advise output drifted from golden:\n got:\n%s\nwant:\n%s", j, out, want)
		}
	}
}

// TestAdviseCSVAndJSON checks the alternative output encodings: CSV
// carries one ranked line per (workload, intervention), and -json
// emits the exact report document the sweep endpoints serve.
func TestAdviseCSVAndJSON(t *testing.T) {
	bin := clitest.Build(t, "repro/cmd/gpusim")
	args := []string{"sweep", "advise", "-workloads", "sc", "-warmup", "100", "-window", "300"}

	csv, _ := clitest.Run(t, bin, append(args, "-csv")...)
	if !strings.HasPrefix(csv, "workload,baseline_ipc,bound,rank,intervention,") {
		t.Fatalf("unexpected CSV header:\n%s", csv)
	}
	lines := strings.Split(strings.TrimSpace(csv), "\n")
	if len(lines) != 8 { // header + 7 interventions
		t.Fatalf("CSV should have header + 7 rows, got %d lines:\n%s", len(lines), csv)
	}

	out, _ := clitest.Run(t, bin, append(args, "-json")...)
	var rep struct {
		Rows []struct {
			Workload      string `json:"workload"`
			Dominant      string `json:"dominant"`
			Interventions []struct {
				Name string `json:"name"`
			} `json:"interventions"`
		} `json:"rows"`
	}
	if err := json.Unmarshal([]byte(out), &rep); err != nil {
		t.Fatalf("-json output does not decode: %v\n%s", err, out)
	}
	if len(rep.Rows) != 1 || rep.Rows[0].Workload != "sc" || len(rep.Rows[0].Interventions) != 7 {
		t.Errorf("unexpected report shape: %s", out)
	}
}

// TestAdviseUnknownWorkload: a bad name must exit non-zero with a
// useful message, not fall back to the default sweep.
func TestAdviseUnknownWorkload(t *testing.T) {
	bin := clitest.Build(t, "repro/cmd/gpusim")
	stderr := clitest.RunExpectError(t, bin, "sweep", "advise", "-workloads", "nosuch")
	if !strings.Contains(stderr, "nosuch") {
		t.Fatalf("unexpected error for unknown workload: %s", stderr)
	}
}
