// The check of `gpusim -workload-file ... -fixed-latency N`, one
// Fig. 1 point of a user-defined spec, keeps the name the latsweep
// command's test had; `gpusim sweep latsweep` over the built-in suite
// is pinned by the latsweep golden in sweep_test.go.

package main_test

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/clitest"
)

// TestLatsweepWorkloadFile: a user JSON spec runs at a fixed L1 miss
// latency through the real binary, and the fixed latency is what the
// report's miss latency shows.
func TestLatsweepWorkloadFile(t *testing.T) {
	bin := clitest.Build(t, "repro/cmd/gpusim")
	spec := filepath.Join(t.TempDir(), "spec.json")
	specJSON := `{"name":"myk","warps":4,"dep_dist":1,"compute_per_mem":2,
	  "access_pattern":"thrash","working_set_lines":4096,"lines_per_access":2,"shared":true}`
	if err := os.WriteFile(spec, []byte(specJSON), 0o644); err != nil {
		t.Fatal(err)
	}
	args := []string{"-workload-file", spec, "-warmup", "100", "-window", "300"}
	fixed, _ := clitest.Run(t, bin, append(args, "-fixed-latency", "200")...)
	if !strings.Contains(fixed, "workload myk") {
		t.Fatalf("spec missing from the report:\n%s", fixed)
	}
	hierarchy, _ := clitest.Run(t, bin, args...)
	if fixed == hierarchy {
		t.Fatalf("-fixed-latency 200 did not change the measurement:\n%s", fixed)
	}
}
