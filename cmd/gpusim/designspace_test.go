// The checks of `gpusim sweep designspace`, Table I and §IV, keep the
// names the designspace command's tests had.

package main_test

import (
	"strings"
	"testing"

	"repro/internal/clitest"
)

// TestDesignspaceSmoke: the §IV sweep runs on a tiny window, exits 0
// and prints the speedup table with one column per scaling set.
func TestDesignspaceSmoke(t *testing.T) {
	bin := clitest.Build(t, "repro/cmd/gpusim")
	out, _ := clitest.Run(t, bin, "sweep", "designspace", "-workloads", "sc", "-warmup", "100", "-window", "300", "-j", "2")
	for _, want := range []string{"§IV", "L2+DRAM", "sc ", "average"} {
		if !strings.Contains(out, want) {
			t.Fatalf("designspace output missing %q:\n%s", want, out)
		}
	}
}

// TestDesignspaceTable: the report opens with Table I, the design
// space itself, ahead of the speedups.
func TestDesignspaceTable(t *testing.T) {
	bin := clitest.Build(t, "repro/cmd/gpusim")
	out, _ := clitest.Run(t, bin, "sweep", "designspace", "-workloads", "sc", "-warmup", "100", "-window", "300")
	if !strings.HasPrefix(out, "Table I") || !strings.Contains(out, "scaled (~4x)") ||
		strings.Index(out, "Table I") > strings.Index(out, "§IV") {
		t.Fatalf("unexpected Table I output:\n%s", out)
	}
}
