// The checks of `gpusim sweep occupancy`, the §III sweep, keep the
// names the occupancy command's tests had.

package main_test

import (
	"strings"
	"testing"

	"repro/internal/clitest"
)

// TestOccupancySmoke: the §III sweep runs on a tiny window, exits 0
// and prints the occupancy table with its detail block.
func TestOccupancySmoke(t *testing.T) {
	bin := clitest.Build(t, "repro/cmd/gpusim")
	args := []string{"sweep", "occupancy", "-warmup", "100", "-window", "300", "-j", "2"}
	out, _ := clitest.Run(t, bin, args...)
	for _, want := range []string{"queue full-of-usage occupancy", "average", "per-benchmark detail", " / 8 ", " / 16\n"} {
		if !strings.Contains(out, want) {
			t.Fatalf("occupancy output missing %q:\n%s", want, out)
		}
	}
	csv, _ := clitest.Run(t, bin, append(args, "-csv")...)
	if !strings.HasPrefix(csv, "bench,l2_access_full") {
		t.Fatalf("unexpected CSV header:\n%s", csv)
	}
}

// TestOccupancyScaledCapacities: under -scale l2dram the title names
// the L2+DRAM architecture and the detail block divides by the scaled
// queue depths, 32 and 64.
func TestOccupancyScaledCapacities(t *testing.T) {
	bin := clitest.Build(t, "repro/cmd/gpusim")
	out, _ := clitest.Run(t, bin, "sweep", "occupancy", "-workloads", "sc", "-scale", "l2dram", "-warmup", "100", "-window", "300")
	if title, _, _ := strings.Cut(out, "\n"); !strings.HasSuffix(title, "(L2+DRAM architecture)") {
		t.Errorf("title %q does not name the measured L2+DRAM architecture", title)
	}
	_, detail, _ := strings.Cut(out, "per-benchmark detail")
	if !strings.Contains(detail, " / 32 ") || !strings.HasSuffix(detail, " / 64\n") {
		t.Fatalf("detail block does not show the scaled capacities:\n%s", out)
	}
}
