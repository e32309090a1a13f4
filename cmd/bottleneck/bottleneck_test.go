// Package bottleneck_test checks `gpusim sweep bottleneck`, which
// replaced the bottleneck command. The package holds only these
// tests, so the checks the bottleneck command carried keep their names.
package bottleneck_test

import (
	"strings"
	"testing"

	"repro/internal/clitest"
)

// TestBottleneckSmoke runs the real binary on a tiny window: the table
// must carry one row per requested workload and the report must be
// byte-identical at -j 1 and -j 4.
func TestBottleneckSmoke(t *testing.T) {
	bin := clitest.Build(t, "repro/cmd/gpusim")
	args := []string{"sweep", "bottleneck", "-workloads", "sc,kmeans", "-warmup", "200", "-window", "600"}
	serial, _ := clitest.Run(t, bin, append(args, "-j", "1")...)
	for _, want := range []string{"bottleneck breakdown", "dram-queue", "sc ", "kmeans "} {
		if !strings.Contains(serial, want) {
			t.Fatalf("report missing %q:\n%s", want, serial)
		}
	}
	parallel, _ := clitest.Run(t, bin, append(args, "-j", "4")...)
	if serial != parallel {
		t.Fatalf("bottleneck report differs between -j 1 and -j 4:\n--- j1\n%s\n--- j4\n%s", serial, parallel)
	}
}

// TestBottleneckCSV checks the -csv output shape.
func TestBottleneckCSV(t *testing.T) {
	bin := clitest.Build(t, "repro/cmd/gpusim")
	out, _ := clitest.Run(t, bin, "sweep", "bottleneck", "-workloads", "sc", "-warmup", "100", "-window", "300", "-csv")
	if !strings.HasPrefix(out, "workload,ipc,issue_slots,") {
		t.Fatalf("unexpected CSV header:\n%s", out)
	}
	if lines := strings.Split(strings.TrimSpace(out), "\n"); len(lines) != 2 {
		t.Fatalf("CSV should have header + 1 row, got %d lines:\n%s", len(lines), out)
	}
}

// TestBottleneckUnknownWorkload: a bad name must exit non-zero with a
// useful message, not fall back to the default sweep.
func TestBottleneckUnknownWorkload(t *testing.T) {
	bin := clitest.Build(t, "repro/cmd/gpusim")
	stderr := clitest.RunExpectError(t, bin, "sweep", "bottleneck", "-workloads", "nosuch")
	if !strings.Contains(stderr, "nosuch") {
		t.Fatalf("unexpected error for unknown workload: %s", stderr)
	}
}
