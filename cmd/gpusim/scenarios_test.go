// The checks of `gpusim sweep scenarios` keep the names the
// scenariosweep command's tests had.

package main_test

import (
	"strings"
	"testing"

	"repro/internal/clitest"
)

// TestScenarioSweepSmoke runs the real binary on a tiny window: one
// row per built-in scenario, byte-identical at -j 1 and -j 4.
func TestScenarioSweepSmoke(t *testing.T) {
	bin := clitest.Build(t, "repro/cmd/gpusim")
	args := []string{"sweep", "scenarios", "-warmup", "200", "-window", "600"}
	serial, _ := clitest.Run(t, bin, append(args, "-j", "1")...)
	for _, want := range []string{"scenario sweep", "kmeans", "bfs", "histo", "dct8x8"} {
		if !strings.Contains(serial, want) {
			t.Fatalf("report missing %q:\n%s", want, serial)
		}
	}
	parallel, _ := clitest.Run(t, bin, append(args, "-j", "4")...)
	if serial != parallel {
		t.Fatalf("scenario sweep differs between -j 1 and -j 4:\n--- j1\n%s\n--- j4\n%s", serial, parallel)
	}
}

// TestScenarioSweepCSV checks the -csv output shape.
func TestScenarioSweepCSV(t *testing.T) {
	bin := clitest.Build(t, "repro/cmd/gpusim")
	out, _ := clitest.Run(t, bin, "sweep", "scenarios", "-warmup", "100", "-window", "300", "-csv")
	if !strings.HasPrefix(out, "scenario,phases,") {
		t.Fatalf("unexpected CSV header:\n%s", out)
	}
	if lines := strings.Split(strings.TrimSpace(out), "\n"); len(lines) != 5 {
		t.Fatalf("CSV should have header + 4 scenarios, got %d lines:\n%s", len(lines), out)
	}
}
