package main_test

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/api"
	"repro/internal/clitest"
	"repro/internal/config"
)

// sweepCases covers the four report kinds of `gpusim sweep`. golden
// names the pinned table under internal/exp/testdata for workloads at
// the golden methodology (scenarios has none: its -j 1 and -j 4
// tables are compared with each other instead); csvHeader and csvRows
// are the CSV's first columns and data-row count for those workloads.
var sweepCases = []struct {
	kind, golden, workloads, csvHeader string
	csvRows                            int
}{
	{"bottleneck", "bottleneck.golden", "sc,leukocyte,kmeans", "workload,ipc,issue_slots,", 3},
	{"scenarios", "", "kmeans,bfs", "scenario,phases,", 2},
	{"advise", "advise.golden", "sc,kmeans", "workload,baseline_ipc,bound,rank,intervention,", 2 * 7},
	{"mitigation", "mitigation.golden", "kmeans,bfs", "workload,baseline_ipc,bound,rank,policy,", 2 * 4},
}

// TestSweepGolden pins each kind's table at -j 1 and -j 4: the
// pinned golden where one exists, and byte-identity across worker
// counts for every kind.
func TestSweepGolden(t *testing.T) {
	bin := clitest.Build(t, "repro/cmd/gpusim")
	for _, tc := range sweepCases {
		t.Run(tc.kind, func(t *testing.T) {
			args := []string{"sweep", tc.kind, "-workloads", tc.workloads,
				"-warmup", "2000", "-window", "5000", "-seed", "1"}
			serial, _ := clitest.Run(t, bin, append(args, "-j", "1")...)
			parallel, _ := clitest.Run(t, bin, append(args, "-j", "4")...)
			if serial != parallel {
				t.Fatalf("-j 1 and -j 4 tables differ:\n--- j1\n%s\n--- j4\n%s", serial, parallel)
			}
			if tc.golden == "" {
				return
			}
			want, err := os.ReadFile(filepath.Join("..", "..", "internal", "exp", "testdata", tc.golden))
			if err != nil {
				t.Fatal(err)
			}
			if serial != string(want) {
				t.Errorf("table drifted from %s:\n got:\n%s\nwant:\n%s", tc.golden, serial, want)
			}
		})
	}
}

// TestSweepCSVAndJSON checks the alternative encodings: the CSV's
// header and row count, and -json byte-equal to the marshaled report
// of the registry's local compute — the payload the daemons serve.
func TestSweepCSVAndJSON(t *testing.T) {
	bin := clitest.Build(t, "repro/cmd/gpusim")
	for _, tc := range sweepCases {
		t.Run(tc.kind, func(t *testing.T) {
			args := []string{"sweep", tc.kind, "-workloads", tc.workloads, "-warmup", "100", "-window", "300"}
			csv, _ := clitest.Run(t, bin, append(args, "-csv")...)
			lines := strings.Split(strings.TrimSpace(csv), "\n")
			if !strings.HasPrefix(lines[0], tc.csvHeader) {
				t.Errorf("CSV header %q, want prefix %q", lines[0], tc.csvHeader)
			}
			if len(lines) != 1+tc.csvRows {
				t.Errorf("CSV has %d lines, want header + %d:\n%s", len(lines), tc.csvRows, csv)
			}

			out, _ := clitest.Run(t, bin, append(args, "-json")...)
			warmup, window, seed := int64(100), int64(300), uint64(1)
			req := api.JobRequest{Workloads: strings.Split(tc.workloads, ","), Seed: &seed, Warmup: &warmup, Window: &window}
			sw, err := api.ResolveSweep(tc.kind, config.GTX480Baseline(), req, 2, math.MaxInt64)
			if err != nil {
				t.Fatal(err)
			}
			rep, err := sw.Compute()
			if err != nil {
				t.Fatal(err)
			}
			want, err := json.Marshal(rep)
			if err != nil {
				t.Fatal(err)
			}
			if out != string(want)+"\n" {
				t.Errorf("-json differs from the local compute:\n got: %s\nwant: %s", out, want)
			}
		})
	}
}

// TestSweepErrors: bad requests exit non-zero with a message that
// names the problem — an unknown workload by name, an unknown kind
// with the registered kinds listed — and a report without a table
// form (the run kind's envelope list) asks for -json.
func TestSweepErrors(t *testing.T) {
	bin := clitest.Build(t, "repro/cmd/gpusim")
	for _, tc := range sweepCases {
		stderr := clitest.RunExpectError(t, bin, "sweep", tc.kind, "-workloads", "sc,nosuch")
		if !strings.Contains(stderr, `"nosuch"`) {
			t.Errorf("%s: unknown workload error does not name it: %s", tc.kind, stderr)
		}
	}
	stderr := clitest.RunExpectError(t, bin, "sweep", "latency")
	for _, n := range api.KindNames() {
		if !strings.Contains(stderr, n) {
			t.Errorf("unknown kind error does not list %q: %s", n, stderr)
		}
	}
	args := []string{"sweep", "run", "-workloads", "sc", "-warmup", "100", "-window", "300"}
	if stderr := clitest.RunExpectError(t, bin, args...); !strings.Contains(stderr, "-json") {
		t.Errorf("run kind without -json: %s", stderr)
	}
	out, _ := clitest.Run(t, bin, append(args, "-json")...)
	var envs []api.Envelope
	if err := json.Unmarshal([]byte(out), &envs); err != nil || len(envs) != 1 || envs[0].Workload != "sc" {
		t.Errorf("run -json = %s (%v)", out, err)
	}
}
