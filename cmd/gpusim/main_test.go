package main_test

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/clitest"
)

const specsJSON = `[
  {"name":"probe-a","warps":4,"dep_dist":2,"compute_per_mem":4,
   "access_pattern":"hotset","working_set_lines":4096,"lines_per_access":2,"shared":true},
  {"name":"probe-b","warps":4,"dep_dist":1,"shared":true,
   "phases":[
     {"name":"read","instructions":300,"compute_per_mem":6,
      "access_pattern":"streaming","working_set_lines":65536,"lines_per_access":1},
     {"name":"write","instructions":100,"compute_per_mem":2,"store_frac":0.6,
      "access_pattern":"hotset","working_set_lines":2048,"lines_per_access":4,"region":1}
   ]}
]`

// TestGpusimWorkloadFile is the end-to-end acceptance path: a JSON
// spec file (one single-phase and one multi-phase spec) runs through
// the real binary and the report is byte-identical at -j 1 and -j 4.
func TestGpusimWorkloadFile(t *testing.T) {
	bin := clitest.Build(t, "repro/cmd/gpusim")
	spec := filepath.Join(t.TempDir(), "specs.json")
	if err := os.WriteFile(spec, []byte(specsJSON), 0o644); err != nil {
		t.Fatal(err)
	}
	args := []string{"-workload-file", spec, "-warmup", "200", "-window", "600"}
	serial, _ := clitest.Run(t, bin, append(args, "-j", "1")...)
	if !strings.Contains(serial, "workload probe-a") || !strings.Contains(serial, "workload probe-b") {
		t.Fatalf("report missing spec sections:\n%s", serial)
	}
	parallel, _ := clitest.Run(t, bin, append(args, "-j", "4")...)
	if serial != parallel {
		t.Fatalf("-workload-file report differs between -j 1 and -j 4:\n--- j1\n%s\n--- j4\n%s", serial, parallel)
	}
}

// TestGpusimEngineFlag: -engine=cycle (the per-cycle reference loop)
// must print exactly the bytes of the default -engine=event report —
// the flag's documented equivalence guarantee — including a
// multi-phase scenario and a fixed-latency (Fig. 1) run, and an
// unknown engine is a loud error.
func TestGpusimEngineFlag(t *testing.T) {
	bin := clitest.Build(t, "repro/cmd/gpusim")
	for _, args := range [][]string{
		{"-workload", "sc,kmeans", "-warmup", "200", "-window", "600", "-stalls"},
		{"-workload", "cfd", "-warmup", "200", "-window", "600", "-fixed-latency", "400"},
	} {
		event, _ := clitest.Run(t, bin, append(args, "-engine", "event")...)
		cycle, _ := clitest.Run(t, bin, append(args, "-engine", "cycle")...)
		if event != cycle {
			t.Fatalf("%v: -engine=cycle report differs from -engine=event:\n--- event\n%s\n--- cycle\n%s",
				args, event, cycle)
		}
	}
	stderr := clitest.RunExpectError(t, bin, "-workload", "sc", "-engine", "warp")
	if !strings.Contains(stderr, "unknown engine") {
		t.Fatalf("unknown -engine error not surfaced: %s", stderr)
	}
}

// TestGpusimStallsFlag: -stalls appends one stall-stack section per
// workload after the normal report, and leaves the report itself
// untouched (the golden bytes must not depend on the flag).
func TestGpusimStallsFlag(t *testing.T) {
	bin := clitest.Build(t, "repro/cmd/gpusim")
	args := []string{"-workload", "sc,cfd", "-warmup", "200", "-window", "600"}
	plain, _ := clitest.Run(t, bin, args...)
	withStalls, _ := clitest.Run(t, bin, append(args, "-stalls")...)
	if !strings.HasPrefix(withStalls, plain) {
		t.Fatalf("-stalls altered the base report:\n--- plain\n%s\n--- with -stalls\n%s", plain, withStalls)
	}
	extra := withStalls[len(plain):]
	for _, want := range []string{"stall stack — sc", "stall stack — cfd", "where do the cycles go", "dram-queue"} {
		if !strings.Contains(extra, want) {
			t.Fatalf("stall section missing %q:\n%s", want, extra)
		}
	}
}

// TestGpusimCacheDir: the offline result cache must never change the
// report — a cold run populates the cache, a warm run decodes from it,
// and both print exactly the bytes of an uncached run, for built-ins
// (suite + scenario) and user spec files alike.
func TestGpusimCacheDir(t *testing.T) {
	bin := clitest.Build(t, "repro/cmd/gpusim")
	spec := filepath.Join(t.TempDir(), "specs.json")
	if err := os.WriteFile(spec, []byte(specsJSON), 0o644); err != nil {
		t.Fatal(err)
	}
	argSets := map[string][]string{
		"builtins":  {"-workload", "sc,kmeans", "-warmup", "200", "-window", "600", "-stalls"},
		"spec file": {"-workload-file", spec, "-warmup", "200", "-window", "600"},
	}
	for name, args := range argSets {
		dir := filepath.Join(t.TempDir(), "cache")
		uncached, _ := clitest.Run(t, bin, args...)
		cold, _ := clitest.Run(t, bin, append(args, "-cache-dir", dir)...)
		if cold != uncached {
			t.Fatalf("%s: cold cached run differs from uncached run:\n--- uncached\n%s\n--- cold\n%s", name, uncached, cold)
		}
		entries, err := filepath.Glob(filepath.Join(dir, "*.json"))
		if err != nil || len(entries) == 0 {
			t.Fatalf("%s: no cache entries persisted (err=%v)", name, err)
		}
		warm, _ := clitest.Run(t, bin, append(args, "-cache-dir", dir)...)
		if warm != uncached {
			t.Fatalf("%s: warm cached run differs from uncached run:\n--- uncached\n%s\n--- warm\n%s", name, uncached, warm)
		}
	}

	// A methodology change must miss, not serve the old entry.
	dir := filepath.Join(t.TempDir(), "cache")
	short, _ := clitest.Run(t, bin, "-workload", "sc", "-warmup", "200", "-window", "400", "-cache-dir", dir)
	long, _ := clitest.Run(t, bin, "-workload", "sc", "-warmup", "200", "-window", "800", "-cache-dir", dir)
	if short == long {
		t.Fatal("different windows produced identical reports — stale cache entry served")
	}

	// Corrupt entries are recomputed, and the report still matches.
	entries, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil || len(entries) == 0 {
		t.Fatal("no entries to corrupt")
	}
	for _, e := range entries {
		if err := os.WriteFile(e, []byte(`{"Cycles":-1}`), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	redone, stderr := clitest.Run(t, bin, "-workload", "sc", "-warmup", "200", "-window", "800", "-cache-dir", dir)
	if redone != long {
		t.Fatal("recomputed report differs after cache corruption")
	}
	if !strings.Contains(stderr, "ignoring bad cache entry") {
		t.Fatalf("corruption not reported: %s", stderr)
	}
}

// TestGpusimConfigRejectsUnknownField: a -config file with a
// misspelled knob exits non-zero naming the field instead of running
// the baseline value, while the same file without the typo runs.
func TestGpusimConfigRejectsUnknownField(t *testing.T) {
	bin := clitest.Build(t, "repro/cmd/gpusim")
	cfg, _ := clitest.Run(t, bin, "-dump-config")
	dir := t.TempDir()
	good := filepath.Join(dir, "good.json")
	typo := filepath.Join(dir, "typo.json")
	if err := os.WriteFile(good, []byte(cfg), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(typo, []byte(strings.Replace(cfg, "{", `{"l2_sets_typo": 999,`, 1)), 0o644); err != nil {
		t.Fatal(err)
	}
	args := []string{"-workload", "sc", "-warmup", "100", "-window", "200"}
	if out, _ := clitest.Run(t, bin, append(args, "-config", good)...); !strings.Contains(out, "workload sc") {
		t.Fatalf("the dumped config did not run:\n%s", out)
	}
	stderr := clitest.RunExpectError(t, bin, append(args, "-config", typo)...)
	if !strings.Contains(stderr, `unknown field "l2_sets_typo"`) {
		t.Fatalf("typo'd -config error does not name the field: %s", stderr)
	}
}

// TestGpusimConfigSeed: a -config file's seed is the run's seed unless
// -seed is given — it dumps back unchanged, and the file's run prints
// the bytes of the same run under -seed, not of the baseline seed.
func TestGpusimConfigSeed(t *testing.T) {
	bin := clitest.Build(t, "repro/cmd/gpusim")
	cfg, _ := clitest.Run(t, bin, "-dump-config")
	if !strings.Contains(cfg, `"seed": 1,`) {
		t.Fatalf("dumped baseline has no seed 1:\n%s", cfg)
	}
	path := filepath.Join(t.TempDir(), "seed7.json")
	if err := os.WriteFile(path, []byte(strings.Replace(cfg, `"seed": 1,`, `"seed": 7,`, 1)), 0o644); err != nil {
		t.Fatal(err)
	}
	if dumped, _ := clitest.Run(t, bin, "-config", path, "-dump-config"); !strings.Contains(dumped, `"seed": 7,`) {
		t.Fatalf("-config seed 7 dumped as:\n%s", dumped)
	}
	args := []string{"-workload", "sc", "-warmup", "200", "-window", "600"}
	fromFile, _ := clitest.Run(t, bin, append(args, "-config", path)...)
	fromFlag, _ := clitest.Run(t, bin, append(args, "-seed", "7")...)
	if fromFile != fromFlag {
		t.Fatalf("-config seed 7 report differs from -seed 7:\n--- config\n%s\n--- flag\n%s", fromFile, fromFlag)
	}
	if seed1, _ := clitest.Run(t, bin, args...); seed1 == fromFile {
		t.Fatal("seed 7 and seed 1 print the same report; the check above shows nothing")
	}
}

// TestGpusimConfigHeader: the batch header names the measured config,
// not the -scale flag, so a config file dumped under -scale l2 prints
// byte for byte what -scale l2 prints, header included; and a
// -fixed-latency run names its base.
func TestGpusimConfigHeader(t *testing.T) {
	bin := clitest.Build(t, "repro/cmd/gpusim")
	cfg, _ := clitest.Run(t, bin, "-scale", "l2", "-dump-config")
	path := filepath.Join(t.TempDir(), "l2.json")
	if err := os.WriteFile(path, []byte(cfg), 0o644); err != nil {
		t.Fatal(err)
	}
	args := []string{"-workload", "sc", "-warmup", "200", "-window", "600"}
	fromFile, _ := clitest.Run(t, bin, append(args, "-config", path)...)
	fromFlag, _ := clitest.Run(t, bin, append(args, "-scale", "l2")...)
	if fromFile != fromFlag {
		t.Fatalf("-config l2.json report differs from -scale l2:\n--- config\n%s\n--- flag\n%s", fromFile, fromFlag)
	}
	if !strings.HasPrefix(fromFlag, "workload sc on L2 config") {
		t.Fatalf("-scale l2 header: %q", strings.SplitN(fromFlag, "\n", 2)[0])
	}
	fixed, _ := clitest.Run(t, bin, append(args, "-scale", "l2", "-fixed-latency", "100")...)
	if !strings.HasPrefix(fixed, "workload sc on L2 config") {
		t.Fatalf("-scale l2 -fixed-latency 100 header: %q", strings.SplitN(fixed, "\n", 2)[0])
	}
}
