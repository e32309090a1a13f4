package main_test

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/clitest"
)

const baselineTxt = `goos: linux
BenchmarkA   	1	100 ns/op	  2048 B/op	  12 allocs/op
BenchmarkGone	1	500 ns/op	  1024 B/op	   5 allocs/op
BenchmarkNoMem	1	300 ns/op
`

func write(t *testing.T, dir, name, content string) string {
	t.Helper()
	p := filepath.Join(dir, name)
	if err := os.WriteFile(p, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return p
}

// TestBenchdiffFailAllocs: an allocs/op regression under -fail-allocs
// exits non-zero with an ::error annotation; without the flag the same
// comparison stays warn-only (exit 0).
func TestBenchdiffFailAllocs(t *testing.T) {
	bin := clitest.Build(t, "repro/cmd/benchdiff")
	dir := t.TempDir()
	base := write(t, dir, "base.txt", baselineTxt)
	cur := write(t, dir, "new.txt", `goos: linux
BenchmarkA   	1	100 ns/op	  2048 B/op	  13 allocs/op
BenchmarkGone	1	500 ns/op	  1024 B/op	   5 allocs/op
BenchmarkNoMem	1	300 ns/op
`)
	out, _ := clitest.Run(t, bin, base, cur) // warn-only mode must not fail
	if !strings.Contains(out, "12 -> 13") {
		t.Fatalf("allocs delta missing from table:\n%s", out)
	}
	clitest.RunExpectError(t, bin, "-fail-allocs", base, cur)
}

// TestBenchdiffFailOnGoneBenchmark: under -fail-allocs a benchmark
// that vanished from the new run fails the gate — a crashed bench run
// truncates its output and must not read as a pass.
func TestBenchdiffFailOnGoneBenchmark(t *testing.T) {
	bin := clitest.Build(t, "repro/cmd/benchdiff")
	dir := t.TempDir()
	base := write(t, dir, "base.txt", baselineTxt)
	cur := write(t, dir, "new.txt", `goos: linux
BenchmarkA   	1	100 ns/op	  2048 B/op	  12 allocs/op
BenchmarkNoMem	1	300 ns/op
`)
	clitest.RunExpectError(t, bin, "-fail-allocs", base, cur)
	// Warn-only mode keeps reporting it without failing.
	out, _ := clitest.Run(t, bin, base, cur)
	if !strings.Contains(out, "::warning title=benchmark gone::BenchmarkGone") {
		t.Fatalf("gone benchmark not annotated in warn-only mode:\n%s", out)
	}
}

// TestBenchdiffFailBytes: a B/op regression alone also trips the gate.
func TestBenchdiffFailBytes(t *testing.T) {
	bin := clitest.Build(t, "repro/cmd/benchdiff")
	dir := t.TempDir()
	base := write(t, dir, "base.txt", baselineTxt)
	cur := write(t, dir, "new.txt", `goos: linux
BenchmarkA   	1	 90 ns/op	  4096 B/op	  12 allocs/op
BenchmarkGone	1	500 ns/op	  1024 B/op	   5 allocs/op
BenchmarkNoMem	1	300 ns/op
`)
	clitest.RunExpectError(t, bin, "-fail-allocs", base, cur)
}

// TestBenchdiffZeroBaseline: a zero baseline metric must not produce
// NaN/Inf percentages — 0→0 is unchanged (gate passes), 0→N is a hard
// regression under -fail-allocs and an annotated slowdown for ns/op.
func TestBenchdiffZeroBaseline(t *testing.T) {
	bin := clitest.Build(t, "repro/cmd/benchdiff")
	dir := t.TempDir()
	base := write(t, dir, "base.txt", `goos: linux
BenchmarkZero	1	100 ns/op	  0 B/op	  0 allocs/op
BenchmarkZeroNs	1	0 ns/op	  64 B/op	  1 allocs/op
`)

	// 0→0 everywhere: unchanged, the gate passes, nothing non-finite.
	same := write(t, dir, "same.txt", `goos: linux
BenchmarkZero	1	100 ns/op	  0 B/op	  0 allocs/op
BenchmarkZeroNs	1	0 ns/op	  64 B/op	  1 allocs/op
`)
	out, _ := clitest.Run(t, bin, "-fail-allocs", base, same)
	for _, bad := range []string{"NaN", "Inf", "::error"} {
		if strings.Contains(out, bad) {
			t.Fatalf("0→0 comparison produced %q:\n%s", bad, out)
		}
	}

	// allocs 0→2: hard regression even though 0*(1+tol) == 0.
	leak := write(t, dir, "leak.txt", `goos: linux
BenchmarkZero	1	100 ns/op	  0 B/op	  2 allocs/op
BenchmarkZeroNs	1	0 ns/op	  64 B/op	  1 allocs/op
`)
	stderrless, _ := clitest.Run(t, bin, base, leak) // warn-only still passes
	if strings.Contains(stderrless, "NaN") {
		t.Fatalf("NaN leaked into warn-only output:\n%s", stderrless)
	}
	clitest.RunExpectError(t, bin, "-fail-allocs", base, leak)

	// ns/op 0→300: annotated as a regression, rendered finitely.
	slow := write(t, dir, "slow.txt", `goos: linux
BenchmarkZero	1	100 ns/op	  0 B/op	  0 allocs/op
BenchmarkZeroNs	1	300 ns/op	  64 B/op	  1 allocs/op
`)
	out, _ = clitest.Run(t, bin, base, slow)
	if !strings.Contains(out, "0->new") {
		t.Fatalf("0→N ns/op not marked:\n%s", out)
	}
	if !strings.Contains(out, "::warning title=benchmark regression::BenchmarkZeroNs") {
		t.Fatalf("0→N ns/op not annotated:\n%s", out)
	}
	for _, bad := range []string{"NaN", "Inf"} {
		if strings.Contains(out, bad) {
			t.Fatalf("non-finite percentage printed:\n%s", out)
		}
	}
}

// TestBenchdiffFailTime: -fail-time promotes ns/op from warn-only to
// a hard gate, but only for benchmarks matching its regexp and only
// beyond -time-tolerance; a matched benchmark vanishing also fails.
func TestBenchdiffFailTime(t *testing.T) {
	bin := clitest.Build(t, "repro/cmd/benchdiff")
	dir := t.TempDir()
	base := write(t, dir, "base.txt", `goos: linux
BenchmarkGated  	1	1000 ns/op	  2048 B/op	  12 allocs/op
BenchmarkFree   	1	1000 ns/op	  2048 B/op	  12 allocs/op
`)

	// 50% slowdowns on both: only the matched benchmark trips the gate.
	slow := write(t, dir, "slow.txt", `goos: linux
BenchmarkGated  	1	1500 ns/op	  2048 B/op	  12 allocs/op
BenchmarkFree   	1	1500 ns/op	  2048 B/op	  12 allocs/op
`)
	stderr := clitest.RunExpectError(t, bin, "-fail-time", "^BenchmarkGated$", base, slow)
	_ = stderr
	out, _ := clitest.Run(t, bin, "-fail-time", "^BenchmarkNothingMatches$", base, slow)
	if !strings.Contains(out, "::warning title=benchmark regression::BenchmarkGated") {
		t.Fatalf("unmatched benchmarks lost their warn-only annotation:\n%s", out)
	}

	// Inside tolerance: 5% < the default 10% gate, exit 0.
	ok := write(t, dir, "ok.txt", `goos: linux
BenchmarkGated  	1	1050 ns/op	  2048 B/op	  12 allocs/op
BenchmarkFree   	1	1000 ns/op	  2048 B/op	  12 allocs/op
`)
	out, _ = clitest.Run(t, bin, "-fail-time", "^BenchmarkGated$", base, ok)
	if strings.Contains(out, "::error") {
		t.Fatalf("in-tolerance slowdown tripped the gate:\n%s", out)
	}

	// A gated benchmark missing from the run must not read as a pass.
	gone := write(t, dir, "gone.txt", `goos: linux
BenchmarkFree   	1	1000 ns/op	  2048 B/op	  12 allocs/op
`)
	clitest.RunExpectError(t, bin, "-fail-time", "^BenchmarkGated$", base, gone)

	// A bad regexp is a usage error, not a silent no-gate run.
	stderr = clitest.RunExpectError(t, bin, "-fail-time", "(", base, ok)
	if !strings.Contains(stderr, "fail-time") {
		t.Fatalf("bad -fail-time regexp not reported: %s", stderr)
	}
}

// TestBenchdiffCleanPassesAndReportsSingletons: equal metrics pass the
// gate even with -fail-allocs, a benchmark new in this run is reported
// (not silently skipped) without failing the gate, and a benchmark
// without -benchmem columns is flagged as not comparable rather than
// ignored.
func TestBenchdiffCleanPassesAndReportsSingletons(t *testing.T) {
	bin := clitest.Build(t, "repro/cmd/benchdiff")
	dir := t.TempDir()
	base := write(t, dir, "base.txt", baselineTxt)
	cur := write(t, dir, "new.txt", `goos: linux
BenchmarkA   	1	110 ns/op	  2048 B/op	  12 allocs/op
BenchmarkGone	1	500 ns/op	  1024 B/op	   5 allocs/op
BenchmarkFresh	1	 50 ns/op	   512 B/op	   1 allocs/op
BenchmarkNoMem	1	300 ns/op
`)
	out, _ := clitest.Run(t, bin, "-fail-allocs", base, cur)
	for _, want := range []string{
		"BenchmarkFresh", "new",
		"::warning title=benchmark only in new run::BenchmarkFresh",
		"::warning title=allocs not comparable::BenchmarkNoMem",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
}
