// Package clitest builds and runs the repository's command binaries
// for CLI smoke tests: every cmd must build, run a tiny workload
// window, exit 0 and produce non-empty output. The tests exercise the
// real flag parsing and I/O paths the library-level tests cannot see.
package clitest

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// Build compiles the import path (e.g. "repro/cmd/gpusim") into
// t.TempDir and returns the binary path. It relies on the test
// process running inside the module, which is how `go test` invokes
// it.
//
// The built binary's sources are not part of the test binary, so
// `go test` would otherwise replay a cached pass after they change.
// Build therefore stats every Go file of the package's non-standard
// dependencies: `go test` re-checks the files a test process stats,
// and an edit to any of them re-runs the test.
func Build(t *testing.T, importPath string) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), filepath.Base(importPath))
	out, err := exec.Command("go", "build", "-o", bin, importPath).CombinedOutput()
	if err != nil {
		t.Fatalf("go build %s: %v\n%s", importPath, err, out)
	}
	const sources = `{{if not .Standard}}{{range .GoFiles}}{{$.Dir}}/{{.}}{{"\n"}}{{end}}{{end}}`
	out, err = exec.Command("go", "list", "-deps", "-f", sources, importPath).Output()
	if err != nil {
		t.Fatalf("go list %s: %v", importPath, err)
	}
	for _, f := range strings.Split(strings.TrimSpace(string(out)), "\n") {
		if _, err := os.Stat(f); err != nil {
			t.Fatal(err)
		}
	}
	return bin
}

// Run executes the binary and returns stdout; the test fails if the
// command exits non-zero. stderr is returned too, for commands that
// print notes there.
func Run(t *testing.T, bin string, args ...string) (stdout, stderr string) {
	t.Helper()
	var o, e bytes.Buffer
	cmd := exec.Command(bin, args...)
	cmd.Stdout, cmd.Stderr = &o, &e
	if err := cmd.Run(); err != nil {
		t.Fatalf("%s %v: %v\nstdout:\n%s\nstderr:\n%s", bin, args, err, o.String(), e.String())
	}
	return o.String(), e.String()
}

// RunExpectError executes the binary expecting a non-zero exit, and
// returns stderr for message assertions.
func RunExpectError(t *testing.T, bin string, args ...string) string {
	t.Helper()
	var e bytes.Buffer
	cmd := exec.Command(bin, args...)
	cmd.Stderr = &e
	if err := cmd.Run(); err == nil {
		t.Fatalf("%s %v: expected non-zero exit", bin, args)
	}
	return e.String()
}
