package api

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/config"
	"repro/internal/exp"
	"repro/internal/workload"
)

func testSpecs(t *testing.T, names ...string) []workload.Spec {
	t.Helper()
	specs := make([]workload.Spec, len(names))
	for i, n := range names {
		sp, err := workload.SpecByName(n)
		if err != nil {
			t.Fatal(err)
		}
		specs[i] = sp
	}
	return specs
}

// TestKindRegistry: the registry is the single source of truth — every
// entry is fully populated, names resolve, and the unknown-kind error
// lists exactly the registered names.
func TestKindRegistry(t *testing.T) {
	wantNames := []string{"bottleneck", "scenarios", "advise", "mitigation", "run"}
	names := KindNames()
	if len(names) != len(wantNames) {
		t.Fatalf("KindNames() = %v, want %v", names, wantNames)
	}
	for i, n := range wantNames {
		if names[i] != n {
			t.Fatalf("KindNames() = %v, want %v", names, wantNames)
		}
	}
	for _, k := range Kinds() {
		if k.Name == "" || k.ResponseKind == "" || k.Description == "" {
			t.Errorf("kind %+v has empty metadata", k)
		}
		if k.Grid == nil || k.Report == nil {
			t.Errorf("kind %s is missing a Grid or Report half", k.Name)
		}
		got, err := KindByName(k.Name)
		if err != nil || got.Name != k.Name || got.ResponseKind != k.ResponseKind {
			t.Errorf("KindByName(%q) = %+v, %v", k.Name, got, err)
		}
	}
	_, err := KindByName("nope")
	if err == nil {
		t.Fatal("KindByName accepted an unknown kind")
	}
	for _, n := range wantNames {
		if !strings.Contains(err.Error(), n) {
			t.Errorf("unknown-kind error %q does not list %q", err, n)
		}
	}
}

// TestKindGrids: each kind's Grid half produces the documented layout
// and rejects an empty workload set.
func TestKindGrids(t *testing.T) {
	cfg := config.GTX480Baseline()
	stride := 1 + len(exp.Perturbations())
	mitStride := 1 + len(exp.Mitigations())
	cases := map[string]struct {
		specs []string
		want  int
	}{
		"bottleneck": {[]string{"sc", "kmeans"}, 2},
		"scenarios":  {[]string{"kmeans", "bfs"}, 4}, // scenario + flattened control each
		"advise":     {[]string{"sc", "kmeans"}, 2 * stride},
		"mitigation": {[]string{"sc", "kmeans"}, 2 * mitStride},
		"run":        {[]string{"sc", "kmeans"}, 2},
	}
	for name, tc := range cases {
		k, err := KindByName(name)
		if err != nil {
			t.Fatal(err)
		}
		grid, err := k.Grid(cfg, testSpecs(t, tc.specs...))
		if err != nil {
			t.Errorf("%s: grid: %v", name, err)
			continue
		}
		if len(grid) != tc.want {
			t.Errorf("%s: grid has %d jobs, want %d", name, len(grid), tc.want)
		}
		if _, err := k.Grid(cfg, nil); err == nil {
			t.Errorf("%s: empty workload set accepted", name)
		}
		if k.Defaults != nil && len(k.Defaults()) == 0 {
			t.Errorf("%s: Defaults() returned an empty scope", name)
		}
	}
}

// TestResolveMethodologyInlineConfig: an inline request config
// replaces the base entirely, is strictly decoded, and the
// scale/seed transforms apply on top of it.
func TestResolveMethodologyInlineConfig(t *testing.T) {
	base := config.GTX480Baseline()
	perturbed := base
	perturbed.L1.Sets *= 2
	raw, err := json.Marshal(perturbed)
	if err != nil {
		t.Fatal(err)
	}

	seed := uint64(7)
	cfg, _, err := ResolveMethodology(base, JobRequest{Config: raw, Seed: &seed}, 4, 1_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.L1.Sets != perturbed.L1.Sets {
		t.Errorf("inline config not applied: L1.Sets = %d", cfg.L1.Sets)
	}
	if cfg.Seed != 7 {
		t.Errorf("seed transform did not apply on top of the inline config: %d", cfg.Seed)
	}

	for name, tc := range map[string]struct{ raw, want string }{
		"unknown field": {`{"seed":1,"zap":true}`, "unknown field"},
		"trailing data": {string(raw) + `{}`, "trailing data"},
		"invalid":       {`{"seed":1}`, ""}, // fails Validate; any error is fine
	} {
		_, _, err := ResolveMethodology(base, JobRequest{Config: json.RawMessage(tc.raw)}, 4, 1_000_000)
		if err == nil {
			t.Errorf("%s: accepted", name)
			continue
		}
		if tc.want != "" && !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", name, err, tc.want)
		}
	}
}

// TestResolveMethodologyWindowCap: warmup+window is checked against
// the cap without forming the sum, so a hostile request whose sum
// wraps past int64 cannot slip under it and pin a run slot.
func TestResolveMethodologyWindowCap(t *testing.T) {
	base := config.GTX480Baseline()
	for name, tc := range map[string]struct {
		warmup, window int64
		ok             bool
	}{
		"at cap":          {4_000_000, 6_000_000, true},
		"over cap":        {4_000_000, 6_000_001, false},
		"sum wraps":       {5e18, 5e18, false},
		"window at max":   {1, math.MaxInt64, false},
		"negative warmup": {-1, 1000, false},
	} {
		_, _, err := ResolveMethodology(base, JobRequest{Warmup: &tc.warmup, Window: &tc.window}, 4, 10_000_000)
		if (err == nil) != tc.ok {
			t.Errorf("%s: warmup %d window %d: err = %v, want ok=%v", name, tc.warmup, tc.window, err, tc.ok)
		}
	}
}

// TestDocsKindTable: the sweep-kind table in docs/api.md lists
// exactly the registered kinds, in registry order, each with its
// response kind — the documentation cannot drift from the registry.
func TestDocsKindTable(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "..", "docs", "api.md"))
	if err != nil {
		t.Fatal(err)
	}
	_, section, ok := strings.Cut(string(data), "\n## Sweep kinds\n")
	if !ok {
		t.Fatal("docs/api.md has no \"## Sweep kinds\" section")
	}
	section, _, _ = strings.Cut(section, "\n## ")
	var got []string
	for _, line := range strings.Split(section, "\n") {
		cells := strings.Split(line, "|")
		if len(cells) < 3 || !strings.HasPrefix(strings.TrimSpace(cells[1]), "`") {
			continue // not a kind row
		}
		got = append(got, strings.TrimSpace(cells[1])+" "+strings.TrimSpace(cells[2]))
	}
	var want []string
	for _, k := range Kinds() {
		want = append(want, "`"+k.Name+"` `"+k.ResponseKind+"`")
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("docs/api.md kind table rows (kind, response kind):\n%s\nwant, in registry order:\n%s",
			strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}

// TestErrorEnvelope: every daemon error is the one documented
// {"error": ...} JSON document with a trailing newline, and shed load
// (503) carries Retry-After.
func TestErrorEnvelope(t *testing.T) {
	rec := httptest.NewRecorder()
	Error(rec, http.StatusBadRequest, fmt.Errorf("boom"))
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("code = %d", rec.Code)
	}
	if got := rec.Body.String(); got != "{\"error\":\"boom\"}\n" {
		t.Errorf("error body = %q", got)
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Errorf("Content-Type = %q", ct)
	}
	if rec.Header().Get("Retry-After") != "" {
		t.Error("400 carries Retry-After")
	}

	rec = httptest.NewRecorder()
	Error(rec, http.StatusServiceUnavailable, fmt.Errorf("draining"))
	if rec.Header().Get("Retry-After") != "1" {
		t.Error("503 missing Retry-After: 1")
	}

	rec = httptest.NewRecorder()
	WriteJSON(rec, http.StatusOK, map[string]int{"n": 1})
	if got := rec.Body.String(); got != "{\"n\":1}\n" {
		t.Errorf("WriteJSON body = %q", got)
	}
}
