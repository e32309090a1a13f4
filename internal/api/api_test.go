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
	wantNames := []string{"latsweep", "occupancy", "designspace", "bottleneck", "scenarios", "advise", "mitigation", "run"}
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
		if k.Report == nil {
			t.Errorf("kind %s is missing its Report half", k.Name)
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

// TestKindGrids: each kind's grid — exp.VariantGrid over its variant
// list — has the documented layout, the baseline and then each
// variant per workload, and rejects an empty workload set.
func TestKindGrids(t *testing.T) {
	cfg := config.GTX480Baseline()
	stride := 1 + len(exp.Perturbations())
	mitStride := 1 + len(exp.Mitigations())
	cases := map[string]struct {
		specs []string
		want  int
	}{
		"latsweep":    {[]string{"sc", "kmeans"}, 2 * (1 + len(exp.DefaultLatencies()))},
		"occupancy":   {[]string{"sc", "kmeans"}, 2},
		"designspace": {[]string{"sc", "kmeans"}, 2 * (1 + 5)},
		"bottleneck":  {[]string{"sc", "kmeans"}, 2},
		"scenarios":   {[]string{"kmeans", "bfs"}, 4}, // scenario + flattened control each
		"advise":      {[]string{"sc", "kmeans"}, 2 * stride},
		"mitigation":  {[]string{"sc", "kmeans"}, 2 * mitStride},
		"run":         {[]string{"sc", "kmeans"}, 2},
	}
	for name, tc := range cases {
		k, err := KindByName(name)
		if err != nil {
			t.Fatal(err)
		}
		specs := testSpecs(t, tc.specs...)
		grid, err := exp.VariantGrid(cfg, specs, k.Variants)
		if err != nil {
			t.Errorf("%s: grid: %v", name, err)
			continue
		}
		if len(grid) != tc.want {
			t.Errorf("%s: grid has %d jobs, want %d", name, len(grid), tc.want)
		}
		if stride := len(grid) / len(specs); grid[stride].Spec.SpecName != specs[1].SpecName || grid[stride].Config != cfg {
			t.Errorf("%s: entry %d is %s, want the baseline of %s", name, stride, grid[stride].Spec.SpecName, specs[1].SpecName)
		}
		if _, err := exp.VariantGrid(cfg, nil, k.Variants); err == nil {
			t.Errorf("%s: empty workload set accepted", name)
		}
		if k.Defaults != nil && len(k.Defaults()) == 0 {
			t.Errorf("%s: Defaults() returned an empty scope", name)
		}
	}
}

// TestResolveSweepRejectsBadGrids: the grid is expanded and validated
// while the request is resolved, so a variant that overflows an
// inline config and a latsweep whose baseline already has a fixed
// latency are request errors, never compute failures. A resolved
// sweep carries its grid.
func TestResolveSweepRejectsBadGrids(t *testing.T) {
	base := config.GTX480Baseline()
	huge := base
	huge.L1.MSHREntries = 1 << 62 // mshr-x4 wraps to 0
	raw, err := json.Marshal(huge)
	if err != nil {
		t.Fatal(err)
	}
	lat := int64(200)
	for name, tc := range map[string]struct {
		kind string
		req  JobRequest
		want string
	}{
		"overflowing variant":    {"advise", JobRequest{Workloads: []string{"sc"}, Config: raw}, "variant mshr-x4"},
		"fixed-latency latsweep": {"latsweep", JobRequest{Workloads: []string{"sc"}, FixedLatency: &lat}, "fixed_latency"},
		// Fig. 1 mode has no L2 or DRAM queues to measure or scale.
		"fixed-latency occupancy":   {"occupancy", JobRequest{Workloads: []string{"sc"}, FixedLatency: &lat}, "fixed_latency"},
		"fixed-latency designspace": {"designspace", JobRequest{Workloads: []string{"sc"}, FixedLatency: &lat}, "fixed_latency"},
	} {
		_, err := ResolveSweep(tc.kind, base, tc.req, 2, math.MaxInt64)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want one mentioning %q", name, err, tc.want)
		}
	}
	sw, err := ResolveSweep("designspace", base, JobRequest{Workloads: []string{"sc"}}, 2, math.MaxInt64)
	if err != nil {
		t.Fatal(err)
	}
	if len(sw.Grid) != 6 || sw.Grid[0].Config != sw.Config {
		t.Errorf("resolved designspace grid has %d jobs (want 6, baseline first)", len(sw.Grid))
	}
}

// TestMergeRejectsWrongLength: the one stride check turns a result
// slice of the wrong length into an error for every kind, before its
// Report half reads it.
func TestMergeRejectsWrongLength(t *testing.T) {
	for _, k := range Kinds() {
		sw, err := ResolveSweep(k.Name, config.GTX480Baseline(), JobRequest{Workloads: []string{"kmeans", "bfs"}}, 2, math.MaxInt64)
		if err != nil {
			t.Fatal(err)
		}
		for _, n := range []int{0, len(sw.Grid) - 1, len(sw.Grid) + 1} {
			rep, err := sw.merge(make([]GridResult, n))
			if err == nil || !strings.Contains(err.Error(), k.Name+" merge") {
				t.Errorf("%s: %d results for a %d-entry grid: report %v, err %v", k.Name, n, len(sw.Grid), rep, err)
			}
		}
		if _, err := sw.merge(make([]GridResult, len(sw.Grid))); err != nil {
			t.Errorf("%s: a full-length result slice: %v", k.Name, err)
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
