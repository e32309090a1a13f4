package serve

import (
	"encoding/json"
	"io"
	"math"
	"net/http"
	"strings"
	"testing"

	"repro/internal/api"
	"repro/internal/config"
	"repro/internal/resultcache"
)

// TestSweepKindErrors drives the generic /v1/sweep/{kind} handler
// through the registry: an unknown kind and a malformed body are 400s
// for every registered kind, with the documented {"error": ...}
// envelope.
func TestSweepKindErrors(t *testing.T) {
	_, ts := newTestServer(t, Options{})

	code, _, body := post(t, ts, "/v1/sweep/nope", `{}`)
	if code != http.StatusBadRequest || !strings.Contains(body, "unknown sweep kind") {
		t.Fatalf("unknown kind: code=%d body=%s", code, body)
	}
	// The hint lists every registered kind, generated, not hard-coded.
	for _, name := range api.KindNames() {
		if !strings.Contains(body, name) {
			t.Errorf("unknown-kind error does not list %q: %s", name, body)
		}
	}

	for _, k := range api.Kinds() {
		code, _, body := post(t, ts, "/v1/sweep/"+k.Name, `{bad json`)
		if code != http.StatusBadRequest || !strings.Contains(body, "parse request") {
			t.Errorf("%s: malformed body: code=%d body=%s", k.Name, code, body)
		}
		var envlp map[string]string
		if err := json.Unmarshal([]byte(body), &envlp); err != nil || envlp["error"] == "" {
			t.Errorf("%s: error response is not the documented envelope: %s", k.Name, body)
		}
		code, _, body = post(t, ts, "/v1/sweep/"+k.Name, `{"workload":"sc"}`)
		if code != http.StatusBadRequest || !strings.Contains(body, "workloads list") {
			t.Errorf("%s: single-workload form accepted: code=%d body=%s", k.Name, code, body)
		}
	}

	// The run kind has no default scope: an empty request is a 400,
	// not an accidental full-suite batch.
	code, _, body = post(t, ts, "/v1/sweep/run", `{}`)
	if code != http.StatusBadRequest || !strings.Contains(body, "explicit workloads list") {
		t.Fatalf("empty run batch: code=%d body=%s", code, body)
	}
}

// TestAdviseEndpoint: POST /v1/advise is the documented alias for
// /v1/sweep/advise — same bytes, same cache entry — and the report
// payload is exactly what the local compute marshals (which is also
// what `gpusim sweep advise -json` prints).
func TestAdviseEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	body := `{"workloads":["sc"],"warmup_cycles":200,"window_cycles":500,"parallelism":2}`

	code, cacheHdr, fresh := post(t, ts, "/v1/advise", body)
	if code != http.StatusOK || cacheHdr != "miss" {
		t.Fatalf("advise: code=%d cache=%s body=%s", code, cacheHdr, fresh)
	}
	var env api.Envelope
	if err := json.Unmarshal([]byte(fresh), &env); err != nil {
		t.Fatal(err)
	}
	if env.Kind != "sweep-advise" || !strings.HasPrefix(env.Key, "sweep-advise-") {
		t.Errorf("advise envelope kind=%q key=%q", env.Kind, env.Key)
	}

	code, cacheHdr, aliased := post(t, ts, "/v1/sweep/advise", body)
	if code != http.StatusOK || cacheHdr != "hit" || aliased != fresh {
		t.Errorf("/v1/sweep/advise is not the same sweep: code=%d cache=%s identical=%v",
			code, cacheHdr, aliased == fresh)
	}

	if want := localReport(t, "advise", body); string(env.Report) != want {
		t.Errorf("served advise report differs from the local compute:\n got: %s\nwant: %s", env.Report, want)
	}
}

// localReport is the report payload a sweep request computes locally
// through api.ResolveSweep and Sweep.Compute — the bytes
// `gpusim sweep <kind> -json` prints for the same request.
func localReport(t *testing.T, kind, body string) string {
	t.Helper()
	var req api.JobRequest
	if err := json.Unmarshal([]byte(body), &req); err != nil {
		t.Fatal(err)
	}
	sw, err := api.ResolveSweep(kind, config.GTX480Baseline(), req, 2, math.MaxInt64)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := sw.Compute()
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// TestRunInlineConfig: /v1/run accepts a complete inline architecture
// (the mechanism the coordinator uses to ship perturbed advise jobs)
// and content-addresses it separately from the base.
func TestRunInlineConfig(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	base := `{"workload":"sc","warmup_cycles":100,"window_cycles":300}`
	code, _, plain := post(t, ts, "/v1/run", base)
	if code != http.StatusOK {
		t.Fatalf("baseline run: %d %s", code, plain)
	}

	cfg := config.GTX480Baseline()
	cfg.L1.Sets *= 2
	raw, err := json.Marshal(cfg)
	if err != nil {
		t.Fatal(err)
	}
	code, _, perturbed := post(t, ts, "/v1/run",
		`{"workload":"sc","warmup_cycles":100,"window_cycles":300,"config":`+string(raw)+`}`)
	if code != http.StatusOK {
		t.Fatalf("inline-config run: %d %s", code, perturbed)
	}
	var a, b api.Envelope
	if err := json.Unmarshal([]byte(plain), &a); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal([]byte(perturbed), &b); err != nil {
		t.Fatal(err)
	}
	if a.Key == b.Key {
		t.Error("inline config did not change the content address")
	}

	code, _, body := post(t, ts, "/v1/run",
		`{"workload":"sc","window_cycles":300,"config":{"seed":1,"zap":true}}`)
	if code != http.StatusBadRequest || !strings.Contains(body, "unknown field") {
		t.Errorf("misspelled config knob accepted: code=%d body=%s", code, body)
	}
}

// TestHealthzVersions: /healthz reports the API generation and the
// result-cache code version, the fields fleet operators compare to
// catch mixed-version fleets before a sweep fails on key drift.
func TestHealthzVersions(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	var h struct {
		Status      string `json:"status"`
		API         string `json:"api"`
		CodeVersion string `json:"codeversion"`
	}
	if err := json.Unmarshal(data, &h); err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" || h.API != api.Version || h.CodeVersion != resultcache.CodeVersion {
		t.Errorf("healthz = %s", data)
	}
}
