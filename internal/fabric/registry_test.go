package fabric

import (
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/api"
	"repro/internal/config"
	"repro/internal/resultcache"
	"repro/internal/serve"
)

// TestCoordinatorKindErrors: the coordinator's handler validates
// against the same registry as the workers — unknown kinds and
// malformed bodies are 400s with the shared {"error": ...} envelope,
// even when the client asked for SSE (the reject happens before the
// stream commits its 200).
func TestCoordinatorKindErrors(t *testing.T) {
	_, url := newWorker(t, serve.Options{})
	coord := newCoordinator(t, []string{url}, Options{})
	cts := httptest.NewServer(coord.Handler())
	defer cts.Close()

	sse := http.Header{"Accept": []string{"text/event-stream"}}
	for name, hdr := range map[string]http.Header{"plain": nil, "sse": sse} {
		code, body := post(t, cts.URL, "/v1/sweep/nope", `{}`, hdr)
		if code != http.StatusBadRequest || !strings.Contains(body, "unknown sweep kind") {
			t.Errorf("%s: unknown kind: code=%d body=%s", name, code, body)
		}
		for _, n := range api.KindNames() {
			if !strings.Contains(body, n) {
				t.Errorf("%s: unknown-kind error does not list %q: %s", name, n, body)
			}
		}
		var envlp map[string]string
		if err := json.Unmarshal([]byte(body), &envlp); err != nil || envlp["error"] == "" {
			t.Errorf("%s: error response is not the documented envelope: %s", name, body)
		}
	}
	for _, k := range api.Kinds() {
		code, body := post(t, cts.URL, "/v1/sweep/"+k.Name, `{bad json`, nil)
		if code != http.StatusBadRequest || !strings.Contains(body, "parse request") {
			t.Errorf("%s: malformed body: code=%d body=%s", k.Name, code, body)
		}
	}
	code, body := post(t, cts.URL, "/v1/sweep/run", `{}`, nil)
	if code != http.StatusBadRequest || !strings.Contains(body, "explicit workloads list") {
		t.Errorf("empty run batch: code=%d body=%s", code, body)
	}
}

// TestFleetAdviseMatchesSingleNode is the advise acceptance contract:
// the fleet-merged advise sweep — perturbed per-job configs shipped
// inline to the workers — is byte-identical to a single node's
// /v1/sweep/advise body, survives losing a worker mid-sweep, and its
// report payload is exactly what the local compute marshals
// (`gpusim sweep advise -json` output).
func TestFleetAdviseMatchesSingleNode(t *testing.T) {
	_, single := newWorker(t, serve.Options{})

	dying, err := serve.New(serve.Options{})
	if err != nil {
		t.Fatal(err)
	}
	dyingTS := httptest.NewServer(abortAfter(1, dying.Handler()))
	defer dyingTS.Close()
	_, urlA := newWorker(t, serve.Options{})
	_, urlB := newWorker(t, serve.Options{})
	coord := newCoordinator(t, []string{urlA, urlB, dyingTS.URL}, Options{})
	cts := httptest.NewServer(coord.Handler())
	defer cts.Close()

	body := `{"workloads":["sc","kmeans"],"warmup_cycles":200,"window_cycles":500}`
	code, want := post(t, single, "/v1/sweep/advise", body, nil)
	if code != http.StatusOK {
		t.Fatalf("single node: %d %s", code, want)
	}
	code, got := post(t, cts.URL, "/v1/sweep/advise", body, nil)
	if code != http.StatusOK {
		t.Fatalf("fleet: %d %s", code, got)
	}
	if got != want {
		t.Errorf("fleet-merged advise differs from single node:\n got: %s\nwant: %s", got, want)
	}

	var env api.Envelope
	if err := json.Unmarshal([]byte(got), &env); err != nil {
		t.Fatal(err)
	}
	if env.Kind != "sweep-advise" || !resultcache.ValidKey(env.Key) {
		t.Errorf("advise envelope kind=%q key=%q", env.Kind, env.Key)
	}
	if local := localReport(t, "advise", body); string(env.Report) != local {
		t.Errorf("fleet advise report differs from the local compute:\n got: %s\nwant: %s", env.Report, local)
	}
}

// TestFleetPaperKindsMatchSingleNode: for the three paper kinds — the
// fixed-latency and scaled configs of latsweep and designspace ship
// inline to the workers — a 3-worker fleet's body is byte-identical
// to a single node's, and its report payload to the local compute's.
func TestFleetPaperKindsMatchSingleNode(t *testing.T) {
	_, single := newWorker(t, serve.Options{})
	_, urls := newFleet(t, 3, serve.Options{})
	coord := newCoordinator(t, urls, Options{})
	cts := httptest.NewServer(coord.Handler())
	defer cts.Close()

	body := `{"workloads":["sc","nn"],"warmup_cycles":200,"window_cycles":500}`
	for _, kind := range []string{"latsweep", "occupancy", "designspace"} {
		code, want := post(t, single, "/v1/sweep/"+kind, body, nil)
		if code != http.StatusOK {
			t.Fatalf("%s single node: %d %s", kind, code, want)
		}
		code, got := post(t, cts.URL, "/v1/sweep/"+kind, body, nil)
		if code != http.StatusOK {
			t.Fatalf("%s fleet: %d %s", kind, code, got)
		}
		if got != want {
			t.Errorf("%s: fleet-merged body differs from single node:\n got: %s\nwant: %s", kind, got, want)
		}
		var env api.Envelope
		if err := json.Unmarshal([]byte(got), &env); err != nil {
			t.Fatal(err)
		}
		if env.Kind != "sweep-"+kind {
			t.Errorf("%s: envelope kind %q", kind, env.Kind)
		}
		if local := localReport(t, kind, body); string(env.Report) != local {
			t.Errorf("%s: fleet report differs from the local compute:\n got: %s\nwant: %s", kind, env.Report, local)
		}
	}
}

// TestBadGridRejectedAlike: a request whose grid cannot be built — an
// advise variant that overflows the inline config's MSHR count, a
// workload needing more warps than the inline config allows, or a
// latsweep over a fixed-latency baseline — is the same 400 with the
// same message from a worker and from the coordinator.
func TestBadGridRejectedAlike(t *testing.T) {
	_, worker := newWorker(t, serve.Options{})
	coord := newCoordinator(t, []string{worker}, Options{})
	cts := httptest.NewServer(coord.Handler())
	defer cts.Close()

	huge := config.GTX480Baseline()
	huge.L1.MSHREntries = 1 << 62 // mshr-x4 wraps to 0
	raw, err := json.Marshal(huge)
	if err != nil {
		t.Fatal(err)
	}
	narrow := config.GTX480Baseline()
	narrow.Core.MaxWarpsPerSM = 4 // cfd runs more warps than that
	rawNarrow, err := json.Marshal(narrow)
	if err != nil {
		t.Fatal(err)
	}
	tooManyWarps := `{"workloads":["cfd"],"config":` + string(rawNarrow) + `}`
	for _, tc := range []struct{ path, body, want string }{
		{"/v1/sweep/advise", `{"workloads":["sc"],"config":` + string(raw) + `}`, "variant mshr-x4"},
		{"/v1/sweep/bottleneck", tooManyWarps, "warps/SM, config allows 4"},
		{"/v1/sweep/advise", tooManyWarps, "warps/SM, config allows 4"},
		{"/v1/sweep/run", tooManyWarps, "warps/SM, config allows 4"},
		{"/v1/sweep/latsweep", `{"workloads":["sc"],"fixed_latency":200}`, "fixed_latency"},
		{"/v1/sweep/occupancy", `{"workloads":["sc"],"fixed_latency":200}`, "fixed_latency"},
		{"/v1/sweep/designspace", `{"workloads":["sc"],"fixed_latency":200}`, "fixed_latency"},
	} {
		wcode, wbody := post(t, worker, tc.path, tc.body, nil)
		ccode, cbody := post(t, cts.URL, tc.path, tc.body, nil)
		if wcode != http.StatusBadRequest || ccode != http.StatusBadRequest {
			t.Errorf("%s: gpusimd %d, gpusimc %d; want 400 from both", tc.path, wcode, ccode)
		}
		if wbody != cbody || !strings.Contains(wbody, tc.want) {
			t.Errorf("%s: bodies differ or miss %q:\n gpusimd: %s gpusimc: %s", tc.path, tc.want, wbody, cbody)
		}
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

// TestCoordinatorHealthzVersions: the coordinator's /healthz carries
// the same api/codeversion fields as the workers', so one probe per
// daemon suffices to audit a fleet for version skew.
func TestCoordinatorHealthzVersions(t *testing.T) {
	_, url := newWorker(t, serve.Options{})
	coord := newCoordinator(t, []string{url}, Options{})
	cts := httptest.NewServer(coord.Handler())
	defer cts.Close()

	resp, err := http.Get(cts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	var h struct {
		Status      string `json:"status"`
		API         string `json:"api"`
		CodeVersion string `json:"codeversion"`
		Workers     int    `json:"workers"`
	}
	if err := json.Unmarshal(data, &h); err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" || h.API != api.Version || h.CodeVersion != resultcache.CodeVersion || h.Workers != 1 {
		t.Errorf("healthz = %s", data)
	}
}
