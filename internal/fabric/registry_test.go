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

	var env serve.Envelope
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
