package fabric

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/api"
	"repro/internal/config"
	"repro/internal/policy"
	"repro/internal/resultcache"
	"repro/internal/serve"
)

// TestCoordinatorPolicyNameErrors mirrors the workers' strict-decode
// contract at the fleet's front door: an unknown policy name in an
// inline config is a 400 from the coordinator — before any job is
// dispatched — naming the seam and listing the registered policies.
func TestCoordinatorPolicyNameErrors(t *testing.T) {
	_, url := newWorker(t, serve.Options{})
	coord := newCoordinator(t, []string{url}, Options{})
	cts := httptest.NewServer(coord.Handler())
	defer cts.Close()

	cases := map[string]struct {
		set        func(*config.PolicyConfig)
		wantPhrase string
		registered []string
	}{
		"issue": {
			set:        func(p *config.PolicyConfig) { p.Issue = "hyper-aggressive" },
			wantPhrase: "unknown issue policy",
			registered: policy.IssueNames(),
		},
		"l1_fill": {
			set:        func(p *config.PolicyConfig) { p.L1Fill = "sometimes" },
			wantPhrase: "unknown L1 fill policy",
			registered: policy.FillNames(),
		},
		"l2_insert": {
			set:        func(p *config.PolicyConfig) { p.L2Insert = "lru-ish" },
			wantPhrase: "unknown L2 insertion policy",
			registered: policy.L2Names(),
		},
	}
	for name, tc := range cases {
		t.Run(name, func(t *testing.T) {
			cfg := config.GTX480Baseline()
			tc.set(&cfg.Policy)
			raw, err := json.Marshal(cfg)
			if err != nil {
				t.Fatal(err)
			}
			body := `{"workloads":["sc"],"warmup_cycles":100,"window_cycles":300,"config":` + string(raw) + `}`
			code, resp := post(t, cts.URL, "/v1/sweep/mitigation", body, nil)
			if code != http.StatusBadRequest || !strings.Contains(resp, tc.wantPhrase) {
				t.Fatalf("code=%d body=%s", code, resp)
			}
			for _, reg := range tc.registered {
				if !strings.Contains(resp, reg) {
					t.Errorf("error does not list registered policy %q: %s", reg, resp)
				}
			}
			var envlp map[string]string
			if err := json.Unmarshal([]byte(resp), &envlp); err != nil || envlp["error"] == "" {
				t.Errorf("error response is not the documented envelope: %s", resp)
			}
		})
	}
}

// TestFleetMitigationMatchesSingleNode is the mitigation acceptance
// contract: the fleet-merged mitigation sweep — per-job policy configs
// shipped inline to the workers — is byte-identical to a single node's
// /v1/sweep/mitigation body, survives losing a worker mid-sweep, and
// its report payload is exactly what the local compute marshals
// (`gpusim sweep mitigation -json` output).
func TestFleetMitigationMatchesSingleNode(t *testing.T) {
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
	code, want := post(t, single, "/v1/sweep/mitigation", body, nil)
	if code != http.StatusOK {
		t.Fatalf("single node: %d %s", code, want)
	}
	code, got := post(t, cts.URL, "/v1/sweep/mitigation", body, nil)
	if code != http.StatusOK {
		t.Fatalf("fleet: %d %s", code, got)
	}
	if got != want {
		t.Errorf("fleet-merged mitigation differs from single node:\n got: %s\nwant: %s", got, want)
	}

	var env api.Envelope
	if err := json.Unmarshal([]byte(got), &env); err != nil {
		t.Fatal(err)
	}
	if env.Kind != "sweep-mitigation" || !resultcache.ValidKey(env.Key) {
		t.Errorf("mitigation envelope kind=%q key=%q", env.Kind, env.Key)
	}
	if local := localReport(t, "mitigation", body); string(env.Report) != local {
		t.Errorf("fleet mitigation report differs from the local compute:\n got: %s\nwant: %s", env.Report, local)
	}
}
