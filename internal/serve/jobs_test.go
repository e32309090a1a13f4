package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"repro/internal/api"
	"repro/internal/config"
	"repro/internal/resultcache"
	"repro/internal/workload"
)

// tinyWindow is the methodology of the job-cache tests: every grid
// entry simulates, but only for a few hundred cycles.
const tinyWindow = `"warmup_cycles":50,"window_cycles":150`

// gridKeys resolves a sweep request as the server does, adds its grid's
// job keys to keys and returns the grid's length.
func gridKeys(t *testing.T, kind, body string, keys map[string]bool) int {
	t.Helper()
	var req api.JobRequest
	if err := json.Unmarshal([]byte(body), &req); err != nil {
		t.Fatal(err)
	}
	sw, err := api.ResolveSweep(kind, config.GTX480Baseline(), req, 1, math.MaxInt64)
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range sw.Grid {
		key, err := resultcache.JobKey(g.Config, g.Spec, sw.Params.WarmupCycles, sw.Params.WindowCycles)
		if err != nil {
			t.Fatal(err)
		}
		keys[key] = true
	}
	return len(sw.Grid)
}

// sweepOK posts a sweep and fails unless it answers 200 from source.
func sweepOK(t *testing.T, ts *httptest.Server, kind, body, source string) string {
	t.Helper()
	code, src, resp := post(t, ts, "/v1/sweep/"+kind, body)
	if code != http.StatusOK || src != source {
		t.Fatalf("%s: code=%d cache=%s, want 200 %s: %s", kind, code, src, source, resp)
	}
	return resp
}

// TestDefaultSweepsShareJobs: the eight default sweeps, with the run
// batch over the suite, lay out 344 grid entries over 292 distinct job
// keys, and one server simulates each key once — the hierarchy
// baselines the kinds share are computed by the first sweep that needs
// them and hit by the rest.
func TestDefaultSweepsShareJobs(t *testing.T) {
	var suite []string
	for _, wl := range workload.Suite() {
		suite = append(suite, fmt.Sprintf("%q", wl.Name()))
	}
	s, ts := newTestServer(t, Options{})
	keys := map[string]bool{}
	entries := 0
	for _, k := range api.Kinds() {
		body := `{` + tinyWindow + `}`
		if k.Name == "run" {
			body = `{"workloads":[` + strings.Join(suite, ",") + `],` + tinyWindow + `}`
		}
		entries += gridKeys(t, k.Name, body, keys)
		code, _, resp := post(t, ts, "/v1/sweep/"+k.Name, body)
		if code != http.StatusOK {
			t.Fatalf("%s: code=%d %s", k.Name, code, resp)
		}
	}
	if entries != 344 || len(keys) != 292 {
		t.Fatalf("default grids: %d entries over %d job keys, want 344 over 292", entries, len(keys))
	}
	if got := s.Simulations(); got != 292 {
		t.Fatalf("eight default sweeps ran %d simulations, want one per distinct job key (292)", got)
	}
}

// TestSweepReusesEarlierJobs: an advise over [cfd, sc] after one over
// [cfd] simulates only sc's grid, and a repeat of either is a hit
// that simulates nothing.
func TestSweepReusesEarlierJobs(t *testing.T) {
	s, ts := newTestServer(t, Options{})
	cfd := `{"workloads":["cfd"],` + tinyWindow + `}`
	both := `{"workloads":["cfd","sc"],` + tinyWindow + `}`
	perWorkload := int64(gridKeys(t, "advise", cfd, map[string]bool{}))

	first := sweepOK(t, ts, "advise", cfd, sourceMiss)
	if got := s.Simulations(); got != perWorkload {
		t.Fatalf("advise [cfd] ran %d simulations, want %d", got, perWorkload)
	}
	fresh := sweepOK(t, ts, "advise", both, sourceMiss)
	if got := s.Simulations(); got != 2*perWorkload {
		t.Fatalf("advise [cfd, sc] after [cfd]: %d simulations in all, want %d (sc's grid only)", got, 2*perWorkload)
	}
	if again := sweepOK(t, ts, "advise", cfd, sourceHit); again != first {
		t.Fatal("repeat of advise [cfd] changed the bytes")
	}
	if again := sweepOK(t, ts, "advise", both, sourceHit); again != fresh {
		t.Fatal("repeat of advise [cfd, sc] changed the bytes")
	}
	if got := s.Simulations(); got != 2*perWorkload {
		t.Fatalf("repeats simulated: %d simulations, want %d", got, 2*perWorkload)
	}
	_, cold := newTestServer(t, Options{})
	if want := sweepOK(t, cold, "advise", both, sourceMiss); fresh != want {
		t.Fatal("advise [cfd, sc] over cached cfd jobs differs from a cold server's")
	}
}

// TestConcurrentIdenticalSweepsRunEachJobOnce: two identical sweeps in
// flight at once share every job — each key is simulated once, by
// whichever sweep reaches it first — and answer the same bytes.
func TestConcurrentIdenticalSweepsRunEachJobOnce(t *testing.T) {
	s, ts := newTestServer(t, Options{MaxConcurrent: 2})
	body := `{"workloads":["sc","cfd"],` + tinyWindow + `}`
	keys := map[string]bool{}
	gridKeys(t, "designspace", body, keys)
	bodies := make([]string, 2)
	release := holdRunSlots(s)
	var wg sync.WaitGroup
	for i := range bodies {
		wg.Add(1)
		go func() {
			defer wg.Done()
			code, src, b := post(t, ts, "/v1/sweep/designspace", body)
			if code != http.StatusOK {
				t.Errorf("sweep %d: code=%d %s", i, code, b)
			}
			// Each job ran once, for one of the two sweeps; the other
			// waited on it, which docs/api.md documents as a miss.
			if src != sourceMiss {
				t.Errorf("sweep %d: X-Cache %q, want %q", i, src, sourceMiss)
			}
			bodies[i] = b
		}()
	}
	// Each sweep has its two workers (the parallelism cap) blocked on a
	// job before any job can finish, so neither sweep is all hits.
	release(t, 2*cap(s.sem))
	wg.Wait()
	if bodies[0] != bodies[1] {
		t.Fatal("concurrent identical sweeps answered different bytes")
	}
	if got := s.Simulations(); got != int64(len(keys)) {
		t.Fatalf("two concurrent sweeps ran %d simulations, want %d (one per job key)", got, len(keys))
	}
}

// TestPeerServesSweep: worker B, with peer A, serves a sweep A
// computed from A's job entries — X-Cache: peer, no simulation on B,
// and A's bytes — and so does C for another kind over the same jobs.
func TestPeerServesSweep(t *testing.T) {
	_, tsA := newTestServer(t, Options{})
	body := `{"workloads":["sc","kmeans"],` + tinyWindow + `}`
	fresh := sweepOK(t, tsA, "bottleneck", body, sourceMiss)

	b, tsB := newTestServer(t, Options{Peers: []string{tsA.URL}})
	if got := sweepOK(t, tsB, "bottleneck", body, sourcePeer); got != fresh {
		t.Fatalf("peer-served sweep differs:\n%s\nvs\n%s", got, fresh)
	}
	if got := b.Simulations(); got != 0 {
		t.Fatalf("worker B ran %d simulations, want 0", got)
	}
	if got := sweepOK(t, tsB, "bottleneck", body, sourceHit); got != fresh {
		t.Fatal("repeat on B changed the bytes")
	}

	// A run batch over the same workloads is the same jobs, so worker C
	// serves it from A's entries too: nothing is stored per sweep.
	c, tsC := newTestServer(t, Options{Peers: []string{tsA.URL}})
	batch := sweepOK(t, tsC, "run", body, sourcePeer)
	if got := c.Simulations(); got != 0 {
		t.Fatalf("worker C ran %d simulations, want 0", got)
	}
	if want := sweepOK(t, tsA, "run", body, sourceHit); batch != want {
		t.Fatal("peer-served run batch differs from A's")
	}
}

// TestSweepParallelismCappedAtMaxConcurrent: a sweep asking for more
// workers than the server has run slots is capped at MaxConcurrent, so
// with one slot and no queue it never sheds its own jobs; each job is
// one admitted simulation.
func TestSweepParallelismCappedAtMaxConcurrent(t *testing.T) {
	s, ts := newTestServer(t, Options{MaxConcurrent: 1, QueueDepth: -1})
	body := `{"workloads":["sc","kmeans"],"parallelism":8,` + tinyWindow + `}`
	keys := map[string]bool{}
	gridKeys(t, "advise", body, keys)
	sweepOK(t, ts, "advise", body, sourceMiss)
	if got := s.Simulations(); got != int64(len(keys)) {
		t.Fatalf("%d simulations, want one per job key (%d)", got, len(keys))
	}
}

// TestSweepShedMidwayResumes: a sweep whose job is shed answers 503 +
// Retry-After like a shed /v1/run, the jobs it had finished stay
// cached, and the retry simulates only what is left. A draining server
// refuses a sweep's jobs the same way.
func TestSweepShedMidwayResumes(t *testing.T) {
	s, ts := newTestServer(t, Options{MaxConcurrent: 1, QueueDepth: -1})
	cfd := `{"workloads":["cfd"],` + tinyWindow + `}`
	both := `{"workloads":["cfd","sc"],` + tinyWindow + `}`
	perWorkload := int64(gridKeys(t, "advise", cfd, map[string]bool{}))
	sweepOK(t, ts, "advise", cfd, sourceMiss)

	s.sem <- struct{}{} // occupy the only run slot: sc's jobs are shed
	resp, err := http.Post(ts.URL+"/v1/sweep/advise", "application/json", strings.NewReader(both))
	if err != nil {
		t.Fatal(err)
	}
	msg, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusServiceUnavailable || resp.Header.Get("Retry-After") == "" || !strings.Contains(string(msg), "queue full") {
		t.Fatalf("shed sweep: code=%d Retry-After=%q body=%s", resp.StatusCode, resp.Header.Get("Retry-After"), msg)
	}
	<-s.sem
	sweepOK(t, ts, "advise", both, sourceMiss)
	if got := s.Simulations(); got != 2*perWorkload {
		t.Fatalf("retry after the shed: %d simulations in all, want %d", got, 2*perWorkload)
	}

	if err := s.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	code, _, drained := post(t, ts, "/v1/sweep/advise", `{"workloads":["nn"],`+tinyWindow+`}`)
	if code != http.StatusServiceUnavailable || !strings.Contains(drained, "draining") {
		t.Fatalf("draining server ran a sweep: code=%d body=%s", code, drained)
	}
	sweepOK(t, ts, "advise", both, sourceHit)
}
