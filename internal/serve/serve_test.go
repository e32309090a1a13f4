package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

// post sends a JSON body and returns (status, X-Cache, body).
func post(t *testing.T, ts *httptest.Server, path, body string) (int, string, string) {
	t.Helper()
	resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, resp.Header.Get("X-Cache"), string(data)
}

func newTestServer(t *testing.T, o Options) (*Server, *httptest.Server) {
	t.Helper()
	s, err := New(o)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

// TestRunCacheByteIdentical is the determinism contract end to end,
// for a suite workload and a multi-phase scenario: a cache hit is
// byte-identical to the fresh run, across a persist/reload cycle and
// across requested parallelism.
func TestRunCacheByteIdentical(t *testing.T) {
	dir := t.TempDir()
	_, ts := newTestServer(t, Options{CacheDir: dir})

	for _, wl := range []string{"sc", "kmeans"} {
		body := fmt.Sprintf(`{"workload":%q,"warmup_cycles":200,"window_cycles":600,"parallelism":1}`, wl)
		code, cacheHdr, fresh := post(t, ts, "/v1/run", body)
		if code != http.StatusOK || cacheHdr != "miss" {
			t.Fatalf("%s: fresh run: code=%d cache=%s body=%s", wl, code, cacheHdr, fresh)
		}
		if !strings.Contains(fresh, `"results":{"Cycles":`) {
			t.Fatalf("%s: no results payload: %s", wl, fresh)
		}
		code, cacheHdr, hit := post(t, ts, "/v1/run", body)
		if code != http.StatusOK || cacheHdr != "hit" {
			t.Fatalf("%s: second run not a hit: code=%d cache=%s", wl, code, cacheHdr)
		}
		if hit != fresh {
			t.Fatalf("%s: cache hit differs from fresh run:\n%s\nvs\n%s", wl, hit, fresh)
		}

		// A restarted server over the same directory serves the same
		// bytes from disk.
		_, ts2 := newTestServer(t, Options{CacheDir: dir})
		code, cacheHdr, reloaded := post(t, ts2, "/v1/run", body)
		if code != http.StatusOK || cacheHdr != "hit" {
			t.Fatalf("%s: persisted entry not a hit: code=%d cache=%s", wl, code, cacheHdr)
		}
		if reloaded != fresh {
			t.Fatalf("%s: persisted hit differs from fresh run", wl)
		}

		// A cold server asked for different parallelism recomputes to
		// the same bytes (parallelism is not a result input).
		_, ts3 := newTestServer(t, Options{})
		body4 := strings.Replace(body, `"parallelism":1`, `"parallelism":4`, 1)
		code, cacheHdr, recomputed := post(t, ts3, "/v1/run", body4)
		if code != http.StatusOK || cacheHdr != "miss" {
			t.Fatalf("%s: cold recompute: code=%d cache=%s", wl, code, cacheHdr)
		}
		if recomputed != fresh {
			t.Fatalf("%s: parallelism changed the response bytes", wl)
		}
	}
}

// TestSweepCacheByteIdentical: the bottleneck sweep (one suite
// workload + one multi-phase scenario) is byte-identical between
// parallelism 1 and 4, and a hit serves the stored bytes.
func TestSweepCacheByteIdentical(t *testing.T) {
	dir := t.TempDir()
	_, ts := newTestServer(t, Options{CacheDir: dir})
	body := `{"workloads":["sc","kmeans"],"warmup_cycles":200,"window_cycles":500,"parallelism":1}`
	code, cacheHdr, fresh := post(t, ts, "/v1/sweep/bottleneck", body)
	if code != http.StatusOK || cacheHdr != "miss" {
		t.Fatalf("fresh sweep: code=%d cache=%s body=%s", code, cacheHdr, fresh)
	}
	for _, want := range []string{`"Workload":"sc"`, `"Workload":"kmeans"`, `"issue":`, `"dram-queue":`} {
		if !strings.Contains(fresh, want) {
			t.Fatalf("sweep report missing %s:\n%s", want, fresh)
		}
	}

	// Parallelism 4 on the warm cache is a hit — the key excludes it.
	body4 := strings.Replace(body, `"parallelism":1`, `"parallelism":4`, 1)
	code, cacheHdr, hit := post(t, ts, "/v1/sweep/bottleneck", body4)
	if code != http.StatusOK || cacheHdr != "hit" || hit != fresh {
		t.Fatalf("warm sweep at -j 4: code=%d cache=%s identical=%v", code, cacheHdr, hit == fresh)
	}

	// Parallelism 4 on a cold cache recomputes the same bytes.
	_, cold := newTestServer(t, Options{})
	code, cacheHdr, recomputed := post(t, cold, "/v1/sweep/bottleneck", body4)
	if code != http.StatusOK || cacheHdr != "miss" {
		t.Fatalf("cold sweep: code=%d cache=%s", code, cacheHdr)
	}
	if recomputed != fresh {
		t.Fatalf("sweep not byte-identical at -j 1 vs -j 4:\n%s\nvs\n%s", fresh, recomputed)
	}

	// And the scenario sweep round-trips through its endpoint.
	code, _, scen := post(t, ts, "/v1/sweep/scenarios",
		`{"workloads":["kmeans"],"warmup_cycles":200,"window_cycles":500}`)
	if code != http.StatusOK || !strings.Contains(scen, `"Control":"kmeans-fixed"`) {
		t.Fatalf("scenario sweep: code=%d body=%s", code, scen)
	}
}

// TestCorruptCacheEntryRecomputed: a damaged disk entry must not be
// served or poison its key — the validator rejects it on load, the
// job recomputes, and the response matches the original bytes. Both
// damage classes are covered: invalid JSON and a well-formed snapshot
// the simulator could not have produced.
func TestCorruptCacheEntryRecomputed(t *testing.T) {
	body := `{"workload":"nn","warmup_cycles":100,"window_cycles":300}`
	for damage, junk := range map[string]string{
		"truncated":  `{"key":"x","results":{"Cyc`,
		"impossible": `{"Cycles":-1}`,
	} {
		dir := t.TempDir()
		_, ts := newTestServer(t, Options{CacheDir: dir})
		code, _, fresh := post(t, ts, "/v1/run", body)
		if code != http.StatusOK {
			t.Fatalf("%s: fresh run failed: %d", damage, code)
		}
		entries, err := filepath.Glob(filepath.Join(dir, "run-*.json"))
		if err != nil || len(entries) != 1 {
			t.Fatalf("%s: expected one run entry, got %v (%v)", damage, entries, err)
		}
		if err := os.WriteFile(entries[0], []byte(junk), 0o644); err != nil {
			t.Fatal(err)
		}
		s2, ts2 := newTestServer(t, Options{CacheDir: dir})
		code, cacheHdr, redone := post(t, ts2, "/v1/run", body)
		if code != http.StatusOK || cacheHdr != "miss" {
			t.Fatalf("%s: corrupt entry not recomputed: code=%d cache=%s body=%s", damage, code, cacheHdr, redone)
		}
		if redone != fresh {
			t.Fatalf("%s: recomputed bytes differ from the original", damage)
		}
		if st := s2.Cache().Stats(); st.BadEntries != 1 {
			t.Fatalf("%s: bad entry not counted: %+v", damage, st)
		}
	}
}

// TestConcurrentIdenticalSubmissionsRunOnce: the singleflight +
// cache combination guarantees a herd of identical submissions costs
// exactly one simulation.
func TestConcurrentIdenticalSubmissionsRunOnce(t *testing.T) {
	s, ts := newTestServer(t, Options{MaxConcurrent: 4, QueueDepth: 16})
	body := `{"workload":"sc","warmup_cycles":300,"window_cycles":1500}`
	const herd = 6
	bodies := make([]string, herd)
	var wg sync.WaitGroup
	for i := 0; i < herd; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			code, _, b := post(t, ts, "/v1/run", body)
			if code != http.StatusOK {
				t.Errorf("request %d: code %d: %s", i, code, b)
			}
			bodies[i] = b
		}(i)
	}
	wg.Wait()
	for i := 1; i < herd; i++ {
		if bodies[i] != bodies[0] {
			t.Fatalf("request %d got different bytes", i)
		}
	}
	if st := s.Cache().Stats(); st.Computes != 1 {
		t.Fatalf("herd of %d identical submissions ran %d simulations, want 1 (%+v)", herd, st.Computes, st)
	}
}

// TestQueueBoundsAndShedding: with one run slot and no queue, a
// second distinct job sheds with 503 while the slot is held, and runs
// once it frees.
func TestQueueBoundsAndShedding(t *testing.T) {
	s, ts := newTestServer(t, Options{MaxConcurrent: 1, QueueDepth: -1})
	s.sem <- struct{}{} // occupy the only run slot
	body := `{"workload":"nn","warmup_cycles":100,"window_cycles":300}`
	code, _, resp := post(t, ts, "/v1/run", body)
	if code != http.StatusServiceUnavailable || !strings.Contains(resp, "queue full") {
		t.Fatalf("saturated server did not shed: code=%d body=%s", code, resp)
	}
	<-s.sem // free the slot
	if code, _, resp = post(t, ts, "/v1/run", body); code != http.StatusOK {
		t.Fatalf("freed server refused the job: code=%d body=%s", code, resp)
	}
}

// TestDrain: draining rejects new jobs with 503, waits for in-flight
// work, and keeps serving cache hits read-only.
func TestDrain(t *testing.T) {
	s, ts := newTestServer(t, Options{})
	body := `{"workload":"nn","warmup_cycles":100,"window_cycles":300}`
	if code, _, resp := post(t, ts, "/v1/run", body); code != http.StatusOK {
		t.Fatalf("warmup run failed: %d %s", code, resp)
	}

	if !s.begin() {
		t.Fatal("begin failed before drain")
	}
	drained := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		drained <- s.Drain(ctx)
	}()
	// Drain must be blocked on the registered in-flight job.
	time.Sleep(20 * time.Millisecond)
	select {
	case err := <-drained:
		t.Fatalf("drain returned with a job in flight: %v", err)
	default:
	}
	// New distinct work is refused...
	code, _, resp := post(t, ts, "/v1/run", `{"workload":"lbm","warmup_cycles":100,"window_cycles":300}`)
	if code != http.StatusServiceUnavailable || !strings.Contains(resp, "draining") {
		t.Fatalf("draining server accepted work: code=%d body=%s", code, resp)
	}
	// ...but cached results still serve.
	if code, cacheHdr, _ := post(t, ts, "/v1/run", body); code != http.StatusOK || cacheHdr != "hit" {
		t.Fatalf("draining server refused a cache hit: code=%d cache=%s", code, cacheHdr)
	}
	s.inflight.Done()
	if err := <-drained; err != nil {
		t.Fatalf("drain: %v", err)
	}
	if code, _, _ := post(t, ts, "/healthz", ""); code != http.StatusMethodNotAllowed {
		t.Fatalf("POST /healthz should be method-not-allowed, got %d", code)
	}
}

// TestRequestValidation: malformed submissions fail loudly with 400.
func TestRequestValidation(t *testing.T) {
	_, ts := newTestServer(t, Options{MaxWindowCycles: 5000})
	cases := map[string]struct {
		path, body, want string
	}{
		"unknown workload": {"/v1/run", `{"workload":"quake3"}`, "unknown benchmark"},
		"no workload":      {"/v1/run", `{}`, "needs a workload"},
		"both sources":     {"/v1/run", `{"workload":"sc","spec":{"name":"x"}}`, "mutually exclusive"},
		"unknown field":    {"/v1/run", `{"workload":"sc","zap":1}`, "unknown field"},
		"window over cap":  {"/v1/run", `{"workload":"sc","warmup_cycles":4000,"window_cycles":2000}`, "exceeds the server cap"},
		"bad inline spec":  {"/v1/run", `{"spec":{"name":"x","warps":0}}`, "warps must be positive"},
		"bad scale":        {"/v1/run", `{"workload":"sc","scale":"warp9"}`, "unknown scaling set"},
		"sweep with spec":  {"/v1/sweep/bottleneck", `{"workload":"sc"}`, "workloads list"},
		"sweep bad name":   {"/v1/sweep/scenarios", `{"workloads":["quake3"]}`, "unknown benchmark"},
		"zero window":      {"/v1/run", `{"workload":"sc","window_cycles":0}`, "warmup must be"},
		"run with list":    {"/v1/run", `{"workloads":["sc","lbm"]}`, "goes to /v1/sweep"},
		"trailing data":    {"/v1/run", `{"workload":"sc"}{"workload":"lbm"}`, "trailing data"},
	}
	for name, tc := range cases {
		code, _, body := post(t, ts, tc.path, tc.body)
		if code != http.StatusBadRequest {
			t.Errorf("%s: code %d body %s", name, code, body)
			continue
		}
		if !strings.Contains(body, tc.want) {
			t.Errorf("%s: body %q does not mention %q", name, body, tc.want)
		}
	}

	// GET endpoints answer.
	resp, err := http.Get(ts.URL + "/v1/workloads")
	if err != nil {
		t.Fatal(err)
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	var wl struct {
		Benchmarks []string `json:"benchmarks"`
		Scenarios  []string `json:"scenarios"`
	}
	if err := json.Unmarshal(data, &wl); err != nil {
		t.Fatal(err)
	}
	if len(wl.Benchmarks) != 8 || len(wl.Scenarios) != 4 {
		t.Fatalf("unexpected workload listing: %s", data)
	}
}

// TestRunJobPanicIsAnError: a simulation that panics fails its job
// with an error the handlers answer as a 500 envelope, instead of
// dropping the connection, and leaves nothing behind: its admission
// slot is released and a second request for the same key computes
// and answers.
func TestRunJobPanicIsAnError(t *testing.T) {
	s, _ := newTestServer(t, Options{MaxConcurrent: 1})
	job := func(compute func() ([]byte, error)) ([]byte, error) {
		done := make(chan struct{})
		var val []byte
		var err error
		go func() {
			defer close(done)
			val, _, err = s.cache.GetOrCompute("crash", func() ([]byte, error) {
				return s.runJob(compute)
			})
		}()
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			t.Fatal("job did not answer")
		}
		return val, err
	}
	_, err := job(func() ([]byte, error) { panic("integer divide by zero") })
	if err == nil || !strings.Contains(err.Error(), "integer divide by zero") {
		t.Fatalf("panicking job: err %v, want one naming the panic", err)
	}
	if code := errStatus(err); code != http.StatusInternalServerError {
		t.Fatalf("panicking job maps to %d, want 500", code)
	}
	val, err := job(func() ([]byte, error) { return []byte("ok"), nil })
	if err != nil || string(val) != "ok" {
		t.Fatalf("second post of the key: val=%q err=%v", val, err)
	}
}
