package fabric

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/api"
	"repro/internal/config"
	"repro/internal/resultcache"
	"repro/internal/serve"
	"repro/internal/workload"
)

// newWorker starts one in-process gpusimd worker and returns it with
// its base URL.
func newWorker(t *testing.T, o serve.Options) (*serve.Server, string) {
	t.Helper()
	s, err := serve.New(o)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts.URL
}

// newFleet starts n workers with their caches peer-wired to each
// other (every worker lists the others as -peers would).
func newFleet(t testing.TB, n int, o serve.Options) ([]*serve.Server, []string) {
	t.Helper()
	handlers := make([]atomic.Value, n)
	urls := make([]string, n)
	for i := range handlers {
		i := i
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			h, _ := handlers[i].Load().(http.Handler)
			if h == nil {
				http.Error(w, "starting", http.StatusServiceUnavailable)
				return
			}
			h.ServeHTTP(w, r)
		}))
		t.Cleanup(ts.Close)
		urls[i] = ts.URL
	}
	servers := make([]*serve.Server, n)
	for i := range servers {
		opt := o
		opt.Peers = nil
		for j, u := range urls {
			if j != i {
				opt.Peers = append(opt.Peers, u)
			}
		}
		s, err := serve.New(opt)
		if err != nil {
			t.Fatal(err)
		}
		servers[i] = s
		handlers[i].Store(s.Handler())
	}
	return servers, urls
}

// newCoordinator builds a coordinator with test-speed retry timings.
func newCoordinator(t testing.TB, urls []string, o Options) *Coordinator {
	t.Helper()
	o.Workers = urls
	if o.Backoff == 0 {
		o.Backoff = time.Millisecond
	}
	if o.Cooldown == 0 {
		o.Cooldown = 50 * time.Millisecond
	}
	c, err := New(o)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// post sends a JSON body and returns (status, body).
func post(t *testing.T, url, path, body string, header http.Header) (int, string) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, url+path, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	for k, v := range header {
		req.Header[k] = v
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(data)
}

// TestFleetSweepMatchesSingleNode is the tentpole contract: the
// merged report from a 3-worker fleet is byte-identical — the whole
// HTTP body, key and report included — to the same sweep on one
// node, for both sweep kinds.
func TestFleetSweepMatchesSingleNode(t *testing.T) {
	_, single := newWorker(t, serve.Options{})
	_, urls := newFleet(t, 3, serve.Options{})
	coord := newCoordinator(t, urls, Options{})
	cts := httptest.NewServer(coord.Handler())
	defer cts.Close()

	for _, tc := range []struct{ kind, body string }{
		{"bottleneck", `{"workloads":["sc","kmeans"],"warmup_cycles":200,"window_cycles":500}`},
		{"scenarios", `{"workloads":["kmeans","bfs"],"warmup_cycles":200,"window_cycles":500}`},
	} {
		code, want := post(t, single, "/v1/sweep/"+tc.kind, tc.body, nil)
		if code != http.StatusOK {
			t.Fatalf("%s: single node: %d %s", tc.kind, code, want)
		}
		code, got := post(t, cts.URL, "/v1/sweep/"+tc.kind, tc.body, nil)
		if code != http.StatusOK {
			t.Fatalf("%s: fleet: %d %s", tc.kind, code, got)
		}
		if got != want {
			t.Errorf("%s: fleet-merged body differs from single node:\n got: %s\nwant: %s", tc.kind, got, want)
		}
	}
}

// TestGoldenFabricSweep pins the fleet-merged bottleneck sweep body
// to a golden file, so a drift in merge order, envelope shape or
// simulated numbers shows up as a byte diff. Regenerate with
// UPDATE_GOLDEN=1 go test ./internal/fabric/ (scripts/regen-golden.sh
// does this).
func TestGoldenFabricSweep(t *testing.T) {
	_, urls := newFleet(t, 3, serve.Options{})
	coord := newCoordinator(t, urls, Options{})
	cts := httptest.NewServer(coord.Handler())
	defer cts.Close()

	body := `{"workloads":["sc","kmeans"],"warmup_cycles":200,"window_cycles":500}`
	code, got := post(t, cts.URL, "/v1/sweep/bottleneck", body, nil)
	if code != http.StatusOK {
		t.Fatalf("sweep failed: %d %s", code, got)
	}
	golden := filepath.Join("testdata", "fabric-bottleneck.golden")
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("fleet sweep drifted from golden:\n got: %s\nwant: %s", got, want)
	}
}

// abortAfter wraps a worker handler: the first n POST /v1/run
// requests pass through, every later one drops the connection
// mid-response — a worker dying mid-sweep, as the coordinator's
// client sees it.
func abortAfter(n int64, inner http.Handler) http.Handler {
	var served int64
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPost && r.URL.Path == "/v1/run" {
			if atomic.AddInt64(&served, 1) > n {
				panic(http.ErrAbortHandler)
			}
		}
		inner.ServeHTTP(w, r)
	})
}

// TestWorkerLossMidSweep kills one of three workers after its first
// job and still requires the merged report byte-identical to a
// single-node run: every job the dead worker would have served must
// requeue onto the survivors.
func TestWorkerLossMidSweep(t *testing.T) {
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
	body := `{"workloads":["sc","cfd","nn","nw","kmeans","bfs"],"warmup_cycles":200,"window_cycles":500}`
	code, want := post(t, single, "/v1/sweep/bottleneck", body, nil)
	if code != http.StatusOK {
		t.Fatalf("single node: %d %s", code, want)
	}
	cts := httptest.NewServer(coord.Handler())
	defer cts.Close()
	code, got := post(t, cts.URL, "/v1/sweep/bottleneck", body, nil)
	if code != http.StatusOK {
		t.Fatalf("fleet with dying worker: %d %s", code, got)
	}
	if got != want {
		t.Errorf("worker loss changed the merged bytes:\n got: %s\nwant: %s", got, want)
	}
}

// abortOnceAfterCompute wraps a worker handler: the first POST
// /v1/run runs to completion — simulation done, cache populated —
// but the response is dropped before the client sees it. The
// coordinator observes a dead worker; the work happened anyway.
func abortOnceAfterCompute(inner http.Handler) http.Handler {
	var tripped int64
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPost && r.URL.Path == "/v1/run" &&
			atomic.CompareAndSwapInt64(&tripped, 0, 1) {
			inner.ServeHTTP(httptest.NewRecorder(), r)
			panic(http.ErrAbortHandler)
		}
		inner.ServeHTTP(w, r)
	})
}

// TestDuplicateCompletionDeduped is the retry-raced-the-original
// case: worker 1 finishes the simulation but its response is lost, so
// the coordinator retries on worker 2 — which must serve worker 1's
// cached result over peer-fetch instead of simulating again. The
// content address is the dedup.
func TestDuplicateCompletionDeduped(t *testing.T) {
	// The job's content address — and therefore its rendezvous-primary
	// worker — is known before any request is sent, so only the primary
	// gets the lose-the-response wrapper.
	warmup, window := int64(200), int64(500)
	sp, err := workload.SpecByName("sc")
	if err != nil {
		t.Fatal(err)
	}
	key, err := resultcache.JobKey(config.GTX480Baseline(), sp, warmup, window)
	if err != nil {
		t.Fatal(err)
	}

	handlers := make([]atomic.Value, 2)
	urls := make([]string, 2)
	for i := range handlers {
		i := i
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			handlers[i].Load().(http.Handler).ServeHTTP(w, r)
		}))
		t.Cleanup(ts.Close)
		urls[i] = ts.URL
	}
	primary := resultcache.Rank(key, urls)[0]
	servers := make([]*serve.Server, 2)
	for i := range servers {
		s, err := serve.New(serve.Options{Peers: []string{urls[1-i]}})
		if err != nil {
			t.Fatal(err)
		}
		servers[i] = s
		h := http.Handler(s.Handler())
		if urls[i] == primary {
			h = abortOnceAfterCompute(h)
		}
		handlers[i].Store(h)
	}

	coord := newCoordinator(t, urls, Options{})
	var events []JobEvent
	env, err := coord.RunSweep(context.Background(), "run", api.JobRequest{
		Workloads: []string{"sc"}, Warmup: &warmup, Window: &window,
	}, func(ev JobEvent) { events = append(events, ev) })
	if err != nil {
		t.Fatal(err)
	}

	var pServer, sServer *serve.Server
	for i, u := range urls {
		if u == primary {
			pServer, sServer = servers[i], servers[1-i]
		}
	}
	if got := pServer.Simulations(); got != 1 {
		t.Errorf("primary worker simulated %d times, want exactly 1", got)
	}
	if got := sServer.Simulations(); got != 0 {
		t.Errorf("retry worker simulated %d times, want 0 (peer-fetch dedup)", got)
	}
	if len(events) != 1 || events[0].Attempt != 2 || events[0].Source != "peer" {
		t.Errorf("events = %+v, want one event with attempt=2 source=peer", events)
	}

	// The deduped envelope still carries the single-node bytes.
	_, single := newWorker(t, serve.Options{})
	code, want := post(t, single, "/v1/run",
		fmt.Sprintf(`{"workload":"sc","warmup_cycles":%d,"window_cycles":%d}`, warmup, window), nil)
	if code != http.StatusOK {
		t.Fatalf("single node run: %d %s", code, want)
	}
	var batch []api.Envelope
	if err := json.Unmarshal(env.Report, &batch); err != nil {
		t.Fatal(err)
	}
	got, err := json.Marshal(batch[0])
	if err != nil {
		t.Fatal(err)
	}
	if string(got)+"\n" != want {
		t.Errorf("deduped envelope differs from single node:\n got: %s\nwant: %s", got, want)
	}
}

// negativeCycles rewrites every "Cycles" count of a response body to
// -1: well-formed JSON that no simulation can produce.
var negativeCycles = regexp.MustCompile(`"Cycles":[0-9]+`)

// rewriteRuns wraps a worker handler: every POST /v1/run answers with
// its status and headers and the body rewrite makes of its own.
func rewriteRuns(inner http.Handler, rewrite func([]byte) []byte) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost || r.URL.Path != "/v1/run" {
			inner.ServeHTTP(w, r)
			return
		}
		rec := httptest.NewRecorder()
		inner.ServeHTTP(rec, r)
		for k, v := range rec.Header() {
			w.Header()[k] = v
		}
		w.WriteHeader(rec.Code)
		w.Write(rewrite(rec.Body.Bytes()))
	})
}

// corruptRuns wraps a worker handler: every POST /v1/run answers 200
// with its results' cycle counts rewritten to -1.
func corruptRuns(inner http.Handler) http.Handler {
	return rewriteRuns(inner, func(b []byte) []byte {
		return negativeCycles.ReplaceAll(b, []byte(`"Cycles":-1`))
	})
}

// faultyPrimaryFleet starts two workers and wraps with fault the one
// that is the rendezvous primary of sc's job at 200+500 cycles, the
// first job of every sweep the fault tests send, so the fault is met
// whatever ports the workers got. It returns both URLs and the faulty
// worker's.
func faultyPrimaryFleet(t *testing.T, fault func(http.Handler) http.Handler) (urls []string, bad string) {
	t.Helper()
	sc, err := workload.SpecByName("sc")
	if err != nil {
		t.Fatal(err)
	}
	key, err := resultcache.JobKey(config.GTX480Baseline(), sc, 200, 500)
	if err != nil {
		t.Fatal(err)
	}
	handlers := make([]atomic.Value, 2)
	urls = make([]string, 2)
	for i := range handlers {
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			handlers[i].Load().(http.Handler).ServeHTTP(w, r)
		}))
		t.Cleanup(ts.Close)
		urls[i] = ts.URL
	}
	bad = resultcache.Rank(key, urls)[0]
	for i := range handlers {
		s, err := serve.New(serve.Options{})
		if err != nil {
			t.Fatal(err)
		}
		h := http.Handler(s.Handler())
		if urls[i] == bad {
			h = fault(h)
		}
		handlers[i].Store(h)
	}
	return urls, bad
}

// TestCorruptWorkerResultsRetried: a worker whose results fail to
// decode is a worker fault, like a 5xx. The coordinator counts the
// failure against it and retries the job on the next-ranked worker, so
// the sweep still answers the single node's bytes.
func TestCorruptWorkerResultsRetried(t *testing.T) {
	body := `{"workloads":["sc","cfd","nn","nw","kmeans","bfs"],"warmup_cycles":200,"window_cycles":500}`
	urls, bad := faultyPrimaryFleet(t, corruptRuns)
	_, single := newWorker(t, serve.Options{})
	code, want := post(t, single, "/v1/sweep/run", body, nil)
	if code != http.StatusOK {
		t.Fatalf("single node: %d %s", code, want)
	}
	coord := newCoordinator(t, urls, Options{})
	cts := httptest.NewServer(coord.Handler())
	defer cts.Close()
	code, got := post(t, cts.URL, "/v1/sweep/run", body, nil)
	if code != http.StatusOK || got != want {
		t.Errorf("fleet with a corrupting worker: code=%d identical=%v: %s", code, got == want, got)
	}
	for _, ws := range coord.Workers() {
		if corrupting := ws.URL == bad; corrupting != (ws.Failures > 0) {
			t.Errorf("worker %s (corrupting=%v): %d failures", ws.URL, corrupting, ws.Failures)
		}
	}

	// With no healthy worker left to retry on, the error names the job
	// and its last fault.
	only := httptest.NewServer(newCoordinator(t, []string{bad}, Options{}).Handler())
	defer only.Close()
	code, got = post(t, only.URL, "/v1/sweep/run", `{"workloads":["sc"],"warmup_cycles":200,"window_cycles":500}`, nil)
	if code != http.StatusBadGateway || !strings.Contains(got, "job sc on "+bad) || !strings.Contains(got, "negative cycles") {
		t.Errorf("all-corrupt fleet: code=%d body=%s", code, got)
	}
}

// TestRunBatchMatchesSingleRuns: a run-kind batch's report is exactly
// the ordered list of single-node /v1/run envelopes.
func TestRunBatchMatchesSingleRuns(t *testing.T) {
	_, single := newWorker(t, serve.Options{})
	_, urls := newFleet(t, 2, serve.Options{})
	coord := newCoordinator(t, urls, Options{})

	warmup, window := int64(200), int64(500)
	names := []string{"sc", "kmeans"}
	env, err := coord.RunSweep(context.Background(), "run", api.JobRequest{
		Workloads: names, Warmup: &warmup, Window: &window,
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if env.Kind != "run-batch" {
		t.Fatalf("kind = %q", env.Kind)
	}
	var batch []api.Envelope
	if err := json.Unmarshal(env.Report, &batch); err != nil {
		t.Fatal(err)
	}
	if len(batch) != len(names) {
		t.Fatalf("batch has %d envelopes, want %d", len(batch), len(names))
	}
	for i, name := range names {
		code, want := post(t, single, "/v1/run",
			fmt.Sprintf(`{"workload":%q,"warmup_cycles":%d,"window_cycles":%d}`, name, warmup, window), nil)
		if code != http.StatusOK {
			t.Fatalf("%s: single node run: %d %s", name, code, want)
		}
		got, err := json.Marshal(batch[i])
		if err != nil {
			t.Fatal(err)
		}
		if string(got)+"\n" != want {
			t.Errorf("%s: batch envelope differs from single node:\n got: %s\nwant: %s", name, got, want)
		}
	}
}

// TestCacheLocalityRepeatSweep: re-running a sweep routes every job
// back to the worker whose cache holds it — all cache hits, no new
// simulations.
func TestCacheLocalityRepeatSweep(t *testing.T) {
	servers, urls := newFleet(t, 3, serve.Options{})
	coord := newCoordinator(t, urls, Options{})
	warmup, window := int64(200), int64(500)
	req := api.JobRequest{Workloads: []string{"sc", "cfd", "nn", "kmeans"}, Warmup: &warmup, Window: &window}

	first := map[int]string{}
	_, err := coord.RunSweep(context.Background(), "bottleneck", req, func(ev JobEvent) {
		first[ev.Index] = ev.Worker
	})
	if err != nil {
		t.Fatal(err)
	}
	var before int64
	for _, s := range servers {
		before += s.Simulations()
	}

	var mu sync.Mutex
	second := map[int]JobEvent{}
	_, err = coord.RunSweep(context.Background(), "bottleneck", req, func(ev JobEvent) {
		mu.Lock()
		second[ev.Index] = ev
		mu.Unlock()
	})
	if err != nil {
		t.Fatal(err)
	}
	var after int64
	for _, s := range servers {
		after += s.Simulations()
	}
	if after != before {
		t.Errorf("repeat sweep ran %d new simulations, want 0", after-before)
	}
	for idx, ev := range second {
		if ev.Source != "hit" {
			t.Errorf("job %d: source = %q, want hit", idx, ev.Source)
		}
		if ev.Worker != first[idx] {
			t.Errorf("job %d: routed to %s, first run used %s — locality broken", idx, ev.Worker, first[idx])
		}
	}
}

// TestConfigDriftDetected: every fleet job carries its resolved
// config, so a worker deployed with a different base config (Seed 99)
// serves a fleet sweep byte-identical to a single node on the
// coordinator's base. A worker that addresses results differently —
// here one answering with a foreign key, as a result-cache
// code-version skew would — is still refused rather than merged.
func TestConfigDriftDetected(t *testing.T) {
	drifted := config.GTX480Baseline()
	drifted.Seed = 99
	_, url := newWorker(t, serve.Options{Config: &drifted})
	_, single := newWorker(t, serve.Options{})
	coord := newCoordinator(t, []string{url}, Options{MaxAttempts: 1})
	cts := httptest.NewServer(coord.Handler())
	defer cts.Close()

	body := `{"workloads":["sc"],"warmup_cycles":200,"window_cycles":500}`
	_, want := post(t, single, "/v1/sweep/run", body, nil)
	if code, got := post(t, cts.URL, "/v1/sweep/run", body, nil); code != http.StatusOK || got != want {
		t.Fatalf("fleet of a Seed-99 worker: %d\n got: %s\nwant: %s", code, got, want)
	}

	foreign := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte(`{"key":"run-foreign","kind":"measure"}`))
	}))
	defer foreign.Close()
	skewed := newCoordinator(t, []string{foreign.URL}, Options{MaxAttempts: 1})
	warmup, window := int64(200), int64(500)
	_, err := skewed.RunSweep(context.Background(), "run", api.JobRequest{
		Workloads: []string{"sc"}, Warmup: &warmup, Window: &window,
	}, nil)
	if err == nil || !strings.Contains(err.Error(), "addressed the result as run-foreign") {
		t.Fatalf("key mismatch not detected: %v", err)
	}
}

// TestInlineConfigFleetSweep: a fleet sweep whose request carries an
// inline config measures that config, not the workers' base, and
// answers the same body as a single node for every sweep that runs
// the request's config directly.
func TestInlineConfigFleetSweep(t *testing.T) {
	_, single := newWorker(t, serve.Options{})
	_, urls := newFleet(t, 2, serve.Options{})
	coord := newCoordinator(t, urls, Options{})
	cts := httptest.NewServer(coord.Handler())
	defer cts.Close()

	cfg := config.GTX480Baseline()
	cfg.L2.Sets *= 2
	raw, err := json.Marshal(cfg)
	if err != nil {
		t.Fatal(err)
	}
	body := `{"workloads":["sc"],"warmup_cycles":200,"window_cycles":500,"config":` + string(raw) + `}`
	for _, kind := range []string{"bottleneck", "run", "advise"} {
		wcode, want := post(t, single, "/v1/sweep/"+kind, body, nil)
		ccode, got := post(t, cts.URL, "/v1/sweep/"+kind, body, nil)
		if wcode != http.StatusOK || ccode != http.StatusOK || got != want {
			t.Errorf("%s: gpusimd %d, gpusimc %d:\n got: %s\nwant: %s", kind, wcode, ccode, got, want)
		}
	}
}

// TestRequestErrors: request mistakes are 400s with a JSON error
// document, not retries or 502s — also when the client asked for SSE,
// because the request is resolved before the stream commits its 200.
func TestRequestErrors(t *testing.T) {
	_, urls := newFleet(t, 1, serve.Options{})
	coord := newCoordinator(t, urls, Options{})
	cts := httptest.NewServer(coord.Handler())
	defer cts.Close()

	for _, tc := range []struct{ name, path, body string }{
		{"unknown kind", "/v1/sweep/latency", `{"workloads":["sc"]}`},
		{"workload field on a sweep", "/v1/sweep/bottleneck", `{"workload":"sc"}`},
		{"run batch without workloads", "/v1/sweep/run", `{}`},
		{"unknown workload", "/v1/sweep/bottleneck", `{"workloads":["nope"]}`},
		{"bad methodology", "/v1/sweep/bottleneck", `{"workloads":["sc"],"window_cycles":-5}`},
	} {
		for _, hdr := range []http.Header{nil, {"Accept": []string{"text/event-stream"}}} {
			code, body := post(t, cts.URL, tc.path, tc.body, hdr)
			if code != http.StatusBadRequest || !strings.Contains(body, `"error"`) {
				t.Errorf("%s (Accept %q): code=%d body=%s, want 400 with error document",
					tc.name, hdr.Get("Accept"), code, body)
			}
		}
	}

	code, body := post(t, cts.URL, "/v1/sweep/bottleneck", `{not json`, nil)
	if code != http.StatusBadRequest {
		t.Errorf("malformed body: code=%d body=%s", code, body)
	}
}

// TestOversizedRequestBody: every job endpoint of both daemons reads
// its body with api.ReadJobBody, so a body over 1 MiB gets the same
// 400 everywhere, even when its JSON is a valid request.
func TestOversizedRequestBody(t *testing.T) {
	_, urls := newFleet(t, 1, serve.Options{})
	cts := httptest.NewServer(newCoordinator(t, urls, Options{}).Handler())
	defer cts.Close()
	pad := strings.Repeat(" ", 1<<20)
	run := `{"workload":"sc","warmup_cycles":50,"window_cycles":150` + pad + `}`
	sweep := `{"workloads":["sc"],"warmup_cycles":50,"window_cycles":150` + pad + `}`
	for _, tc := range []struct{ daemon, url, path, body string }{
		{"gpusimd", urls[0], "/v1/run", run},
		{"gpusimd", urls[0], "/v1/sweep/bottleneck", sweep},
		{"gpusimd", urls[0], "/v1/advise", sweep},
		{"gpusimc", cts.URL, "/v1/sweep/bottleneck", sweep},
	} {
		code, body := post(t, tc.url, tc.path, tc.body, nil)
		if code != http.StatusBadRequest || !strings.Contains(body, "request body too large") {
			t.Errorf("%s %s: code=%d body=%s, want 400 naming the size cap", tc.daemon, tc.path, code, body)
		}
	}
}

// TestOversizedWorkerResponseRetried: a worker response over
// api.MaxFetchBytes is a worker fault, like a 5xx. The worker that pads
// its /v1/run envelopes with spaces (still valid JSON) past the cap has
// its failure counted, the job retries on the next-ranked worker, and
// the sweep still answers the single node's bytes. Padded to exactly
// the cap, the response is taken.
func TestOversizedWorkerResponseRetried(t *testing.T) {
	body := `{"workloads":["sc","nn"],"warmup_cycles":200,"window_cycles":500}`
	_, single := newWorker(t, serve.Options{})
	code, want := post(t, single, "/v1/sweep/run", body, nil)
	if code != http.StatusOK {
		t.Fatalf("single node: %d %s", code, want)
	}
	for _, size := range []int{api.MaxFetchBytes, api.MaxFetchBytes + 1} {
		urls, bad := faultyPrimaryFleet(t, func(h http.Handler) http.Handler {
			return rewriteRuns(h, func(b []byte) []byte {
				return append(b, strings.Repeat(" ", size-len(b))...)
			})
		})
		coord := newCoordinator(t, urls, Options{})
		cts := httptest.NewServer(coord.Handler())
		defer cts.Close()
		code, got := post(t, cts.URL, "/v1/sweep/run", body, nil)
		if code != http.StatusOK || got != want {
			t.Errorf("worker padding to %d bytes: code=%d identical=%v: %s", size, code, got == want, got)
		}
		for _, ws := range coord.Workers() {
			if failing := size > api.MaxFetchBytes && ws.URL == bad; failing != (ws.Failures > 0) {
				t.Errorf("padding to %d bytes: worker %s (padding=%v) has %d failures", size, ws.URL, ws.URL == bad, ws.Failures)
			}
		}
	}
}

// TestHealthAndWorkers covers the coordinator's observation
// endpoints, including failure accounting after a dead worker.
func TestHealthAndWorkers(t *testing.T) {
	dead := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		panic(http.ErrAbortHandler)
	}))
	defer dead.Close()
	_, live := newWorker(t, serve.Options{})
	coord := newCoordinator(t, []string{dead.URL, live}, Options{})
	cts := httptest.NewServer(coord.Handler())
	defer cts.Close()

	resp, err := http.Get(cts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(data), `"workers":2`) {
		t.Fatalf("healthz: %d %s", resp.StatusCode, data)
	}

	warmup, window := int64(200), int64(500)
	if _, err := coord.RunSweep(context.Background(), "run", api.JobRequest{
		Workloads: []string{"sc"}, Warmup: &warmup, Window: &window,
	}, nil); err != nil {
		t.Fatal(err)
	}

	var status struct {
		Workers []WorkerStatus `json:"workers"`
	}
	resp, err = http.Get(cts.URL + "/v1/workers")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&status); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	var jobs, failures int64
	for _, w := range status.Workers {
		jobs += w.Jobs
		failures += w.Failures
	}
	if jobs != 1 {
		t.Errorf("fleet served %d jobs, want 1: %+v", jobs, status.Workers)
	}
	if failures == 0 && status.Workers[1].Jobs != 1 {
		// Rendezvous may have routed straight to the live worker; only
		// when the dead one ranked first must a failure be recorded.
		t.Errorf("dead worker ranked first but no failure recorded: %+v", status.Workers)
	}
}

// sseEvent is one parsed server-sent event.
type sseEvent struct{ name, data string }

func parseSSE(t *testing.T, body string) []sseEvent {
	t.Helper()
	var events []sseEvent
	for _, block := range strings.Split(strings.TrimSpace(body), "\n\n") {
		var ev sseEvent
		for _, line := range strings.Split(block, "\n") {
			if v, ok := strings.CutPrefix(line, "event: "); ok {
				ev.name = v
			}
			if v, ok := strings.CutPrefix(line, "data: "); ok {
				ev.data = v
			}
		}
		if ev.name == "" {
			t.Fatalf("SSE block without event name: %q", block)
		}
		events = append(events, ev)
	}
	return events
}

// TestSweepSSE: with Accept: text/event-stream the sweep streams one
// "job" event per completed job and a final "done" event whose
// payload is exactly the plain-response envelope.
func TestSweepSSE(t *testing.T) {
	_, urls := newFleet(t, 2, serve.Options{})
	coord := newCoordinator(t, urls, Options{})
	cts := httptest.NewServer(coord.Handler())
	defer cts.Close()

	body := `{"workloads":["sc","kmeans"],"warmup_cycles":200,"window_cycles":500}`
	code, plain := post(t, cts.URL, "/v1/sweep/bottleneck", body, nil)
	if code != http.StatusOK {
		t.Fatalf("plain sweep: %d %s", code, plain)
	}

	code, stream := post(t, cts.URL, "/v1/sweep/bottleneck", body,
		http.Header{"Accept": []string{"text/event-stream"}})
	if code != http.StatusOK {
		t.Fatalf("SSE sweep: %d %s", code, stream)
	}
	events := parseSSE(t, stream)
	if len(events) != 3 {
		t.Fatalf("got %d events, want 2 job + 1 done: %+v", len(events), events)
	}
	for i, ev := range events[:2] {
		if ev.name != "job" {
			t.Fatalf("event %d = %q, want job", i, ev.name)
		}
		var je JobEvent
		if err := json.Unmarshal([]byte(ev.data), &je); err != nil {
			t.Fatal(err)
		}
		if je.Done != i+1 || je.Total != 2 || je.Worker == "" || je.Workload == "" {
			t.Errorf("job event %d = %+v", i, je)
		}
	}
	if last := events[2]; last.name != "done" || last.data+"\n" != plain {
		t.Errorf("done event differs from plain response:\n got: %s\nwant: %s", last.data, plain)
	}

	// An invalid request over SSE fails before the stream starts.
	code, _ = post(t, cts.URL, "/v1/sweep/latency", body,
		http.Header{"Accept": []string{"text/event-stream"}})
	if code != http.StatusBadRequest {
		t.Errorf("bad SSE request: code=%d, want 400", code)
	}
}

// TestBackoffBounded pins the retry delay schedule.
func TestBackoffBounded(t *testing.T) {
	c := &Coordinator{backoff: 700 * time.Millisecond}
	want := map[int]time.Duration{
		2: 700 * time.Millisecond,
		3: 1400 * time.Millisecond,
		4: maxBackoff,
		5: maxBackoff,
	}
	for attempt, d := range want {
		if got := c.backoffFor(attempt); got != d {
			t.Errorf("backoffFor(%d) = %v, want %v", attempt, got, d)
		}
	}
}

// TestNewValidation: fleet description mistakes fail construction.
func TestNewValidation(t *testing.T) {
	for _, tc := range []struct {
		name    string
		workers []string
	}{
		{"empty fleet", nil},
		{"relative URL", []string{"localhost:8337"}},
		{"duplicate", []string{"http://a:1", "http://a:1"}},
	} {
		if _, err := New(Options{Workers: tc.workers}); err == nil {
			t.Errorf("%s: New accepted %v", tc.name, tc.workers)
		}
	}
}
