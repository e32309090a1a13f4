package serve

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"

	"repro/internal/config"
)

// envelopePayload returns an envelope's key and its results payload as
// the wire carries it.
func envelopePayload(t *testing.T, body string) (string, []byte) {
	t.Helper()
	var env struct {
		Key     string          `json:"key"`
		Results json.RawMessage `json:"results"`
	}
	if err := json.Unmarshal([]byte(body), &env); err != nil {
		t.Fatal(err)
	}
	return env.Key, env.Results
}

// cacheGet fetches /v1/cache/{key}.
func cacheGet(t *testing.T, ts *httptest.Server, key string) []byte {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/cache/" + key)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("/v1/cache/%s: code=%d err=%v", key, resp.StatusCode, err)
	}
	return data
}

// padded re-indents a canonical payload: the same JSON value, no longer
// in canonical form.
func padded(t *testing.T, canon []byte) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := json.Indent(&buf, canon, " ", "\t"); err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(buf.Bytes(), canon) {
		t.Fatal("padding left the payload canonical")
	}
	return buf.Bytes()
}

// TestPaddedDiskEntryServedCanonical: a valid but whitespace-padded
// job entry on disk, for a run and for a sweep's first job, is served
// byte-identical to a fresh compute, and /v1/cache returns it in
// canonical form. The sweep's jobs are all disk hits.
func TestPaddedDiskEntryServedCanonical(t *testing.T) {
	for _, tc := range []struct {
		path, body string
		jobs       int64
	}{
		{"/v1/run", `{"workload":"nn","warmup_cycles":100,"window_cycles":300}`, 1},
		{"/v1/sweep/run", `{"workloads":["nn","sc"],"warmup_cycles":100,"window_cycles":300}`, 2},
	} {
		dir := t.TempDir()
		_, ts := newTestServer(t, Options{CacheDir: dir})
		code, _, fresh := post(t, ts, tc.path, tc.body)
		if code != http.StatusOK {
			t.Fatalf("%s: fresh compute: %d %s", tc.path, code, fresh)
		}
		// The padded entry is the run's own, or the batch's first job's.
		var env struct {
			Key    string `json:"key"`
			Report []struct {
				Key string `json:"key"`
			} `json:"report"`
		}
		if err := json.Unmarshal([]byte(fresh), &env); err != nil {
			t.Fatal(err)
		}
		key := env.Key
		if len(env.Report) > 0 {
			key = env.Report[0].Key
		}
		file := filepath.Join(dir, key+".json")
		canon, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(file, padded(t, canon), 0o644); err != nil {
			t.Fatal(err)
		}

		s2, ts2 := newTestServer(t, Options{CacheDir: dir})
		code, src, got := post(t, ts2, tc.path, tc.body)
		if code != http.StatusOK || src != sourceHit {
			t.Fatalf("%s: padded entry: code=%d cache=%s", tc.path, code, src)
		}
		if got != fresh {
			t.Fatalf("%s: padded disk entry changed the response:\n%s\nvs\n%s", tc.path, got, fresh)
		}
		if raw := cacheGet(t, ts2, key); !bytes.Equal(raw, canon) {
			t.Fatalf("%s: /v1/cache serves non-canonical bytes: %s", tc.path, raw)
		}
		if st := s2.Cache().Stats(); st.DiskHits != tc.jobs || st.BadEntries != 0 || s2.Simulations() != 0 {
			t.Fatalf("%s: padded entry not a plain disk hit: %+v, %d simulations", tc.path, st, s2.Simulations())
		}
	}
}

// TestPaddedPeerEntryServedCanonical: a peer answering with a valid but
// padded entry is adopted without a simulation, the response is
// byte-identical to a fresh compute, and /v1/cache returns the
// canonical bytes.
func TestPaddedPeerEntryServedCanonical(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	body := `{"workload":"sc","warmup_cycles":200,"window_cycles":600}`
	code, _, fresh := post(t, ts, "/v1/run", body)
	if code != http.StatusOK {
		t.Fatalf("fresh compute: %d", code)
	}
	key, canon := envelopePayload(t, fresh)
	pad := padded(t, canon)
	peer := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write(pad)
	}))
	defer peer.Close()

	s, tsB := newTestServer(t, Options{Peers: []string{peer.URL}})
	code, src, got := post(t, tsB, "/v1/run", body)
	if code != http.StatusOK || src != sourcePeer {
		t.Fatalf("code=%d cache=%s, want 200 peer", code, src)
	}
	if got != fresh || s.Simulations() != 0 {
		t.Fatalf("peer entry: identical=%v simulations=%d", got == fresh, s.Simulations())
	}
	if raw := cacheGet(t, tsB, key); !bytes.Equal(raw, canon) {
		t.Fatalf("/v1/cache serves non-canonical bytes: %s", raw)
	}
}

// tableLen counts the resolution table's occupied slots.
func (s *Server) tableLen() int {
	s.runs.mu.Lock()
	defer s.runs.mu.Unlock()
	n := 0
	for _, sl := range s.runs.slots {
		if sl.key != "" {
			n++
		}
	}
	return n
}

// inTable reports whether body's digest holds a slot.
func (s *Server) inTable(body string) bool {
	_, ok := s.runs.get(sha256.Sum256([]byte(body)))
	return ok
}

// TestRunTableRepeatedBody: a repeated body is answered from the table
// as a cache hit with the fresh compute's bytes.
func TestRunTableRepeatedBody(t *testing.T) {
	s, ts := newTestServer(t, Options{})
	body := `{"workload":"sc","warmup_cycles":200,"window_cycles":600}`
	code, src, fresh := post(t, ts, "/v1/run", body)
	if code != http.StatusOK || src != sourceMiss || !s.inTable(body) {
		t.Fatalf("first post: code=%d cache=%s in table=%v", code, src, s.inTable(body))
	}
	for i := 0; i < 3; i++ {
		code, src, again := post(t, ts, "/v1/run", body)
		if code != http.StatusOK || src != sourceHit || again != fresh {
			t.Fatalf("repeat %d: code=%d cache=%s identical=%v", i, code, src, again == fresh)
		}
	}
	if st := s.Cache().Stats(); st.Hits != 3 || st.Misses != 1 || st.Computes != 1 || s.tableLen() != 1 {
		t.Fatalf("stats %+v, table %d", st, s.tableLen())
	}
}

// TestRunTableEvictedEntryRecomputes: a body the table knows, whose
// cache entry was evicted, recomputes once and answers the same bytes;
// Misses and Computes each move by exactly one.
func TestRunTableEvictedEntryRecomputes(t *testing.T) {
	s, ts := newTestServer(t, Options{CacheBytes: 1}) // room for one entry
	a := `{"workload":"sc","warmup_cycles":200,"window_cycles":600}`
	b := `{"workload":"nn","warmup_cycles":200,"window_cycles":600}`
	_, _, fresh := post(t, ts, "/v1/run", a)
	post(t, ts, "/v1/run", b) // evicts a
	if !s.inTable(a) || !s.inTable(b) {
		t.Fatal("both bodies should hold table slots")
	}
	before := s.Cache().Stats()
	code, src, again := post(t, ts, "/v1/run", a)
	after := s.Cache().Stats()
	if code != http.StatusOK || src != sourceMiss || again != fresh {
		t.Fatalf("evicted entry: code=%d cache=%s identical=%v", code, src, again == fresh)
	}
	if after.Misses-before.Misses != 1 || after.Computes-before.Computes != 1 || after.Hits != before.Hits {
		t.Fatalf("counters moved wrong: before %+v after %+v", before, after)
	}
	if s.Simulations() != 3 {
		t.Fatalf("%d simulations, want 3", s.Simulations())
	}
}

// TestRunTableSkipsInvalidBodies: an invalid body answers the same 400
// every time and never enters the table.
func TestRunTableSkipsInvalidBodies(t *testing.T) {
	s, ts := newTestServer(t, Options{MaxWindowCycles: 5000})
	for _, body := range []string{
		`{"workload":"quake3"}`,
		`{"workload":"sc","zap":1}`,
		`{"workload":"sc","warmup_cycles":4000,"window_cycles":2000}`,
		`{"workloads":["sc","lbm"]}`,
		`{"workload":"sc"`,
		`{"spec":{"name":"x","warps":64}}`,
	} {
		code1, _, got1 := post(t, ts, "/v1/run", body)
		code2, _, got2 := post(t, ts, "/v1/run", body)
		if code1 != http.StatusBadRequest || code2 != code1 || got2 != got1 {
			t.Errorf("%s: answers %d %q then %d %q", body, code1, got1, code2, got2)
		}
		if s.inTable(body) {
			t.Errorf("%s: invalid body entered the table", body)
		}
	}
	if n := s.tableLen(); n != 0 {
		t.Fatalf("table holds %d slots after invalid bodies only", n)
	}
}

// TestRunTableBounded: 10,000 distinct 1.5 KB bodies, each resolving
// (the draining server then refuses to compute them), leave the table
// at its fixed slot count and retain none of the bodies. Concurrent
// posters of repeated bodies share the table meanwhile.
func TestRunTableBounded(t *testing.T) {
	s, err := New(Options{})
	if err != nil {
		t.Fatal(err)
	}
	s.Drain(t.Context())
	cfg, err := config.GTX480Baseline().ToJSON()
	if err != nil {
		t.Fatal(err)
	}
	body := func(seed int) string {
		return fmt.Sprintf(`{"workload":"sc","seed":%d,"warmup_cycles":100,"window_cycles":300,"config":%s}`, seed, cfg)
	}
	if n := len(body(0)); n < 1400 {
		t.Fatalf("bodies are %d bytes, want about 1.5 KB", n)
	}
	h := s.Handler()
	serve := func(b string) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/run", strings.NewReader(b)))
		if rec.Code != http.StatusServiceUnavailable {
			t.Errorf("draining server answered %d: %s", rec.Code, rec.Body)
		}
	}

	runtime.GC()
	var m0 runtime.MemStats
	runtime.ReadMemStats(&m0)
	const bodies, posters = 10_000, 4
	var wg sync.WaitGroup
	for p := 0; p < posters; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := p; i < bodies; i += posters {
				serve(body(i))
				serve(body(i % 8)) // a repeated body, often a table hit
			}
		}()
	}
	wg.Wait()
	runtime.GC()
	var m1 runtime.MemStats
	runtime.ReadMemStats(&m1)

	if n := s.tableLen(); n > runTableSlots || n < runTableSlots/2 {
		t.Fatalf("table holds %d slots, want at most %d and most of them filled", n, runTableSlots)
	}
	// The bodies weigh 15 MB, and one body per slot would be 1.5 MB;
	// the table keeps digests, keys and names only.
	if grew := int64(m1.HeapAlloc) - int64(m0.HeapAlloc); grew > 1<<20 {
		t.Fatalf("live heap grew %d bytes over %d bodies", grew, bodies)
	}
}
