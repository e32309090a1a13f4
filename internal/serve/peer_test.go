package serve

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/api"
)

// TestPeerFetchServesWithoutRecompute is the shared-cache contract: a
// result computed on worker A is served through worker B's peer fetch
// without B simulating anything, and the response bytes are identical
// to A's.
func TestPeerFetchServesWithoutRecompute(t *testing.T) {
	a, tsA := newTestServer(t, Options{})
	body := `{"workload":"sc","warmup_cycles":200,"window_cycles":600}`
	code, src, fresh := post(t, tsA, "/v1/run", body)
	if code != http.StatusOK || src != "miss" {
		t.Fatalf("worker A compute: code=%d cache=%s", code, src)
	}

	b, tsB := newTestServer(t, Options{Peers: []string{tsA.URL}})
	code, src, peered := post(t, tsB, "/v1/run", body)
	if code != http.StatusOK || src != "peer" {
		t.Fatalf("worker B: code=%d cache=%s, want 200 peer", code, src)
	}
	if peered != fresh {
		t.Fatalf("peer-fetched response differs from the original:\n%s\nvs\n%s", peered, fresh)
	}
	if got := a.Simulations(); got != 1 {
		t.Errorf("worker A ran %d simulations, want 1", got)
	}
	if got := b.Simulations(); got != 0 {
		t.Errorf("worker B ran %d simulations, want 0 — the peer fetch must not recompute", got)
	}

	// B's copy is now cached locally: a repeat is a plain hit, no
	// second peer round-trip needed.
	code, src, again := post(t, tsB, "/v1/run", body)
	if code != http.StatusOK || src != "hit" || again != fresh {
		t.Errorf("repeat on B: code=%d cache=%s identical=%v", code, src, again == fresh)
	}
}

// TestCacheGetEndpoint covers the peer-fetch surface itself: raw
// bytes for a held key, 404 for an unknown one, 400 for anything that
// is not a well-formed content address (the ValidKey gate in front of
// the filesystem).
func TestCacheGetEndpoint(t *testing.T) {
	s, ts := newTestServer(t, Options{})
	body := `{"workload":"sc","warmup_cycles":200,"window_cycles":600}`
	code, _, fresh := post(t, ts, "/v1/run", body)
	if code != http.StatusOK {
		t.Fatal("seed run failed")
	}
	var env struct {
		Key string `json:"key"`
	}
	if err := json.Unmarshal([]byte(fresh), &env); err != nil {
		t.Fatal(err)
	}

	resp, err := http.Get(ts.URL + "/v1/cache/" + env.Key)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK || resp.Header.Get("X-Cache") != "hit" {
		t.Fatalf("held key: code=%d cache=%s", resp.StatusCode, resp.Header.Get("X-Cache"))
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(fresh, string(raw)) {
		t.Errorf("cache endpoint bytes are not the envelope's results payload")
	}

	missing := env.Key[:len(env.Key)-8] + "00000000"
	if code := getStatus(t, ts, "/v1/cache/"+missing); code != http.StatusNotFound {
		t.Errorf("unknown key: code=%d, want 404", code)
	}
	for _, bad := range []string{
		"not-a-key",
		"run-" + strings.Repeat("Z", 64),
		"run-..%2F..%2Fetc%2Fpasswd",
	} {
		if code := getStatus(t, ts, "/v1/cache/"+bad); code != http.StatusBadRequest {
			t.Errorf("malformed key %q: code=%d, want 400", bad, code)
		}
	}
	if s.Simulations() != 1 {
		t.Errorf("cache probes must not simulate")
	}
}

// TestPeerFetchRejectsGarbage: a peer serving corrupt bytes must not
// poison the local cache — the worker validates the fetched entry and
// computes locally instead.
func TestPeerFetchRejectsGarbage(t *testing.T) {
	evil := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, `{"not":"a result`)
	}))
	defer evil.Close()

	b, tsB := newTestServer(t, Options{Peers: []string{evil.URL}})
	body := `{"workload":"sc","warmup_cycles":200,"window_cycles":600}`
	code, src, got := post(t, tsB, "/v1/run", body)
	if code != http.StatusOK || src != "miss" {
		t.Fatalf("code=%d cache=%s, want a local 200 miss", code, src)
	}
	if b.Simulations() != 1 {
		t.Errorf("worker must fall back to computing, ran %d simulations", b.Simulations())
	}

	// The locally computed bytes match a peerless worker's exactly.
	_, tsC := newTestServer(t, Options{})
	code, _, want := post(t, tsC, "/v1/run", body)
	if code != http.StatusOK || got != want {
		t.Errorf("garbage peer changed the response bytes")
	}
}

// TestPeerFetchSizeCap: a peer entry over api.MaxFetchBytes is a peer
// miss and the job simulates locally. The peer serves the true entry
// padded with spaces, which validates: padded to exactly the cap it is
// a peer hit.
func TestPeerFetchSizeCap(t *testing.T) {
	body := `{"workload":"sc","warmup_cycles":200,"window_cycles":600}`
	a, tsA := newTestServer(t, Options{})
	code, _, want := post(t, tsA, "/v1/run", body)
	if code != http.StatusOK {
		t.Fatalf("code=%d %s", code, want)
	}
	var env api.Envelope
	if err := json.Unmarshal([]byte(want), &env); err != nil {
		t.Fatal(err)
	}
	entry, ok := a.Cache().Get(env.Key)
	if !ok {
		t.Fatal("worker A did not cache its job")
	}
	for _, tc := range []struct {
		size   int
		source string
		sims   int64
	}{
		{api.MaxFetchBytes, sourcePeer, 0},
		{api.MaxFetchBytes + 1, sourceMiss, 1},
	} {
		peer := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			w.Write(entry)
			w.Write([]byte(strings.Repeat(" ", tc.size-len(entry))))
		}))
		defer peer.Close()
		b, tsB := newTestServer(t, Options{Peers: []string{peer.URL}})
		code, src, got := post(t, tsB, "/v1/run", body)
		if code != http.StatusOK || src != tc.source || got != want {
			t.Errorf("peer entry of %d bytes: code=%d X-Cache %q (want %q), same bytes %v", tc.size, code, src, tc.source, got == want)
		}
		if b.Simulations() != tc.sims {
			t.Errorf("peer entry of %d bytes: %d simulations, want %d", tc.size, b.Simulations(), tc.sims)
		}
	}
}

// TestPeerValidation: Options.Peers must be absolute URLs.
func TestPeerValidation(t *testing.T) {
	if _, err := New(Options{Peers: []string{"localhost:8337"}}); err == nil {
		t.Error("New accepted a scheme-less peer URL")
	}
}

func getStatus(t *testing.T, ts *httptest.Server, path string) int {
	t.Helper()
	resp, err := http.Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	return resp.StatusCode
}
