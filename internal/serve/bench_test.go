package serve

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// serveOnce sends one request straight to the handler, without a
// network hop, and fails b unless it answers 200 from source.
func serveOnce(b *testing.B, h http.Handler, path, body, source string) {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, strings.NewReader(body)))
	if rec.Code != http.StatusOK || rec.Header().Get("X-Cache") != source {
		b.Fatalf("code=%d cache=%s, want 200 %s: %s", rec.Code, rec.Header().Get("X-Cache"), source, rec.Body)
	}
}

// BenchmarkServeHit measures the service hop of a memory cache hit: a
// /v1/run request for a job already held in memory, through
// Server.Handler.
func BenchmarkServeHit(b *testing.B) {
	s, err := New(Options{})
	if err != nil {
		b.Fatal(err)
	}
	h := s.Handler()
	const body = `{"workload":"sc","warmup_cycles":200,"window_cycles":600}`
	serveOnce(b, h, "/v1/run", body, sourceMiss)
	b.ReportAllocs()
	for b.Loop() {
		serveOnce(b, h, "/v1/run", body, sourceHit)
	}
}

// BenchmarkServeColdRun measures a cold /v1/run: every iteration asks
// for a fresh key (a new seed) at a tiny window, so it pays resolution,
// a cache miss, admission, a simulation and the encode.
func BenchmarkServeColdRun(b *testing.B) {
	s, err := New(Options{})
	if err != nil {
		b.Fatal(err)
	}
	h := s.Handler()
	b.ReportAllocs()
	seed := 0
	for b.Loop() {
		seed++
		serveOnce(b, h, "/v1/run", fmt.Sprintf(`{"workload":"sc","seed":%d,"warmup_cycles":50,"window_cycles":150}`, seed), sourceMiss)
	}
}

// BenchmarkServeSweepHit measures the service hop of a warm sweep: a
// default-scope /v1/sweep/advise (96 jobs) at a tiny window, every job
// already held in memory, through Server.Handler — the report rebuilt
// from job hits and merged.
func BenchmarkServeSweepHit(b *testing.B) {
	s, err := New(Options{})
	if err != nil {
		b.Fatal(err)
	}
	h := s.Handler()
	const body = `{"warmup_cycles":50,"window_cycles":150}`
	serveOnce(b, h, "/v1/sweep/advise", body, sourceMiss)
	b.ReportAllocs()
	for b.Loop() {
		serveOnce(b, h, "/v1/sweep/advise", body, sourceHit)
	}
}
