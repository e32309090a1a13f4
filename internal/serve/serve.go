// Package serve exposes the experiment engine as a long-running
// HTTP/JSON service — profiling as a service instead of a one-shot
// CLI. Clients submit a workload (built-in name or inline JSON spec)
// or a registered sweep kind, and receive the serialized measurement.
//
// Three properties make the service safe to put in front of heavy
// traffic:
//
//   - Content-addressed caching: results are pure functions of
//     (config, spec, seed, warmup, window), so every completed job is
//     stored in an internal/resultcache under a canonical hash of its
//     description. A cache hit is byte-identical to a fresh run — the
//     stored bytes ARE the response payload — and concurrent identical
//     submissions collapse onto one simulation (singleflight).
//   - Bounded admission: at most MaxConcurrent jobs simulate at once,
//     at most QueueDepth more wait; beyond that the service sheds load
//     with 503 instead of queueing unboundedly. Per-request
//     parallelism is capped at MaxParallelism workers.
//   - Graceful drain: Drain stops admitting new jobs (503 + Retry-
//     After) and waits for in-flight simulations to finish, so a
//     restart never truncates a measurement.
//
// Endpoints:
//
//	GET  /healthz            liveness + API/code version + queue occupancy
//	GET  /v1/workloads       built-in benchmark and scenario names
//	GET  /v1/stats           cache, queue and fleet counters
//	GET  /v1/cache/{key}     peer fetch: stored bytes for a key, 404 on miss
//	POST /v1/run             one measurement (name or inline spec)
//	POST /v1/sweep/{kind}    any registered sweep kind (api.Kinds)
//	POST /v1/advise          alias for /v1/sweep/advise
//
// The sweep endpoints are not per-kind handlers: one generic handler
// walks the internal/api sweep-kind registry, so a kind registered
// there (bottleneck, scenarios, advise, run, ...) is served here, by
// the fabric coordinator, and by `gpusim sweep` without further wiring.
//
// Responses carry an X-Cache: hit|miss|peer header; the JSON body of
// a hit is byte-identical to the body the original miss returned.
//
// A fourth property turns servers into a fleet: because cache keys
// are location-independent (SHA-256 of the job description), a result
// computed anywhere is valid everywhere. Options.Peers names sibling
// servers; before simulating a missed job, a server asks the peers
// most likely to hold the key (resultcache.Rank order) via their
// /v1/cache/{key} endpoints and adopts — after validation — whatever
// one of them already computed. /v1/cache itself never computes and
// never forwards, so peer fetches are single-hop and cannot cascade.
// The internal/fabric coordinator builds on exactly this contract.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"runtime"
	"strings"
	"sync"
	"time"

	"repro/internal/api"
	"repro/internal/config"
	"repro/internal/exp"
	"repro/internal/resultcache"
	"repro/internal/workload"
)

// Options configures a Server.
type Options struct {
	// Config is the base architecture requests start from (scale,
	// seed and fixed-latency knobs are applied per request). The zero
	// value means the paper's GTX480 baseline.
	Config *config.Config
	// CacheDir persists the result cache; empty keeps it in memory.
	CacheDir string
	// CacheBytes is the in-memory cache budget (0 = resultcache
	// default).
	CacheBytes int64
	// MaxConcurrent bounds simultaneously running jobs (0 = GOMAXPROCS).
	MaxConcurrent int
	// QueueDepth bounds jobs waiting for a run slot (0 = 16;
	// negative = no waiting, shed immediately).
	QueueDepth int
	// MaxParallelism caps the per-request worker count (0 = GOMAXPROCS).
	MaxParallelism int
	// MaxWindowCycles rejects requests measuring longer windows
	// (warmup + window), protecting the service from unbounded jobs
	// (0 = 10,000,000).
	MaxWindowCycles int64
	// Peers lists sibling servers (base URLs, e.g.
	// "http://10.0.0.2:8337") whose caches this server may read via
	// their /v1/cache/{key} endpoints before simulating a missed job.
	// Order does not matter: peers are consulted in resultcache.Rank
	// order for the key, so the likeliest holder is asked first.
	Peers []string
	// PeerTimeout bounds each single peer-fetch attempt (0 = 2s). A
	// slow or dead peer must cost less than the simulation it might
	// have saved.
	PeerTimeout time.Duration
}

// JobRequest is the request document shared by every job endpoint; it
// is defined in internal/api (the shared HTTP surface) and aliased
// here for callers of the serving layer.
type JobRequest = api.JobRequest

// Envelope is the deterministic response body of every job endpoint,
// defined in internal/api and aliased here for callers of the serving
// layer.
type Envelope = api.Envelope

// Server is the experiment service. Build with New, mount Handler,
// stop with Drain.
type Server struct {
	base        config.Config
	cache       *resultcache.Cache
	mux         *http.ServeMux
	sem         chan struct{}
	maxParallel int
	maxWindow   int64
	queueDepth  int
	peers       []string
	peerClient  *http.Client

	mu          sync.Mutex
	waiting     int
	draining    bool
	simulations int64
	peerHits    int64
	peerMisses  int64
	inflight    sync.WaitGroup
}

// Shed-load sentinels, mapped to 503.
var (
	errDraining  = errors.New("serve: draining, not accepting new jobs")
	errQueueFull = errors.New("serve: job queue full")
)

// New builds a Server.
func New(o Options) (*Server, error) {
	base := config.GTX480Baseline()
	if o.Config != nil {
		base = *o.Config
	}
	if err := base.Validate(); err != nil {
		return nil, err
	}
	cache, err := resultcache.New(resultcache.Options{
		MaxBytes: o.CacheBytes,
		Dir:      o.CacheDir,
		Validate: validateEntry,
	})
	if err != nil {
		return nil, err
	}
	if o.MaxConcurrent <= 0 {
		o.MaxConcurrent = runtime.GOMAXPROCS(0)
	}
	if o.QueueDepth == 0 {
		o.QueueDepth = 16
	}
	if o.QueueDepth < 0 {
		o.QueueDepth = 0
	}
	if o.MaxParallelism <= 0 {
		o.MaxParallelism = runtime.GOMAXPROCS(0)
	}
	if o.MaxWindowCycles <= 0 {
		o.MaxWindowCycles = 10_000_000
	}
	if o.PeerTimeout <= 0 {
		o.PeerTimeout = 2 * time.Second
	}
	for _, p := range o.Peers {
		u, err := url.Parse(p)
		if err != nil || u.Scheme == "" || u.Host == "" {
			return nil, fmt.Errorf("serve: peer %q is not an absolute URL", p)
		}
	}
	s := &Server{
		base:        base,
		cache:       cache,
		mux:         http.NewServeMux(),
		sem:         make(chan struct{}, o.MaxConcurrent),
		maxParallel: o.MaxParallelism,
		maxWindow:   o.MaxWindowCycles,
		queueDepth:  o.QueueDepth,
		peers:       append([]string(nil), o.Peers...),
		peerClient:  &http.Client{Timeout: o.PeerTimeout},
	}
	s.mux.HandleFunc("GET /healthz", s.handleHealth)
	s.mux.HandleFunc("GET /v1/workloads", s.handleWorkloads)
	s.mux.HandleFunc("GET /v1/stats", s.handleStats)
	s.mux.HandleFunc("GET /v1/cache/{key}", s.handleCacheGet)
	s.mux.HandleFunc("POST /v1/run", s.handleRun)
	s.mux.HandleFunc("POST /v1/sweep/{kind}", s.handleSweep)
	s.mux.HandleFunc("POST /v1/advise", s.handleAdvise)
	return s, nil
}

// Handler returns the service's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// Cache exposes the result cache (tests and the stats endpoint).
func (s *Server) Cache() *resultcache.Cache { return s.cache }

// Drain stops admitting new jobs and waits for in-flight simulations
// to finish, or for ctx to expire.
func (s *Server) Drain(ctx context.Context) error {
	s.mu.Lock()
	s.draining = true
	s.mu.Unlock()
	done := make(chan struct{})
	go func() {
		s.inflight.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("serve: drain: %w", ctx.Err())
	}
}

// begin registers an about-to-run job unless the server is draining.
// Every begin pairs with exactly one s.inflight.Done().
func (s *Server) begin() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return false
	}
	s.inflight.Add(1)
	return true
}

// acquire takes a run slot, waiting in the bounded queue. The caller
// must already hold an inflight registration (begin).
func (s *Server) acquire(ctx context.Context) error {
	select {
	case s.sem <- struct{}{}:
		return nil // a slot was free, no queueing
	default:
	}
	s.mu.Lock()
	if s.waiting >= s.queueDepth {
		s.mu.Unlock()
		return errQueueFull
	}
	s.waiting++
	s.mu.Unlock()
	defer func() {
		s.mu.Lock()
		s.waiting--
		s.mu.Unlock()
	}()
	select {
	case s.sem <- struct{}{}:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("serve: canceled while queued: %w", ctx.Err())
	}
}

func (s *Server) release() { <-s.sem }

// runJob is the one definition of "execute a simulation job on this
// server": admission control around compute, returning the bytes to
// cache.
//
// The context is detached from the initiating request: the job may be
// a singleflight leader with other callers piggybacked on it, so the
// first client disconnecting must not fail everyone else (or discard
// a simulation whose result every later request would reuse). Load is
// still bounded — the queue depth caps waiters and every simulation
// window is finite.
func (s *Server) runJob(ctx context.Context, compute func() ([]byte, error)) ([]byte, error) {
	if !s.begin() {
		return nil, errDraining
	}
	defer s.inflight.Done()
	if err := s.acquire(context.WithoutCancel(ctx)); err != nil {
		return nil, err
	}
	defer s.release()
	s.mu.Lock()
	s.simulations++
	s.mu.Unlock()
	return compute()
}

// Simulations counts the jobs this server actually computed itself —
// cache hits and peer fetches excluded. It is the number the fleet
// tests assert on: "a result computed on worker A is served by worker
// B without recompute" means B's count stays at zero.
func (s *Server) Simulations() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.simulations
}

// validateEntry vets result-cache entries loaded from disk before
// they are served: run entries must decode as a valid Results
// snapshot, sweep reports must at least be intact JSON. A truncated
// or tampered file is recomputed, never trusted.
func validateEntry(key string, val []byte) error {
	if strings.HasPrefix(key, resultcache.RunKeyPrefix) {
		_, err := exp.DecodeResults(val)
		return err
	}
	if !json.Valid(val) {
		return fmt.Errorf("serve: cache entry %s is not valid JSON", key)
	}
	return nil
}

// handleRun measures one workload, serving cached bytes when the job
// has run before.
func (s *Server) handleRun(w http.ResponseWriter, r *http.Request) {
	req, err := api.DecodeJobRequest(r)
	if err != nil {
		api.Error(w, http.StatusBadRequest, err)
		return
	}
	if len(req.Workloads) > 0 {
		// The list form belongs to the sweep endpoints; dropping it
		// silently would run something other than what was asked for.
		api.Error(w, http.StatusBadRequest,
			fmt.Errorf("/v1/run takes one workload (or spec); a workloads list goes to /v1/sweep/{%s}",
				strings.Join(api.KindNames(), "|")))
		return
	}
	var spec workload.Spec
	switch {
	case req.Workload != "" && len(req.Spec) > 0:
		api.Error(w, http.StatusBadRequest, fmt.Errorf("workload and spec are mutually exclusive"))
		return
	case req.Workload != "":
		sp, err := workload.SpecByName(req.Workload)
		if err != nil {
			api.Error(w, http.StatusBadRequest, err)
			return
		}
		spec = sp
	case len(req.Spec) > 0:
		sp, err := workload.ParseSpec(req.Spec)
		if err != nil {
			api.Error(w, http.StatusBadRequest, err)
			return
		}
		spec = sp
	default:
		api.Error(w, http.StatusBadRequest, fmt.Errorf("request needs a workload name or an inline spec"))
		return
	}
	cfg, p, err := api.ResolveMethodology(s.base, req, s.maxParallel, s.maxWindow)
	if err != nil {
		api.Error(w, http.StatusBadRequest, err)
		return
	}
	if spec.Warps > cfg.Core.MaxWarpsPerSM {
		api.Error(w, http.StatusBadRequest,
			fmt.Errorf("workload %s wants %d warps/SM, config allows %d", spec.SpecName, spec.Warps, cfg.Core.MaxWarpsPerSM))
		return
	}
	key, err := resultcache.JobKey(cfg, spec, p.WarmupCycles, p.WindowCycles)
	if err != nil {
		api.Error(w, http.StatusBadRequest, err)
		return
	}
	source := sourceMiss
	val, hit, err := s.cache.GetOrCompute(key, func() ([]byte, error) {
		if val, ok := s.peerFetch(r.Context(), key); ok {
			source = sourcePeer
			return val, nil
		}
		return s.runJob(r.Context(), func() ([]byte, error) {
			res, err := exp.Measure(cfg, spec, p)
			if err != nil {
				return nil, err
			}
			return exp.EncodeResults(res)
		})
	})
	if err != nil {
		api.Error(w, errStatus(err), err)
		return
	}
	if hit {
		source = sourceHit
	}
	writeEnvelope(w, source, Envelope{
		Key: key, Kind: "measure", Workload: spec.SpecName,
		WarmupCycles: p.WarmupCycles, WindowCycles: p.WindowCycles,
		Results: val,
	})
}

// handleSweep serves POST /v1/sweep/{kind} for every registered sweep
// kind — there is deliberately no per-kind handler or switch here;
// the registry entry is the whole definition.
func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request) {
	s.sweep(w, r, r.PathValue("kind"))
}

// handleAdvise is the documented alias POST /v1/advise for
// /v1/sweep/advise — the advisor is the endpoint operators reach for
// by name.
func (s *Server) handleAdvise(w http.ResponseWriter, r *http.Request) {
	s.sweep(w, r, "advise")
}

// sweep is the one sweep skeleton: resolve the request against the
// registry, content-address the sweep, compute it under admission
// control, and serve the stored report bytes.
func (s *Server) sweep(w http.ResponseWriter, r *http.Request, kindName string) {
	req, err := api.DecodeJobRequest(r)
	if err != nil {
		api.Error(w, http.StatusBadRequest, err)
		return
	}
	sw, err := api.ResolveSweep(kindName, s.base, req, s.maxParallel, s.maxWindow)
	if err != nil {
		api.Error(w, http.StatusBadRequest, err)
		return
	}
	key, err := sw.Key()
	if err != nil {
		api.Error(w, http.StatusBadRequest, err)
		return
	}
	source := sourceMiss
	val, hit, err := s.cache.GetOrCompute(key, func() ([]byte, error) {
		if val, ok := s.peerFetch(r.Context(), key); ok {
			source = sourcePeer
			return val, nil
		}
		return s.runJob(r.Context(), func() ([]byte, error) {
			rep, err := sw.Compute()
			if err != nil {
				return nil, err
			}
			return json.Marshal(rep)
		})
	})
	if err != nil {
		api.Error(w, errStatus(err), err)
		return
	}
	if hit {
		source = sourceHit
	}
	writeEnvelope(w, source, sw.Envelope(key, val))
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	status := "ok"
	if s.draining {
		status = "draining"
	}
	waiting := s.waiting
	s.mu.Unlock()
	api.WriteJSON(w, http.StatusOK, map[string]any{
		"status":      status,
		"api":         api.Version,
		"codeversion": resultcache.CodeVersion,
		"active":      len(s.sem),
		"waiting":     waiting,
	})
}

func (s *Server) handleWorkloads(w http.ResponseWriter, r *http.Request) {
	suite := workload.Suite()
	benches := make([]string, len(suite))
	for i, wl := range suite {
		benches[i] = wl.Name()
	}
	ss := workload.Scenarios()
	scenarios := make([]string, len(ss))
	for i, sp := range ss {
		scenarios[i] = sp.SpecName
	}
	api.WriteJSON(w, http.StatusOK, map[string]any{
		"benchmarks": benches,
		"scenarios":  scenarios,
	})
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	waiting := s.waiting
	simulations := s.simulations
	peerHits := s.peerHits
	peerMisses := s.peerMisses
	s.mu.Unlock()
	api.WriteJSON(w, http.StatusOK, map[string]any{
		"cache": s.cache.Stats(),
		"queue": map[string]any{
			"active":      len(s.sem),
			"waiting":     waiting,
			"max_active":  cap(s.sem),
			"queue_depth": s.queueDepth,
		},
		"fleet": map[string]any{
			"peers":       len(s.peers),
			"peer_hits":   peerHits,
			"peer_misses": peerMisses,
			"simulations": simulations,
		},
	})
}

// handleCacheGet is the peer-fetch endpoint: the raw stored bytes for
// a key this server already holds (memory or validated disk), 404
// otherwise. It never computes and never asks further peers — fetches
// are single-hop by construction, so a fleet of mutual peers cannot
// amplify one request into a fan-out storm.
func (s *Server) handleCacheGet(w http.ResponseWriter, r *http.Request) {
	key := r.PathValue("key")
	if !resultcache.ValidKey(key) {
		api.Error(w, http.StatusBadRequest, fmt.Errorf("malformed cache key"))
		return
	}
	val, ok := s.cache.Get(key)
	if !ok {
		api.Error(w, http.StatusNotFound, fmt.Errorf("key not cached here"))
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("X-Cache", sourceHit)
	w.Write(val)
}

// peerFetch asks this server's peers — likeliest holder first, in
// resultcache.Rank order — for an already-computed result before
// falling back to simulation. Fetched bytes pass the same validation
// as disk entries; anything else (error, timeout, junk) is treated as
// a miss on that peer. The winning value is adopted into the local
// cache by the enclosing GetOrCompute.
func (s *Server) peerFetch(ctx context.Context, key string) ([]byte, bool) {
	if len(s.peers) == 0 {
		return nil, false
	}
	for _, peer := range resultcache.Rank(key, s.peers) {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, peer+"/v1/cache/"+key, nil)
		if err != nil {
			continue
		}
		resp, err := s.peerClient.Do(req)
		if err != nil {
			continue
		}
		val, err := io.ReadAll(http.MaxBytesReader(nil, resp.Body, maxPeerEntryBytes))
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			continue
		}
		if err := validateEntry(key, val); err != nil {
			continue
		}
		s.mu.Lock()
		s.peerHits++
		s.mu.Unlock()
		return val, true
	}
	s.mu.Lock()
	s.peerMisses++
	s.mu.Unlock()
	return nil, false
}

// maxPeerEntryBytes bounds a peer-fetched payload; real entries are
// kilobytes, so anything near this is a broken or hostile peer.
const maxPeerEntryBytes = 16 << 20

// X-Cache header values: where the response payload came from.
const (
	sourceHit  = "hit"
	sourceMiss = "miss"
	sourcePeer = "peer"
)

func writeEnvelope(w http.ResponseWriter, source string, env Envelope) {
	w.Header().Set("X-Cache", source)
	api.WriteJSON(w, http.StatusOK, env)
}

// errStatus maps job errors to HTTP codes: shed-load conditions are
// 503 (retryable), everything else is a 500.
func errStatus(err error) int {
	if errors.Is(err, errDraining) || errors.Is(err, errQueueFull) {
		return http.StatusServiceUnavailable
	}
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return http.StatusServiceUnavailable
	}
	return http.StatusInternalServerError
}
