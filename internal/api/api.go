// Package api defines the HTTP/JSON surface shared by every daemon of
// the experiment service: the request and response document shapes,
// the one JSON error envelope, and the sweep-kind registry that gives
// the single-node server (internal/serve), the fleet coordinator
// (internal/fabric) and the `gpusim sweep` CLI a single definition of
// each sweep, plus the one request resolver and local compute they
// all call.
//
// The package exists so that a sweep kind is declared exactly once.
// Before it, adding a sweep meant a new handler in serve, a new case
// in the fabric coordinator's switch, and a new CLI — three copies of
// the same grid/merge logic that had to stay byte-compatible by hand.
// Now a Kind entry carries the whole definition (defaults, grid
// expansion, pure merge half) and every surface iterates the registry.
package api

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"time"

	"repro/internal/config"
	"repro/internal/exp"
)

// JobRequest is the shared request shape of every job-submitting
// endpoint — /v1/run, the /v1/sweep/{kind} family, and the
// coordinator's fabric endpoints, which accept exactly the same body.
// Field semantics match the gpusim flags of the same names.
type JobRequest struct {
	// Workload is a built-in benchmark or scenario name; Spec is an
	// inline JSON workload spec (exactly one of the two for /v1/run).
	Workload string          `json:"workload,omitempty"`
	Spec     json.RawMessage `json:"spec,omitempty"`
	// Workloads scopes the sweep endpoints (default: the sweep's
	// standard set).
	Workloads []string `json:"workloads,omitempty"`

	// Config, when present, is a complete inline architecture (the
	// config.ToJSON document) that replaces the server's base config
	// for this job; Scale, Seed and FixedLatency then apply on top of
	// it. The fabric coordinator uses it to ship per-job perturbed
	// configs to workers whose own base differs.
	Config json.RawMessage `json:"config,omitempty"`

	// Seed overrides the base config's RNG seed; Scale applies a
	// Table I scaling set; FixedLatency (>= 0) swaps the hierarchy
	// for a fixed-latency backend with that many cycles.
	Seed         *uint64 `json:"seed,omitempty"`
	Scale        string  `json:"scale,omitempty"`
	FixedLatency *int64  `json:"fixed_latency,omitempty"`
	// Warmup and Window override the default measurement methodology.
	Warmup *int64 `json:"warmup_cycles,omitempty"`
	Window *int64 `json:"window_cycles,omitempty"`
	// Parallelism asks for sweep workers; it is capped by the server's
	// MaxParallelism and deliberately not part of the cache key
	// (results are bit-identical at any worker count).
	Parallelism int `json:"parallelism,omitempty"`
}

// DecodeJobRequest strictly parses the JSON request body of a job
// endpoint: unknown fields and trailing data are rejected, like every
// other parser in this codebase — a concatenated second request must
// fail loudly, not be silently dropped. Shared by the workers and the
// fabric coordinator so both layers accept exactly the same bodies.
func DecodeJobRequest(r *http.Request) (JobRequest, error) {
	var req JobRequest
	dec := json.NewDecoder(http.MaxBytesReader(nil, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		return JobRequest{}, fmt.Errorf("parse request: %w", err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return JobRequest{}, fmt.Errorf("parse request: trailing data after the JSON body")
	}
	return req, nil
}

// ResolveMethodology resolves a request's config transforms and run
// parameters against a base config and the serving layer's caps. It
// is the one definition of "what simulation does this request
// describe": the single-node server and the fabric coordinator both
// call it, which is what makes their cache keys — and therefore their
// bytes — agree. An inline req.Config replaces base entirely before
// the scale/seed/fixed-latency transforms apply.
func ResolveMethodology(base config.Config, req JobRequest, maxParallel int, maxWindow int64) (config.Config, exp.RunParams, error) {
	cfg := base
	if len(req.Config) > 0 {
		c, err := decodeConfig(req.Config)
		if err != nil {
			return config.Config{}, exp.RunParams{}, err
		}
		cfg = c
	}
	if req.Scale != "" {
		set, err := config.ParseScalingSet(req.Scale)
		if err != nil {
			return config.Config{}, exp.RunParams{}, err
		}
		cfg = set.Apply(cfg)
	}
	if req.Seed != nil {
		cfg.Seed = *req.Seed
	}
	if req.FixedLatency != nil && *req.FixedLatency >= 0 {
		cfg.FixedLatency = config.FixedLatencyConfig{Enabled: true, Cycles: *req.FixedLatency}
	}
	p := exp.DefaultRunParams()
	if req.Warmup != nil {
		p.WarmupCycles = *req.Warmup
	}
	if req.Window != nil {
		p.WindowCycles = *req.Window
	}
	if p.WarmupCycles < 0 || p.WindowCycles <= 0 {
		return config.Config{}, exp.RunParams{}, fmt.Errorf("warmup must be >= 0 and window > 0")
	}
	// Compare without forming the sum: warmup+window can wrap past
	// the cap, while maxWindow-warmup cannot once both are >= 0.
	if p.WindowCycles > maxWindow-p.WarmupCycles {
		return config.Config{}, exp.RunParams{}, fmt.Errorf("warmup %d + window %d exceeds the server cap %d", p.WarmupCycles, p.WindowCycles, maxWindow)
	}
	p.Parallelism = req.Parallelism
	if p.Parallelism <= 0 || p.Parallelism > maxParallel {
		p.Parallelism = maxParallel
	}
	return cfg, p, nil
}

// decodeConfig strictly parses an inline request config: unknown
// fields are rejected (a misspelled knob must not silently run the
// baseline) and the result is validated.
func decodeConfig(raw json.RawMessage) (config.Config, error) {
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	var c config.Config
	if err := dec.Decode(&c); err != nil {
		return config.Config{}, fmt.Errorf("parse config: %w", err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return config.Config{}, fmt.Errorf("parse config: trailing data after the JSON document")
	}
	if err := c.Validate(); err != nil {
		return config.Config{}, err
	}
	return c, nil
}

// Envelope is the deterministic response body of every job endpoint:
// cached payload bytes wrapped in the (equally deterministic) job
// description, so a hit's body is byte-identical to the original
// miss's. The fabric coordinator emits the same shape, which is what
// lets a fleet-merged sweep response be compared byte-for-byte
// against a single node's.
type Envelope struct {
	// Key is the content address the payload is cached under.
	Key string `json:"key"`
	// Kind names the payload: "measure", "sweep-<kind>" or the run
	// batch's "run-batch".
	Kind string `json:"kind"`
	// Workload names a single measurement's subject; Workloads a
	// sweep's scope.
	Workload  string   `json:"workload,omitempty"`
	Workloads []string `json:"workloads,omitempty"`
	// WarmupCycles and WindowCycles echo the resolved methodology.
	WarmupCycles int64 `json:"warmup_cycles"`
	WindowCycles int64 `json:"window_cycles"`
	// Results holds exp.EncodeResults bytes (kind "measure"); Report a
	// marshaled sweep report (sweep kinds).
	Results json.RawMessage `json:"results,omitempty"`
	Report  json.RawMessage `json:"report,omitempty"`
}

// Version is the API generation every daemon reports from /healthz;
// clients and fleet tooling key compatibility checks off it together
// with the result-cache code version.
const Version = "v1"

// Error writes the API's one JSON error envelope: {"error": "..."}
// with a trailing newline, plus Retry-After: 1 on 503 so shed load is
// explicitly retryable. Every error response of every daemon goes
// through this helper — the schema is documented once in docs/api.md
// and cannot drift between the workers and the coordinator.
func Error(w http.ResponseWriter, code int, err error) {
	if code == http.StatusServiceUnavailable {
		w.Header().Set("Retry-After", "1")
	}
	WriteJSON(w, code, map[string]string{"error": err.Error()})
}

// WriteJSON writes v as a JSON response body with a trailing newline —
// one framing for every daemon, which is part of what keeps a
// coordinator sweep response byte-identical to a single node's.
func WriteJSON(w http.ResponseWriter, code int, v any) {
	data, err := json.Marshal(v)
	if err != nil {
		w.WriteHeader(http.StatusInternalServerError)
		fmt.Fprintf(w, `{"error":%q}`, err.Error())
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	w.Write(data)
	w.Write([]byte("\n"))
}

// NewHTTPServer returns the http.Server both daemons listen with: a
// slow or silent client is cut off by the header and idle timeouts. It
// sets no ReadTimeout or WriteTimeout, which would cut off a long
// sweep's server-sent event stream.
func NewHTTPServer(h http.Handler) *http.Server {
	return &http.Server{
		Handler:           h,
		ReadHeaderTimeout: 10 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
}
