// Package api defines the HTTP/JSON surface shared by every daemon of
// the experiment service: the request and response document shapes,
// the one JSON error envelope, and the sweep-kind registry that gives
// the single-node server (internal/serve), the fleet coordinator
// (internal/fabric) and the `gpusim sweep` CLI a single definition of
// each sweep, plus the one request resolver and the one sweep pipeline
// they all call.
//
// The package exists so that a sweep kind is declared exactly once.
// Every kind has the paper's one shape, a baseline plus variants: a
// Kind entry names its defaults, its request check, its variant list
// (exp.VariantGrid lays out every grid from it) and its pure merge
// half. Sweep.Run is the pipeline: it derives each entry's job key,
// fans the grid out on the runner.Map pool through a Measure — local
// simulation in `gpusim sweep` and gpgpumem.RunSweep, the job cache in
// gpusimd, a worker post in the fabric coordinator — checks the result
// stride once and merges. A fleet-merged report is byte-identical to a
// local one because both are the same code path.
package api

import (
	"bytes"
	"encoding/json"
	"flag"
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
// The CLIs fill Scale, Seed, Warmup and Window from the flags
// MethodologyFlags declares.
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
	// it. The fabric coordinator ships every job's fully resolved
	// config in it, so a worker's own base never enters a fleet sweep.
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
	// Parallelism asks for sweep workers; it is capped by gpusimd's
	// MaxConcurrent or the coordinator's MaxParallelism and deliberately
	// not part of the cache key (results are bit-identical at any
	// worker count).
	Parallelism int `json:"parallelism,omitempty"`
}

// MethodologyFlags declares the methodology flags of every CLI —
// -scale, -seed, -warmup and -window — on fs, and returns the function
// that copies the ones given on the command line into a request. A
// flag left unset leaves its field unset, so ResolveMethodology
// applies the one default: the base config's scale and seed, and
// exp.DefaultRunParams, whose values the help text shows.
func MethodologyFlags(fs *flag.FlagSet) func(*JobRequest) {
	p := exp.DefaultRunParams()
	scale := fs.String("scale", "baseline", "Table I scaling set: baseline|l1|l2|dram|l1l2|l2dram|all")
	seed := fs.Uint64("seed", 0, fmt.Sprintf("simulation seed (default: the base config's, %d in the baseline)", config.GTX480Baseline().Seed))
	warmup := fs.Int64("warmup", p.WarmupCycles, "warm-up cycles before measurement")
	window := fs.Int64("window", p.WindowCycles, "measurement window in core cycles")
	return func(req *JobRequest) {
		fs.Visit(func(f *flag.Flag) {
			switch f.Name {
			case "scale":
				req.Scale = *scale
			case "seed":
				req.Seed = seed
			case "warmup":
				req.Warmup = warmup
			case "window":
				req.Window = window
			}
		})
	}
}

// ReadJobBody reads a job request's body whole, capped at
// maxRequestBytes. It is the one reader of every job endpoint's body:
// /v1/run looks the bytes up before parsing them, and every endpoint
// parses them with DecodeJobBody.
func ReadJobBody(r *http.Request) ([]byte, error) {
	body, err := io.ReadAll(http.MaxBytesReader(nil, r.Body, maxRequestBytes))
	if err != nil {
		return nil, fmt.Errorf("parse request: %w", err)
	}
	return body, nil
}

// maxRequestBytes caps a job request body.
const maxRequestBytes = 1 << 20

// MaxFetchBytes caps a result one daemon fetches from another: a
// peer's /v1/cache entry or a worker's /v1/run envelope. Encoded
// Results have a fixed set of numeric fields, so they are small: the
// largest over the 12 built-ins at 500+1500 cycles is 1,514 bytes, and
// with every counter at its widest 2,195 bytes. A worker's envelope
// adds a head of about 200 bytes. 64 KiB is 29 times the widest entry,
// so a body past it comes from a broken or hostile daemon.
const MaxFetchBytes = 64 << 10

// DecodeJobBody strictly parses a job request body: unknown fields and
// trailing data are rejected, like every other parser in this
// codebase — a concatenated second request must fail loudly, not be
// silently dropped. The workers and the fabric coordinator share it,
// so both layers accept exactly the same bodies.
func DecodeJobBody(body []byte) (JobRequest, error) {
	var req JobRequest
	dec := json.NewDecoder(bytes.NewReader(body))
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
		c, err := config.FromJSON(req.Config)
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
	// marshaled sweep report (sweep kinds). Both are canonical JSON
	// (see MarshalEnvelope).
	Results json.RawMessage `json:"results,omitempty"`
	Report  json.RawMessage `json:"report,omitempty"`
}

// MarshalEnvelope returns the bytes json.Marshal(env) returns without
// re-encoding the payload: it marshals env with Results and Report
// empty and splices the payload bytes in as they are. That is exact
// when each payload is canonical, meaning exactly the bytes
// json.Marshal(json.RawMessage(p)) emits (compact, with <, >, &,
// U+2028 and U+2029 escaped). exp.EncodeResults and json.Marshal of a
// report produce canonical bytes, and an entry loaded from disk or
// fetched from a peer is normalized by resultcache.Canonical before it
// enters a cache.
func MarshalEnvelope(env Envelope) ([]byte, error) {
	results, report := env.Results, env.Report
	env.Results, env.Report = nil, nil
	head, err := json.Marshal(env)
	if err != nil {
		return nil, err
	}
	const resultsField, reportField = `,"results":`, `,"report":`
	data := make([]byte, 0, len(head)+len(resultsField)+len(results)+len(reportField)+len(report))
	// head always ends in a field (key, kind and the cycle counts are
	// never omitted), so each payload follows a comma.
	data = append(data, head[:len(head)-1]...)
	if len(results) > 0 {
		data = append(append(data, resultsField...), results...)
	}
	if len(report) > 0 {
		data = append(append(data, reportField...), report...)
	}
	return append(data, '}'), nil
}

// WriteEnvelope writes env as a 200 response with WriteJSON's framing.
func WriteEnvelope(w http.ResponseWriter, env Envelope) {
	data, err := MarshalEnvelope(env)
	writeBody(w, http.StatusOK, data, err)
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
	writeBody(w, code, data, err)
}

// writeBody writes a marshaled body and its newline, or a 500 when
// marshaling failed.
func writeBody(w http.ResponseWriter, code int, data []byte, err error) {
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
