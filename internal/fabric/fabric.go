// Package fabric is the distributed sweep coordinator: it shards a
// sweep grid into single-measurement jobs across a fleet of gpusimd
// workers and merges their results into a report byte-identical to a
// single node's — regardless of worker count, completion order, or
// which workers died along the way.
//
// Three existing contracts make that merge trivial rather than
// heroic, and the coordinator is deliberately nothing more than their
// composition:
//
//   - Purity: a measurement is a pure function of (config, spec,
//     seed, warmup, window), so a result computed on any worker is
//     THE result. The coordinator only has to collect and order, never
//     to reconcile.
//   - Content addressing: job keys (resultcache.JobKey) are
//     location-independent SHA-256 hashes, so workers can share
//     results via their /v1/cache/{key} peer-fetch endpoints, and a
//     retry that lands on a different worker after the original
//     finished is deduplicated by key instead of simulated twice.
//   - Ordered results: runner.Map returns job results indexed by
//     submission order whatever the completion order, which is the
//     same discipline that makes the in-process worker pool
//     deterministic — reused here at cluster scale.
//
// The sweeps themselves come from the internal/api sweep-kind
// registry, and so does the merge: the coordinator holds no per-kind
// logic and no merge of its own. It hands api.Sweep.Payload — the
// pipeline a single node runs — a Measure that posts one grid entry
// to a worker, which is what makes the fleet-merged report
// byte-identical.
//
// Jobs route by rendezvous hashing (resultcache.Rank) so repeated
// sweeps revisit the worker whose cache already holds each result; a
// failed attempt retries on the next-ranked worker with exponential
// backoff, bounded by a per-job attempt cap, and a failing worker is
// cooled down so later jobs stop queueing behind it. Every job ships
// its resolved config inline, so a worker's own base config never
// enters a fleet sweep. The coordinator cross-checks every response's
// content-address against its own expectation, so a worker that
// addresses results differently (a result-cache code-version skew)
// fails loudly instead of merging numbers from two different
// simulators into one report. It decodes every result at the boundary
// too: results that fail to decode are a worker fault, counted against
// that worker and retried on the next-ranked one.
package fabric

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"sync"
	"time"

	"repro/internal/api"
	"repro/internal/config"
	"repro/internal/exp"
	"repro/internal/resultcache"
	"repro/internal/sim"
)

// Options configures a Coordinator.
type Options struct {
	// Workers are the gpusimd base URLs the fleet consists of
	// (required, at least one).
	Workers []string
	// Config is the base architecture requests start from; a
	// request's inline config replaces it. Jobs carry their resolved
	// config to the workers, whose own base configs do not apply.
	// Nil is the paper's GTX480 baseline.
	Config *config.Config
	// Client issues the worker HTTP requests (nil = a client with
	// JobTimeout). Supply one in tests to fake transport failures.
	Client *http.Client
	// JobTimeout bounds one worker attempt end to end, simulation
	// included (0 = 5 minutes). Only used for the default Client.
	JobTimeout time.Duration
	// MaxAttempts caps how many workers one job may try before the
	// sweep fails (0 = 3; the cap includes the first attempt).
	MaxAttempts int
	// Backoff is the delay before a job's second attempt, doubling
	// each retry (0 = 100ms); MaxBackoff caps the doubling (0 = 2s).
	Backoff    time.Duration
	MaxBackoff time.Duration
	// Cooldown is how long a worker that just failed is deprioritized
	// in routing (0 = 3s). It is advisory: if every worker is cooling
	// down, jobs still try them rather than giving up early.
	Cooldown time.Duration
	// MaxParallelism caps jobs in flight across the fleet (0 = four
	// per worker). Requests may ask for less via "parallelism".
	MaxParallelism int
	// MaxWindowCycles rejects requests measuring longer windows,
	// mirroring the workers' own cap (0 = 10,000,000).
	MaxWindowCycles int64
}

// Coordinator shards sweeps across a worker fleet. Build with New;
// serve its HTTP API with Handler or run sweeps directly with
// RunSweep.
type Coordinator struct {
	base        config.Config
	workers     []string
	client      *http.Client
	maxAttempts int
	backoff     time.Duration
	maxBackoff  time.Duration
	cooldown    time.Duration
	maxParallel int
	maxWindow   int64

	mu       sync.Mutex
	downTill map[string]time.Time
	jobs     map[string]int64
	failures map[string]int64
}

// New builds a Coordinator and validates the fleet description.
func New(o Options) (*Coordinator, error) {
	if len(o.Workers) == 0 {
		return nil, fmt.Errorf("fabric: a coordinator needs at least one worker URL")
	}
	seen := map[string]bool{}
	for _, w := range o.Workers {
		u, err := url.Parse(w)
		if err != nil || u.Scheme == "" || u.Host == "" {
			return nil, fmt.Errorf("fabric: worker %q is not an absolute URL", w)
		}
		if seen[w] {
			return nil, fmt.Errorf("fabric: duplicate worker %q", w)
		}
		seen[w] = true
	}
	base := config.GTX480Baseline()
	if o.Config != nil {
		base = *o.Config
	}
	if err := base.Validate(); err != nil {
		return nil, err
	}
	if o.JobTimeout <= 0 {
		o.JobTimeout = 5 * time.Minute
	}
	if o.Client == nil {
		o.Client = &http.Client{Timeout: o.JobTimeout}
	}
	if o.MaxAttempts <= 0 {
		o.MaxAttempts = 3
	}
	if o.Backoff <= 0 {
		o.Backoff = 100 * time.Millisecond
	}
	if o.MaxBackoff <= 0 {
		o.MaxBackoff = 2 * time.Second
	}
	if o.Cooldown <= 0 {
		o.Cooldown = 3 * time.Second
	}
	if o.MaxParallelism <= 0 {
		o.MaxParallelism = 4 * len(o.Workers)
	}
	if o.MaxWindowCycles <= 0 {
		o.MaxWindowCycles = 10_000_000
	}
	return &Coordinator{
		base:        base,
		workers:     append([]string(nil), o.Workers...),
		client:      o.Client,
		maxAttempts: o.MaxAttempts,
		backoff:     o.Backoff,
		maxBackoff:  o.MaxBackoff,
		cooldown:    o.Cooldown,
		maxParallel: o.MaxParallelism,
		maxWindow:   o.MaxWindowCycles,
		downTill:    map[string]time.Time{},
		jobs:        map[string]int64{},
		failures:    map[string]int64{},
	}, nil
}

// JobEvent describes one completed job of a running sweep — the
// payload of the SSE "job" progress events.
type JobEvent struct {
	// Index is the job's position in the sweep grid; Total the grid
	// size; Done how many jobs have completed so far (strictly
	// increasing, but jobs finish out of index order).
	Index int `json:"index"`
	Total int `json:"total"`
	Done  int `json:"done"`
	// Workload names the job's spec.
	Workload string `json:"workload"`
	// Worker is the URL that served the job; Attempt which try
	// succeeded (1 = first); Source where the bytes came from on that
	// worker ("hit", "miss" or "peer").
	Worker  string `json:"worker"`
	Attempt int    `json:"attempt"`
	Source  string `json:"source"`
}

// WorkerStatus is one fleet member's routing state.
type WorkerStatus struct {
	// URL is the worker's base URL.
	URL string `json:"url"`
	// Jobs counts measurements this worker served; Failures counts
	// failed attempts against it.
	Jobs     int64 `json:"jobs"`
	Failures int64 `json:"failures"`
	// CoolingDown reports whether routing currently deprioritizes the
	// worker after a recent failure.
	CoolingDown bool `json:"cooling_down"`
}

// Workers returns the fleet's routing state, in configuration order.
func (c *Coordinator) Workers() []WorkerStatus {
	c.mu.Lock()
	defer c.mu.Unlock()
	now := time.Now()
	out := make([]WorkerStatus, len(c.workers))
	for i, w := range c.workers {
		out[i] = WorkerStatus{
			URL:         w,
			Jobs:        c.jobs[w],
			Failures:    c.failures[w],
			CoolingDown: now.Before(c.downTill[w]),
		}
	}
	return out
}

// RequestError marks a sweep failure caused by the request itself
// (unknown workload, bad methodology, wrong shape) — an HTTP 400, as
// opposed to a fleet failure (502/503).
type RequestError struct {
	// Err is the underlying validation failure.
	Err error
}

// Error returns the underlying message.
func (e *RequestError) Error() string { return e.Err.Error() }

// Unwrap exposes the underlying error to errors.Is/As.
func (e *RequestError) Unwrap() error { return e.Err }

func badRequest(format string, args ...any) error {
	return &RequestError{Err: fmt.Errorf(format, args...)}
}

// RunSweep shards the requested sweep — any kind registered in
// internal/api — across the fleet and returns the merged response
// envelope. The envelope — key, kind, workload names, methodology and
// report — is byte-identical under json.Marshal to what a single
// gpusimd node returns for the same request on its own
// /v1/sweep/{kind} endpoint. progress, when non-nil, is called
// serially after each job completes.
func (c *Coordinator) RunSweep(ctx context.Context, kind string, req api.JobRequest, progress func(JobEvent)) (api.Envelope, error) {
	sw, err := c.resolve(kind, req)
	if err != nil {
		return api.Envelope{}, err
	}
	return c.runSweep(ctx, sw, progress)
}

// resolve checks a sweep request against the registry and this
// coordinator's base and caps; every failure is a RequestError.
func (c *Coordinator) resolve(kind string, req api.JobRequest) (api.Sweep, error) {
	sw, err := api.ResolveSweep(kind, c.base, req, c.maxParallel, c.maxWindow)
	if err != nil {
		return api.Sweep{}, badRequest("%v", err)
	}
	return sw, nil
}

// runSweep shards a resolved sweep across the fleet: the sweep's own
// pipeline (api.Sweep.Payload) derives the job keys, fans the grid out
// and merges, and the coordinator supplies only the Measure that
// routes each entry to a worker. Every job ships its fully resolved
// config inline, so the sweep measures the architecture the
// coordinator resolved — its base or the request's inline config —
// whatever base each worker was deployed with.
func (c *Coordinator) runSweep(ctx context.Context, sw api.Sweep, progress func(JobEvent)) (api.Envelope, error) {
	var emitMu sync.Mutex
	done := 0
	data, err := sw.Payload(ctx, func(ctx context.Context, i int, key string) ([]byte, sim.Results, error) {
		g := sw.Grid[i]
		body, err := jobBody(g, sw.Params)
		if err != nil {
			return nil, sim.Results{}, err
		}
		out, err := c.executeJob(ctx, g.Spec.SpecName, key, body)
		if err != nil {
			return nil, sim.Results{}, err
		}
		if progress != nil {
			emitMu.Lock()
			done++
			progress(JobEvent{
				Index: i, Total: len(sw.Grid), Done: done,
				Workload: g.Spec.SpecName,
				Worker:   out.worker, Attempt: out.attempt, Source: out.source,
			})
			emitMu.Unlock()
		}
		return out.env.Results, out.res, nil
	})
	if err != nil {
		return api.Envelope{}, err
	}
	// The sweep's content address is computed exactly as a single
	// node computes it, so the merged envelope carries the same key a
	// single-node response would.
	key, err := sw.Key()
	if err != nil {
		return api.Envelope{}, fmt.Errorf("fabric: sweep key: %w", err)
	}
	return sw.Envelope(key, data), nil
}

// jobBody is the /v1/run request for one grid entry: its canonical
// spec and its resolved config inline. The seed, scale and
// fixed-latency transforms are already baked into the config; the
// worker's key check still guards code-version drift.
func jobBody(g exp.GridJob, p exp.RunParams) ([]byte, error) {
	canon, err := g.Spec.CanonicalJSON()
	if err != nil {
		return nil, err
	}
	cj, err := json.Marshal(g.Config)
	if err != nil {
		return nil, fmt.Errorf("fabric: marshal config for %s: %w", g.Spec.SpecName, err)
	}
	return json.Marshal(api.JobRequest{
		Spec:   canon,
		Config: cj,
		Warmup: &p.WarmupCycles,
		Window: &p.WindowCycles,
	})
}

// jobResult is one grid entry's outcome: the worker's envelope, its
// decoded results, and routing metadata for the progress event.
type jobResult struct {
	env     api.Envelope
	res     sim.Results
	worker  string
	attempt int
	source  string
}

// executeJob runs one measurement on the fleet: route to the
// rendezvous-ranked worker, verify the returned content address,
// decode the results at the boundary, and retry elsewhere on worker
// loss or on results that fail to decode (a worker fault, like a 5xx)
// with exponential backoff, up to the attempt cap.
func (c *Coordinator) executeJob(ctx context.Context, name, key string, body []byte) (jobResult, error) {
	var lastErr error
	last := ""
	for attempt := 1; attempt <= c.maxAttempts; attempt++ {
		if attempt > 1 {
			if err := c.sleep(ctx, c.backoffFor(attempt)); err != nil {
				return jobResult{}, fmt.Errorf("fabric: job %s: %w", name, err)
			}
		}
		w := c.pick(key, attempt, last)
		last = w
		env, source, retryable, err := c.post(ctx, w, body)
		if err == nil {
			if env.Key != key {
				return jobResult{}, fmt.Errorf(
					"fabric: job %s: worker %s addressed the result as %s, coordinator expected %s — the worker computes keys differently (check that its /healthz codeversion matches the coordinator's)",
					name, w, env.Key, key)
			}
			var res sim.Results
			if res, err = exp.DecodeResults(env.Results); err == nil {
				c.noteSuccess(w)
				return jobResult{env: env, res: res, worker: w, attempt: attempt, source: source}, nil
			}
			retryable = true
		}
		lastErr = fmt.Errorf("fabric: job %s on %s (attempt %d/%d): %w", name, w, attempt, c.maxAttempts, err)
		if !retryable {
			return jobResult{}, lastErr
		}
		c.noteFailure(w)
	}
	return jobResult{}, lastErr
}

// post submits one job body to one worker's /v1/run and classifies
// the outcome: transport errors and 5xx are retryable (the job is
// requeued onto the next-ranked worker), 4xx are permanent (the job
// itself is wrong and no worker will accept it).
func (c *Coordinator) post(ctx context.Context, worker string, body []byte) (env api.Envelope, source string, retryable bool, err error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, worker+"/v1/run", bytes.NewReader(body))
	if err != nil {
		return api.Envelope{}, "", false, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.client.Do(req)
	if err != nil {
		return api.Envelope{}, "", true, err
	}
	data, err := io.ReadAll(http.MaxBytesReader(nil, resp.Body, maxWorkerResponseBytes))
	resp.Body.Close()
	if err != nil {
		return api.Envelope{}, "", true, fmt.Errorf("read response: %w", err)
	}
	if resp.StatusCode != http.StatusOK {
		err := fmt.Errorf("worker returned %s: %s", resp.Status, firstLine(data))
		return api.Envelope{}, "", resp.StatusCode >= 500, err
	}
	if err := json.Unmarshal(data, &env); err != nil {
		return api.Envelope{}, "", true, fmt.Errorf("parse worker response: %w", err)
	}
	return env, resp.Header.Get("X-Cache"), false, nil
}

// maxWorkerResponseBytes bounds one worker response; encoded results
// are kilobytes.
const maxWorkerResponseBytes = 64 << 20

// firstLine trims an error body for embedding in one-line messages.
func firstLine(data []byte) string {
	if i := bytes.IndexByte(data, '\n'); i >= 0 {
		data = data[:i]
	}
	if len(data) > 200 {
		data = data[:200]
	}
	return string(data)
}

// pick selects the worker for one attempt: rendezvous order for the
// key, with cooling-down workers moved behind healthy ones (never
// removed — a fully cooling fleet still gets tried), advancing
// through the order as attempts accumulate, and never re-trying the
// immediately preceding worker while an alternative exists.
func (c *Coordinator) pick(key string, attempt int, last string) string {
	ranked := resultcache.Rank(key, c.workers)
	c.mu.Lock()
	now := time.Now()
	order := make([]string, 0, len(ranked))
	var cooling []string
	for _, w := range ranked {
		if now.Before(c.downTill[w]) {
			cooling = append(cooling, w)
		} else {
			order = append(order, w)
		}
	}
	c.mu.Unlock()
	order = append(order, cooling...)
	w := order[(attempt-1)%len(order)]
	if w == last && len(order) > 1 {
		w = order[attempt%len(order)]
	}
	return w
}

// noteSuccess clears a worker's cooldown and counts the served job.
func (c *Coordinator) noteSuccess(w string) {
	c.mu.Lock()
	delete(c.downTill, w)
	c.jobs[w]++
	c.mu.Unlock()
}

// noteFailure counts a failed attempt and cools the worker down.
func (c *Coordinator) noteFailure(w string) {
	c.mu.Lock()
	c.failures[w]++
	c.downTill[w] = time.Now().Add(c.cooldown)
	c.mu.Unlock()
}

// backoffFor returns the bounded exponential delay before the given
// attempt (attempt 2 waits Backoff, 3 waits 2×, ... capped at
// MaxBackoff).
func (c *Coordinator) backoffFor(attempt int) time.Duration {
	d := c.backoff
	for i := 2; i < attempt && d < c.maxBackoff; i++ {
		d *= 2
	}
	if d > c.maxBackoff {
		d = c.maxBackoff
	}
	return d
}

// sleep waits d or until ctx is done.
func (c *Coordinator) sleep(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// errStatus maps sweep errors to HTTP codes: request mistakes are
// 400, cancellations 503 (retryable), fleet failures 502.
func errStatus(err error) int {
	var reqErr *RequestError
	if errors.As(err, &reqErr) {
		return http.StatusBadRequest
	}
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return http.StatusServiceUnavailable
	}
	return http.StatusBadGateway
}
