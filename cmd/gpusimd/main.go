// Command gpusimd is the long-running experiment service: the
// simulator's sweeps behind HTTP/JSON, with a content-addressed
// result cache in front of the worker pool. Submit a workload (name
// or inline spec) or a named sweep; identical submissions are served
// from the cache byte-for-byte and concurrent duplicates run once.
//
// Usage:
//
//	gpusimd [-addr :8337] [-cache-dir DIR] [-cache-bytes N]
//	        [-max-concurrent N] [-queue-depth N] [-max-window N]
//	        [-config file.json] [-drain-timeout 30s]
//	        [-peers http://hostA:8337,http://hostB:8337]
//
// Endpoints (see docs/api.md for the full reference):
//
//	GET  /healthz               liveness + API/code version + queue occupancy
//	GET  /v1/workloads          built-in benchmark and scenario names
//	GET  /v1/stats              cache and queue counters
//	GET  /v1/cache/{key}        peer-fetch: cached bytes by content address
//	POST /v1/run                one measurement
//	POST /v1/sweep/{kind}       any registered sweep kind
//	                            (bottleneck, scenarios, advise, run)
//	POST /v1/advise             alias for /v1/sweep/advise
//
// -peers names the other members of a worker fleet (see cmd/gpusimc):
// before simulating a missed job, the worker asks the peers ranked
// for that job's content address whether they already hold the bytes.
//
// SIGINT/SIGTERM drain gracefully: new simulations get 503, in-flight
// ones finish (up to -drain-timeout), then the process exits 0.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	gpgpumem "repro"
	"repro/internal/api"
	"repro/internal/serve"
)

func main() {
	var (
		addr     = flag.String("addr", ":8337", "listen address (host:port; port 0 picks a free port)")
		cacheDir = flag.String("cache-dir", "", "persist the result cache in this directory (shared with gpusim -cache-dir)")
		cacheMB  = flag.Int64("cache-bytes", 0, "in-memory cache budget in bytes (0 = default)")
		maxConc  = flag.Int("max-concurrent", 0, "simultaneously running simulations, also a sweep's parallelism cap (0 = all cores)")
		queue    = flag.Int("queue-depth", 16, "simulations allowed to wait for a run slot before shedding 503s")
		maxWin   = flag.Int64("max-window", 0, "largest accepted warmup+window cycles per job (0 = default)")
		cfgPath  = flag.String("config", "", "base architecture JSON (default: GTX480 baseline)")
		drainTO  = flag.Duration("drain-timeout", 30*time.Second, "how long shutdown waits for in-flight jobs")
		peers    = flag.String("peers", "", "comma-separated base URLs of fleet peers to fetch cached results from")
	)
	flag.Parse()

	opts := serve.Options{
		CacheDir:        *cacheDir,
		CacheBytes:      *cacheMB,
		MaxConcurrent:   *maxConc,
		QueueDepth:      *queue,
		MaxWindowCycles: *maxWin,
	}
	if *peers != "" {
		for _, p := range strings.Split(*peers, ",") {
			if p = strings.TrimSpace(p); p != "" {
				opts.Peers = append(opts.Peers, p)
			}
		}
	}
	if *cfgPath != "" {
		data, err := os.ReadFile(*cfgPath)
		if err != nil {
			fatal(err)
		}
		cfg, err := gpgpumem.ConfigFromJSON(data)
		if err != nil {
			fatal(err)
		}
		opts.Config = &cfg
	}
	srv, err := serve.New(opts)
	if err != nil {
		fatal(err)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fatal(err)
	}
	// The listening line is the daemon's readiness signal: the smoke
	// tests (and humans with -addr :0) parse the bound address from it.
	fmt.Printf("gpusimd: listening on http://%s\n", ln.Addr())

	hs := api.NewHTTPServer(srv.Handler())
	errCh := make(chan error, 1)
	go func() { errCh <- hs.Serve(ln) }()

	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
	select {
	case sig := <-sigCh:
		fmt.Printf("gpusimd: %v: draining\n", sig)
	case err := <-errCh:
		fatal(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), *drainTO)
	defer cancel()
	// Drain first, with the listener still open: new jobs are refused
	// with 503 + Retry-After and cache hits keep serving while the
	// in-flight simulations finish. Only then close the listener.
	// Shutting down the HTTP server first would slam the door with
	// connection-refused instead of the documented drain semantics.
	drainErr := srv.Drain(ctx)
	if err := hs.Shutdown(ctx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		fmt.Fprintln(os.Stderr, "gpusimd: shutdown:", err)
	}
	if drainErr != nil {
		fmt.Fprintln(os.Stderr, "gpusimd: drain:", drainErr)
		os.Exit(1)
	}
	fmt.Println("gpusimd: drained, bye")
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "gpusimd:", err)
	os.Exit(1)
}
