// Command gpusimc is the sweep coordinator: it shards a sweep across
// a fleet of gpusimd workers and serves (or prints) the merged report,
// byte-identical to what a single worker would have produced on its
// own.
//
// Usage:
//
//	gpusimc -workers http://hostA:8337,http://hostB:8337 [flags]
//
//	# serve the coordinator HTTP API (default)
//	gpusimc -workers ... [-addr :8338]
//
//	# or run one sweep from the command line and exit
//	gpusimc -workers ... -sweep advise [-workloads cfd,lbm]
//	        [-warmup N] [-window N] [-seed N] [-scale half-bw] [-j N]
//
// Flags -config, -max-attempts, -backoff, -cooldown, -max-window and
// -job-timeout tune the coordinator (see docs/operations.md). The
// base -config must match the workers': the coordinator verifies each
// response's content address and fails loudly on drift.
//
// In serve mode the endpoints are:
//
//	GET  /healthz            liveness + API/code version + fleet size
//	GET  /v1/workers         per-worker routing state
//	POST /v1/sweep/{kind}    bottleneck | scenarios | advise | mitigation | run
//
// POST bodies are the same JobRequest documents gpusimd accepts;
// "Accept: text/event-stream" streams per-job progress (see
// docs/api.md).
package main

import (
	"context"
	"encoding/json"
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
	"repro/internal/fabric"
	"repro/internal/serve"
)

func main() {
	var (
		workers  = flag.String("workers", "", "comma-separated gpusimd base URLs (required)")
		addr     = flag.String("addr", ":8338", "listen address for serve mode (host:port; port 0 picks a free port)")
		sweep    = flag.String("sweep", "", "run one sweep and exit: "+strings.Join(gpgpumem.SweepKindNames(), ", "))
		names    = flag.String("workloads", "", "comma-separated workload names for -sweep (default: the sweep's standard set)")
		warmup   = flag.Int64("warmup", -1, "warm-up cycles before measurement (-1 = default methodology)")
		window   = flag.Int64("window", -1, "measured window cycles (-1 = default methodology)")
		seed     = flag.Uint64("seed", 0, "override the base config's RNG seed (0 = keep)")
		scale    = flag.String("scale", "", "apply a Table I scaling set by name")
		jobs     = flag.Int("j", 0, "jobs in flight across the fleet (0 = four per worker)")
		cfgPath  = flag.String("config", "", "base architecture JSON, must match the workers' (default: GTX480 baseline)")
		attempts = flag.Int("max-attempts", 0, "workers tried per job before the sweep fails (0 = 3)")
		backoff  = flag.Duration("backoff", 0, "delay before a job's second attempt, doubling per retry (0 = 100ms)")
		cooldown = flag.Duration("cooldown", 0, "how long a failed worker is deprioritized (0 = 3s)")
		maxWin   = flag.Int64("max-window", 0, "largest accepted warmup+window cycles per job (0 = default)")
		jobTO    = flag.Duration("job-timeout", 0, "per-attempt timeout including simulation time (0 = 5m)")
	)
	flag.Parse()

	if *workers == "" {
		fatal(fmt.Errorf("-workers is required (comma-separated gpusimd URLs)"))
	}
	opts := fabric.Options{
		MaxAttempts:     *attempts,
		Backoff:         *backoff,
		Cooldown:        *cooldown,
		MaxParallelism:  *jobs,
		MaxWindowCycles: *maxWin,
		JobTimeout:      *jobTO,
	}
	for _, w := range strings.Split(*workers, ",") {
		if w = strings.TrimSpace(w); w != "" {
			opts.Workers = append(opts.Workers, w)
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
	coord, err := fabric.New(opts)
	if err != nil {
		fatal(err)
	}

	if *sweep != "" {
		runOnce(coord, *sweep, *names, *warmup, *window, *seed, *scale, *jobs)
		return
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fatal(err)
	}
	// Same readiness contract as gpusimd: tests and scripts parse the
	// bound address from this line.
	fmt.Printf("gpusimc: listening on http://%s\n", ln.Addr())

	hs := api.NewHTTPServer(coord.Handler())
	errCh := make(chan error, 1)
	go func() { errCh <- hs.Serve(ln) }()

	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
	select {
	case sig := <-sigCh:
		fmt.Printf("gpusimc: %v: shutting down\n", sig)
	case err := <-errCh:
		fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := hs.Shutdown(ctx); err != nil {
		fmt.Fprintln(os.Stderr, "gpusimc: shutdown:", err)
	}
	fmt.Println("gpusimc: bye")
}

// runOnce runs one sweep in CLI mode, streaming per-job progress to
// stderr and the merged envelope to stdout.
func runOnce(coord *fabric.Coordinator, kind, names string, warmup, window int64, seed uint64, scale string, jobs int) {
	req := serve.JobRequest{Scale: scale, Parallelism: jobs}
	if names != "" {
		for _, n := range strings.Split(names, ",") {
			if n = strings.TrimSpace(n); n != "" {
				req.Workloads = append(req.Workloads, n)
			}
		}
	}
	if warmup >= 0 {
		req.Warmup = &warmup
	}
	if window >= 0 {
		req.Window = &window
	}
	if seed != 0 {
		req.Seed = &seed
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	env, err := coord.RunSweep(ctx, kind, req, func(ev fabric.JobEvent) {
		fmt.Fprintf(os.Stderr, "gpusimc: [%d/%d] %s on %s (attempt %d, %s)\n",
			ev.Done, ev.Total, ev.Workload, ev.Worker, ev.Attempt, ev.Source)
	})
	if err != nil {
		fatal(err)
	}
	data, err := json.Marshal(env)
	if err != nil {
		fatal(err)
	}
	os.Stdout.Write(append(data, '\n'))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "gpusimc:", err)
	os.Exit(1)
}
