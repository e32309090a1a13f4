// Command gpusim runs one or more simulations — workloads on a
// configuration — and prints the full measurement report of each.
// With several comma-separated workloads the simulations run
// concurrently on the experiment engine's worker pool (-j), and the
// reports print in the order given.
//
// Workloads come from two sources: built-in benchmarks and scenarios
// (-workload) and user-defined JSON specs (-workload-file, one spec
// object or an array; see the README's "Defining your own
// workload").
//
// Usage:
//
//	gpusim [-workload sc | -workload sc,lbm,cfd] [-j N] [-stalls]
//	       [-workload-file specs.json]
//	       [-scale baseline|l1|l2|dram|l1l2|l2dram|all]
//	       [-warmup N] [-window N] [-fixed-latency -1]
//	       [-config file.json] [-dump-config] [-seed N]
//	       [-engine event|cycle] [-cache-dir DIR]
//	       [-cpuprofile cpu.pprof] [-memprofile mem.pprof]
//
// The batch is the daemons' "run" sweep kind: the request resolves as
// gpusimd resolves it, with the -config file as its inline base
// config, and runs on the same sweep pipeline. -scale, -seed, -warmup
// and -window are the methodology flags every CLI shares; one left
// unset keeps the base config's scale and seed and the default
// methodology, whose cycle counts -help shows.
//
// The sweep subcommand runs one kind of the sweep registry the
// daemons serve (latsweep, occupancy, designspace, bottleneck,
// scenarios, advise, mitigation, run) on the local worker pool, with
// one flag set for every kind. The first three regenerate the paper's
// Fig. 1, §III and Table I / §IV over the 8-benchmark suite:
//
//	gpusim sweep <kind> [-workloads sc,kmeans] [-j N]
//	       [-scale baseline|l1|l2|dram|l1l2|l2dram|all] [-seed N]
//	       [-warmup N] [-window N] [-csv] [-json]
//
// It prints the report's table, its CSV, or (-json) the exact report
// payload gpusimd and gpusimc serve for the same request; the run
// kind's report is a list of measurement envelopes and prints only as
// JSON. An empty -workloads means the kind's standard set.
//
// -engine selects the time-advancement strategy: under "event"
// (default) SMs sleep, ticking in O(1) until something can wake them,
// and in Fig. 1 mode each SM runs its own next-event loop; "cycle"
// runs a full tick of every component every cycle — the slow
// reference loop kept as a diagnostic oracle. The printed report is
// guaranteed byte-identical under either engine (the equivalence
// property tests and the golden files pin this), which is also why -engine composes safely with
// -cache-dir: an entry computed by one engine is a valid hit for the
// other.
//
// -cache-dir points at a gpusimd result-cache directory: jobs already
// measured (by either tool) decode from the cache instead of
// simulating, and fresh jobs are stored. The printed report is
// byte-identical with and without the cache — results are pure
// functions of (config, spec, seed, warmup, window).
package main

import (
	"context"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"

	gpgpumem "repro"
	"repro/internal/api"
	"repro/internal/config"
	"repro/internal/resultcache"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "sweep" {
		if err := runSweep(os.Args[2:]); err != nil {
			fatal(err)
		}
		return
	}
	var (
		wlName   = flag.String("workload", "sc", "comma-separated built-in workloads (benchmarks cfd dwt2d leukocyte nn nw sc lbm ss; scenarios kmeans bfs histo dct8x8)")
		wlFile   = flag.String("workload-file", "", "also run the user-defined JSON workload spec(s) in this file")
		jobs     = flag.Int("j", 0, "parallel simulations when several workloads are given (0 = all cores)")
		fixedLat = flag.Int64("fixed-latency", -1, "if >= 0, replace the hierarchy below L1 with this fixed miss latency (Fig. 1 mode)")
		cfgPath  = flag.String("config", "", "load configuration from a JSON file instead of the baseline")
		dumpCfg  = flag.Bool("dump-config", false, "print the effective configuration as JSON and exit")
		stalls   = flag.Bool("stalls", false, "append each workload's stall stack (per-cycle issue-slot attribution)")
		engine   = flag.String("engine", "event", "time-advancement engine: event (sleeping SMs, the default) or cycle (per-cycle reference loop). The report is guaranteed byte-identical either way — cycle exists as the slow oracle for diagnosing the event engine, never as a way to get different numbers")
		cacheDir = flag.String("cache-dir", "", "reuse a gpusimd result cache: cached jobs skip simulation, fresh jobs are stored for next time")
		cpuProf  = flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
		memProf  = flag.String("memprofile", "", "write a heap profile (after the run) to this file")
	)
	methodology := api.MethodologyFlags(flag.CommandLine)
	flag.Parse()

	// The request is the one gpusimd would resolve: -config is its
	// inline base, and the methodology flags left unset keep the
	// defaults.
	req := api.JobRequest{FixedLatency: fixedLat, Parallelism: *jobs}
	methodology(&req)
	if *cfgPath != "" {
		data, err := os.ReadFile(*cfgPath)
		if err != nil {
			fatal(err)
		}
		req.Config = data
	}
	maxParallel := max(*jobs, runtime.GOMAXPROCS(0))
	if *dumpCfg {
		cfg, _, err := api.ResolveMethodology(gpgpumem.DefaultConfig(), req, maxParallel, math.MaxInt64)
		if err != nil {
			fatal(err)
		}
		out, err := cfg.ToJSON()
		if err != nil {
			fatal(err)
		}
		fmt.Println(string(out))
		return
	}

	// -workload has a default, so only flag.Visit can tell whether the
	// user actually asked for built-in workloads.
	explicit := map[string]bool{}
	flag.Visit(func(f *flag.Flag) { explicit[f.Name] = true })

	var specs []gpgpumem.WorkloadSpec
	// Built-ins run when asked for explicitly, or as the default when
	// no spec file is given either.
	if explicit["workload"] || *wlFile == "" {
		for _, name := range strings.Split(*wlName, ",") {
			sp, err := gpgpumem.WorkloadSpecByName(strings.TrimSpace(name))
			if err != nil {
				fatal(err)
			}
			specs = append(specs, sp)
		}
	}
	if *wlFile != "" {
		data, err := os.ReadFile(*wlFile)
		if err != nil {
			fatal(err)
		}
		parsed, err := gpgpumem.ParseWorkloadSpecs(data)
		if err != nil {
			fatal(err)
		}
		specs = append(specs, parsed...)
	}
	eng, err := gpgpumem.ParseEngine(*engine)
	if err != nil {
		fatal(err)
	}
	run, err := api.KindByName("run")
	if err != nil {
		fatal(err)
	}
	sw, err := run.Resolve(specs, gpgpumem.DefaultConfig(), req, maxParallel, math.MaxInt64)
	if err != nil {
		fatal(err)
	}
	var cache *resultcache.Cache
	if *cacheDir != "" {
		if cache, err = resultcache.New(resultcache.Options{Dir: *cacheDir, Validate: validateEntry}); err != nil {
			fatal(err)
		}
	}
	// Profiling brackets exactly the simulations, and both profiles
	// are finalized before any exit path — no fatal() runs while a
	// profile is open, so an error can't leave a truncated file.
	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			fatal(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal(err)
		}
	}
	results := make([]gpgpumem.Results, len(sw.Grid))
	_, err = sw.Run(context.Background(), func(_ context.Context, i int, key string) ([]byte, gpgpumem.Results, error) {
		enc, err := measure(sw, i, key, eng, cache)
		enc, results[i], err = api.Decode(enc, err)
		return enc, results[i], err
	})
	if *cpuProf != "" {
		pprof.StopCPUProfile()
	}
	if *memProf != "" {
		writeHeapProfile(*memProf)
	}
	if err != nil {
		fatal(err)
	}
	wls := make([]gpgpumem.Workload, len(specs))
	for i, sp := range specs {
		wls[i] = sp
	}
	// The header names the measured config's architecture. Like the
	// seed, a fixed-latency backend is left out of the name, so a
	// -fixed-latency run names its base.
	arch := sw.Config
	arch.FixedLatency = config.FixedLatencyConfig{}
	fmt.Print(gpgpumem.RenderBatchReport(config.Architecture(arch), sw.Params.WarmupCycles, sw.Params.WindowCycles, wls, results))
	if *stalls {
		fmt.Print("\n" + gpgpumem.RenderBatchStallReport(wls, results))
	}
}

// measure obtains grid entry i of the batch, whose job key is key: a
// simulation on eng, or under -cache-dir the entry a gpusimd cache
// holds for the key, simulated and stored on a miss. Results are pure
// functions of the job, so the report is byte-identical either way.
func measure(sw api.Sweep, i int, key string, eng gpgpumem.Engine, cache *resultcache.Cache) ([]byte, error) {
	simulate := func() ([]byte, error) {
		j := api.Job(sw.Grid[i], sw.Params)
		j.Engine = eng
		return api.Simulate(j)
	}
	if cache == nil {
		return simulate()
	}
	enc, _, err := cache.GetOrCompute(key, simulate)
	return enc, err
}

// validateEntry is gpusimd's cache entry check, saying on stderr which
// entry it rejects: a corrupt or stale entry is recomputed, not
// trusted.
func validateEntry(key string, val []byte) ([]byte, error) {
	canon, err := api.ValidateEntry(key, val)
	if err != nil {
		fmt.Fprintf(os.Stderr, "gpusim: ignoring bad cache entry %s: %v\n", key, err)
	}
	return canon, err
}

// writeHeapProfile snapshots the live heap to path. Failures are
// reported without exiting: a broken heap-profile path must not
// discard the run's results or its CPU profile.
func writeHeapProfile(path string) {
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, "gpusim: memprofile:", err)
		return
	}
	runtime.GC() // report live heap, not transient garbage
	if err := pprof.WriteHeapProfile(f); err != nil {
		fmt.Fprintln(os.Stderr, "gpusim: memprofile:", err)
	}
	if err := f.Close(); err != nil {
		fmt.Fprintln(os.Stderr, "gpusim: memprofile:", err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "gpusim:", err)
	os.Exit(1)
}
