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
//	       [-warmup 6000] [-window 20000] [-fixed-latency -1]
//	       [-config file.json] [-dump-config] [-seed 1]
//	       [-engine event|cycle] [-cache-dir DIR]
//	       [-cpuprofile cpu.pprof] [-memprofile mem.pprof]
//
// The sweep subcommand runs one kind of the sweep registry the
// daemons serve (latsweep, occupancy, designspace, bottleneck,
// scenarios, advise, mitigation, run) on the local worker pool, with
// one flag set for every kind. The first three regenerate the paper's
// Fig. 1, §III and Table I / §IV over the 8-benchmark suite:
//
//	gpusim sweep <kind> [-workloads sc,kmeans] [-j N]
//	       [-scale baseline|l1|l2|dram|l1l2|l2dram|all] [-seed 1]
//	       [-warmup 6000] [-window 20000] [-csv] [-json]
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
	"os"
	"runtime"
	"runtime/pprof"
	"strings"

	gpgpumem "repro"
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
		scale    = flag.String("scale", "baseline", "Table I scaling set: baseline|l1|l2|dram|l1l2|l2dram|all")
		warmup   = flag.Int64("warmup", 6000, "warm-up cycles before measurement")
		window   = flag.Int64("window", 20000, "measurement window in core cycles")
		fixedLat = flag.Int64("fixed-latency", -1, "if >= 0, replace the hierarchy below L1 with this fixed miss latency (Fig. 1 mode)")
		cfgPath  = flag.String("config", "", "load configuration from a JSON file instead of the baseline")
		dumpCfg  = flag.Bool("dump-config", false, "print the effective configuration as JSON and exit")
		seed     = flag.Uint64("seed", 1, "simulation seed")
		stalls   = flag.Bool("stalls", false, "append each workload's stall stack (per-cycle issue-slot attribution)")
		engine   = flag.String("engine", "event", "time-advancement engine: event (sleeping SMs, the default) or cycle (per-cycle reference loop). The report is guaranteed byte-identical either way — cycle exists as the slow oracle for diagnosing the event engine, never as a way to get different numbers")
		cacheDir = flag.String("cache-dir", "", "reuse a gpusimd result cache: cached jobs skip simulation, fresh jobs are stored for next time")
		cpuProf  = flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
		memProf  = flag.String("memprofile", "", "write a heap profile (after the run) to this file")
	)
	flag.Parse()

	cfg := gpgpumem.DefaultConfig()
	if *cfgPath != "" {
		data, err := os.ReadFile(*cfgPath)
		if err != nil {
			fatal(err)
		}
		cfg, err = loadConfig(data)
		if err != nil {
			fatal(err)
		}
	}
	set, err := gpgpumem.ParseScalingSet(*scale)
	if err != nil {
		fatal(err)
	}
	cfg = set.Apply(cfg)
	cfg.Seed = *seed
	if *fixedLat >= 0 {
		cfg.FixedLatency = gpgpumem.FixedLatencyConfig{Enabled: true, Cycles: *fixedLat}
	}
	if *dumpCfg {
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
	job := gpgpumem.Job{Config: cfg, WarmupCycles: *warmup, WindowCycles: *window, Engine: eng}
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
	results, err := measure(job, specs, *jobs, *cacheDir)
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
	fmt.Print(gpgpumem.RenderBatchReport(set.String(), *warmup, *window, wls, results))
	if *stalls {
		fmt.Print("\n" + gpgpumem.RenderBatchStallReport(wls, results))
	}
}

func loadConfig(data []byte) (gpgpumem.Config, error) {
	return gpgpumem.ConfigFromJSON(data)
}

// measure runs one job per spec, each a copy of job with the spec as
// its workload, optionally through a content-addressed result cache
// shared with gpusimd. Results are pure functions of (config, spec,
// seed, warmup, window), so a cache hit decodes to the exact snapshot
// a fresh simulation would produce and the rendered report is
// byte-identical either way.
func measure(job gpgpumem.Job, specs []gpgpumem.WorkloadSpec, jobs int, cacheDir string) ([]gpgpumem.Results, error) {
	batch := make([]gpgpumem.Job, len(specs))
	for i, sp := range specs {
		batch[i] = job
		batch[i].Workload = sp
	}
	if cacheDir == "" {
		return gpgpumem.MeasureBatch(context.Background(), batch, jobs, nil)
	}
	cache, err := gpgpumem.NewResultCache(gpgpumem.ResultCacheOptions{Dir: cacheDir})
	if err != nil {
		return nil, err
	}
	results := make([]gpgpumem.Results, len(batch))
	keys := make([]string, len(batch))
	var misses []int
	for i, sp := range specs {
		key, err := gpgpumem.SimResultKey(job.Config, sp, job.WarmupCycles, job.WindowCycles)
		if err != nil {
			return nil, err
		}
		keys[i] = key
		data, ok := cache.Get(key)
		if !ok {
			misses = append(misses, i)
			continue
		}
		res, err := gpgpumem.DecodeResults(data)
		if err != nil {
			// A corrupt or stale entry is recomputed, not trusted.
			fmt.Fprintf(os.Stderr, "gpusim: ignoring bad cache entry for %s: %v\n", sp.Name(), err)
			misses = append(misses, i)
			continue
		}
		results[i] = res
	}
	if len(misses) == 0 {
		return results, nil
	}
	fresh := make([]gpgpumem.Job, len(misses))
	for bi, i := range misses {
		fresh[bi] = batch[i]
	}
	computed, err := gpgpumem.MeasureBatch(context.Background(), fresh, jobs, nil)
	if err != nil {
		return nil, err
	}
	for bi, i := range misses {
		results[i] = computed[bi]
		enc, err := gpgpumem.EncodeResults(computed[bi])
		if err != nil {
			return nil, err
		}
		cache.Put(keys[i], enc)
	}
	return results, nil
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
