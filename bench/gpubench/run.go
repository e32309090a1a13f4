package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	gm "repro"
)

// bench is one workload's system under test. A fresh bench starts from
// nothing: the traced run opens a second one so that its traced slice
// meets the same cold caches as the untraced slice did.
type bench interface {
	// setup builds what the passes run against. Calling setup again
	// after close builds it anew.
	setup() error
	// prepare brings what setup built to its steady state, untimed,
	// recording its checks on rec.
	prepare(rec *recorder) error
	// pass runs pass k, whose inputs derive from the seed and k alone.
	// It records each op on rec; an error means the system under test
	// could not be driven at all.
	pass(k int, rec *recorder) error
	// verify runs the untimed output checks after the timed passes.
	verify(rec *recorder)
	// counters fills the per-layer counters the system under test
	// exposes through its API.
	counters(m metrics) error
	// digest is the hex SHA-256 of pass 0's outputs.
	digest() string
	// close releases what setup built and waits for it to stop.
	close()
}

// size scales every workload. full is what the benchmark measures;
// tiny keeps the smoke test short.
type size struct {
	simWarmup, simWindow     int64 // cycles per grid job
	simJobs                  int   // jobs per simulator pass; 0 = the whole grid
	runWarmup, runWindow     int64 // cycles per serve-mixed request
	requests                 int   // serve-mixed requests per pass
	hotKeys, warmKeys        int   // serve-mixed key set sizes
	sweepWarmup, sweepWindow int64 // cycles per fleet-advise job
	sweepWorkloads           int   // workloads per fleet sweep; 0 = all twelve
}

var (
	full = size{6000, 20000, 0, 1000, 3000, 2000, 48, 480, 500, 1500, 0}
	tiny = size{200, 600, 6, 100, 300, 40, 4, 12, 100, 300, 2}
)

// setupReps is how many times a run sets its system up; setup_s is the
// median.
const setupReps = 11

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metrics map[string]metric

type result struct {
	Correct   bool    `json:"correct"`
	Attempted int64   `json:"attempted"`
	Failed    int64   `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

// metricDef names a metric and its unit; BENCHMARK.json declares the
// same lists.
type metricDef struct{ name, unit string }

var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"op_p50_ms", "ms"},
	{"op_tail_ms", "ms"},
	{"peak_rss_mb", "MB"},
}

// layers are the repo's modules a profile sample can be charged to.
var layers = []string{
	"api", "cache", "config", "core", "dram", "exp", "fabric", "icnt", "l2", "mem",
	"policy", "queue", "resultcache", "runner", "sched", "serve", "sim", "stats", "workload",
}

var perLayer = func() []metricDef {
	var defs []metricDef
	for _, l := range append(layers, "other") {
		defs = append(defs, metricDef{l + ".self_frac", "frac"})
	}
	return append(defs, []metricDef{
		{"other.gc_frac", "frac"},
		{"core.ns_per_inst", "ns"},
		{"workload.ns_per_inst", "ns"},
		{"cache.ns_per_access", "ns"},
		{"icnt.ns_per_packet", "ns"},
		{"l2.ns_per_access", "ns"},
		{"dram.ns_per_access", "ns"},
		{"sim.event_speedup_x", "x"},
		{"sim.new_ms", "ms"},
		{"runner.alloc_kb_per_job", "KB"},
		{"runner.mallocs_per_job", "count"},
		{"resultcache.hit_frac", "frac"},
		{"resultcache.disk_hits", "count"},
		{"resultcache.computes", "count"},
		{"resultcache.evictions", "count"},
		{"resultcache.shared", "count"},
		{"resultcache.hit_p50_ms", "ms"},
		{"serve.miss_p50_ms", "ms"},
		{"serve.shed", "count"},
		{"serve.peer_hits", "count"},
		{"fabric.retries", "count"},
		{"fabric.hit_frac", "frac"},
		{"fabric.cold_sweep_ms", "ms"},
		{"fabric.warm_sweep_ms", "ms"},
		{"core.warp_insts", "count"},
		{"cache.l1_accesses", "count"},
		{"cache.l2_accesses", "count"},
		{"icnt.packets", "count"},
		{"dram.accesses", "count"},
		{"trace.overhead_frac", "frac"},
		{"trace.samples", "count"},
		{"trace.named_frac", "frac"},
	}...)
}()

func (m metrics) set(name string, v float64) {
	mt, ok := m[name]
	if !ok {
		panic("gpubench: undeclared metric " + name)
	}
	mt.Value = v
	m[name] = mt
}

func zeroed(defs []metricDef) metrics {
	m := metrics{}
	for _, d := range defs {
		m[d.name] = metric{Unit: d.unit}
	}
	return m
}

// work counts what the simulations a run caused did; a change that only
// speeds the simulator up must leave it identical.
type work struct{ insts, l1, l2, packets, dram int64 }

func (w *work) add(r gm.Results) {
	w.insts += r.Instructions
	w.l1 += r.L1.Accesses
	w.l2 += r.L2.Accesses
	w.packets += r.ReqPackets + r.RespPackets
	w.dram += r.DRAMReads + r.DRAMWrites
}

// probe is a simulation job a run caused, kept for the engine probe,
// with the encoded results the run saw for it (nil when it saw none).
type probe struct {
	job gm.Job
	enc []byte
}

// probeEvery picks the jobs the traced run reruns under both engines.
const probeEvery = 11

// recorder collects one slice of a run: op latencies, failures, the
// work simulated, and (when traced) spans. Its methods are safe for
// concurrent use.
type recorder struct {
	tr *tracer

	mu        sync.Mutex
	lat       []float64            // ms per successful op
	classes   map[string][]float64 // ms per op class (hit/miss, cold/warm)
	attempted int64
	failed    int64
	errs      []string
	work      work
	sims      int
	probes    []probe
}

func newRecorder(tr *tracer) *recorder {
	return &recorder{tr: tr, classes: map[string][]float64{}}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// done records one timed op; a failed op has no latency.
func (r *recorder) done(d time.Duration, err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.attempted++
	if err != nil {
		r.failLocked(err)
		return
	}
	r.lat = append(r.lat, ms(d))
}

// sample records the latency of one op class without counting an op.
func (r *recorder) sample(class string, d time.Duration) {
	r.mu.Lock()
	r.classes[class] = append(r.classes[class], ms(d))
	r.mu.Unlock()
}

// check records one untimed verification.
func (r *recorder) check(err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.attempted++
	if err != nil {
		r.failLocked(err)
	}
}

// merge adds o's ops and failures to r as untimed checks.
func (r *recorder) merge(o *recorder) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.attempted += o.attempted
	r.failed += o.failed
	r.errs = append(r.errs, o.errs...)
}

// fail marks an op already counted as attempted as failed.
func (r *recorder) fail(err error) {
	r.mu.Lock()
	r.failLocked(err)
	r.mu.Unlock()
}

func (r *recorder) failLocked(err error) {
	r.failed++
	if len(r.errs) < 5 {
		r.errs = append(r.errs, err.Error())
	}
}

// simulated records a job the run caused to be simulated; res is nil
// when the run cannot see the job's results.
func (r *recorder) simulated(j gm.Job, res *gm.Results, enc []byte) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if res != nil {
		r.work.add(*res)
	}
	if r.sims%probeEvery == 0 {
		r.probes = append(r.probes, probe{job: j, enc: enc})
	}
	r.sims++
}

// scale multiplies every latency recorded by f.
func (r *recorder) scale(f float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	scale := func(xs []float64) {
		for i := range xs {
			xs[i] *= f
		}
	}
	scale(r.lat)
	for _, xs := range r.classes {
		scale(xs)
	}
}

// passes runs whole passes until at least seconds have elapsed, or
// until max passes, with one pass at minimum, calibrating between
// them. It returns the pass count and the time the passes took.
func passes(b bench, rec *recorder, seconds float64, max int, cal *calibrator) (int, time.Duration, error) {
	t0 := time.Now()
	var total time.Duration
	k := 0
	for k < max && (k == 0 || time.Since(t0).Seconds() < seconds) {
		t := time.Now()
		if err := b.pass(k, rec); err != nil {
			return k, 0, fmt.Errorf("pass %d: %w", k, err)
		}
		total += time.Since(t)
		cal.maybe()
		k++
	}
	return k, total, nil
}

// prepare runs b.prepare on a recorder of its own, so that nothing it
// does is timed or traced, and counts its ops on rec as checks.
func prepare(b bench, rec *recorder) error {
	pr := newRecorder(nil)
	if err := b.prepare(pr); err != nil {
		return fmt.Errorf("prepare: %w", err)
	}
	rec.merge(pr)
	return nil
}

// timeSetup sets b up setupReps times, closing all but the last, and
// returns the median set-up time in seconds.
func timeSetup(b bench) (float64, error) {
	ds := make([]float64, setupReps)
	for i := range ds {
		t := time.Now()
		if err := b.setup(); err != nil {
			return 0, fmt.Errorf("setup: %w", err)
		}
		ds[i] = time.Since(t).Seconds()
		if i < len(ds)-1 {
			b.close()
		}
	}
	return median(ds), nil
}

// verifyDigest compares pass 0's digest with the pinned one; want is
// empty when nothing is pinned for this code version, seed and size.
func verifyDigest(rec *recorder, got, want string) string {
	switch {
	case want == "":
		return "unpinned"
	case got == want:
		rec.check(nil)
		return "pinned"
	default:
		rec.check(fmt.Errorf("pass 0 digest %s, pinned %s", got, want))
		return "mismatch"
	}
}

// measureRun is the untraced run: it reports every end-to-end metric.
func measureRun(w workloadDef, seed uint64, seconds float64, sz size, pin string) (result, error) {
	var cal calibrator
	cal.sample()
	b := w.open(seed, sz)
	setupS, err := timeSetup(b)
	if err != nil {
		return result{}, err
	}
	defer b.close()
	rec := newRecorder(nil)
	if err := prepare(b, rec); err != nil {
		return result{}, err
	}
	cal.sample()
	checks := rec.attempted
	n, wall, err := passes(b, rec, seconds, math.MaxInt, &cal)
	if err != nil {
		return result{}, err
	}
	cal.sample()
	f := cal.factor()
	rec.scale(f)
	ops := rec.attempted - checks
	b.verify(rec)
	status := verifyDigest(rec, b.digest(), pin)
	rss, err := peakRSSMB()
	if err != nil {
		return result{}, err
	}
	level := tailLevel(int(ops) / n)
	m := zeroed(endToEnd)
	m.set("setup_s", setupS*f)
	m.set("ops_per_s", float64(len(rec.lat))/(wall.Seconds()*f))
	m.set("op_p50_ms", percentile(rec.lat, 50))
	m.set("op_tail_ms", percentile(rec.lat, level))
	m.set("peak_rss_mb", rss)
	fmt.Printf("%s seed %d: %d passes, %d ops in %.2f s; speed factor %.3f; verify=%s digest=%s\n",
		w.name, seed, n, ops, wall.Seconds(), f, status, b.digest())
	fmt.Printf("op_p50_ms over %d samples; op_tail_ms is p%g over %d samples\n", len(rec.lat), level, len(rec.lat))
	return finish(rec, m), nil
}

// profileHz is the CPU profile rate asked for in the traced slice,
// raised from the default 100 Hz so that a slice yields thousands of
// samples. The kernel's timer tick may cap the rate actually sampled,
// so layer self-times are shares of measured CPU time, not sample
// counts times the period.
const profileHz = 1000

// cpuTime is the CPU time the process has used so far.
func cpuTime() (time.Duration, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, fmt.Errorf("getrusage: %w", err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()), nil
}

// traceRun runs passes untraced for seconds, then the same passes on
// a fresh system under a CPU profile with spans, then reruns every
// probeEvery-th simulated job under both engines. It reports every
// per-layer metric and writes spans and the profile into dir.
func traceRun(w workloadDef, seed uint64, seconds float64, sz size, pin, dir string) (result, error) {
	m := zeroed(perLayer)
	var cal calibrator
	cal.sample()

	b := w.open(seed, sz)
	if err := b.setup(); err != nil {
		return result{}, fmt.Errorf("setup: %w", err)
	}
	rec := newRecorder(nil)
	if err := prepare(b, rec); err != nil {
		b.close()
		return result{}, err
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	checks := rec.attempted
	n, wallU, err := passes(b, rec, seconds, math.MaxInt, &cal)
	runtime.ReadMemStats(&after)
	if err == nil {
		err = b.counters(m)
	}
	b.close()
	if err != nil {
		return result{}, err
	}
	if ops := float64(rec.attempted - checks); ops > 0 {
		m.set("runner.alloc_kb_per_job", float64(after.TotalAlloc-before.TotalAlloc)/1024/ops)
		m.set("runner.mallocs_per_job", float64(after.Mallocs-before.Mallocs)/ops)
	}
	status := verifyDigest(rec, b.digest(), pin)

	b = w.open(seed, sz)
	if err := b.setup(); err != nil {
		return result{}, fmt.Errorf("setup: %w", err)
	}
	tr := newTracer(fmt.Sprintf("%s-%d", w.name, seed))
	traced := newRecorder(tr)
	if err := prepare(b, traced); err != nil {
		b.close()
		return result{}, err
	}
	var prof bytes.Buffer
	cpu0, err := cpuTime()
	if err != nil {
		b.close()
		return result{}, err
	}
	runtime.SetCPUProfileRate(profileHz)
	if err := pprof.StartCPUProfile(&prof); err != nil {
		b.close()
		return result{}, fmt.Errorf("start profile: %w", err)
	}
	_, wallT, err := passes(b, traced, math.Inf(1), n, &cal)
	pprof.StopCPUProfile()
	b.close()
	if err != nil {
		return result{}, err
	}
	cpu1, err := cpuTime()
	if err != nil {
		return result{}, err
	}
	m.set("trace.overhead_frac", wallT.Seconds()/wallU.Seconds()-1)

	newMS, speedup := runProbes(traced)
	cal.sample()
	f := cal.factor()
	m.set("sim.new_ms", newMS*f)
	m.set("sim.event_speedup_x", speedup)
	rec.scale(f)
	for class, name := range map[string]string{
		"hit": "resultcache.hit_p50_ms", "miss": "serve.miss_p50_ms",
		"cold": "fabric.cold_sweep_ms", "warm": "fabric.warm_sweep_ms",
	} {
		m.set(name, percentile(rec.classes[class], 50))
	}

	samples, err := decodeProfile(prof.Bytes())
	if err != nil {
		return result{}, err
	}
	charged := chargeSamples(samples)
	total := float64(charged.total)
	if total > 0 {
		for l, c := range charged.layer {
			if _, ok := m[l+".self_frac"]; ok {
				m.set(l+".self_frac", float64(c)/total)
			}
		}
		m.set("other.gc_frac", float64(charged.gc)/total)
		m.set("trace.named_frac", 1-float64(charged.layer["other"])/total)
	}
	m.set("trace.samples", total)
	// The slice's CPU time includes the calibrations, whose samples
	// the shares leave out.
	selfNS := func(l string) float64 {
		if total == 0 {
			return 0
		}
		return float64(charged.layer[l]) / (total + float64(charged.calib)) * float64(cpu1-cpu0) * f
	}
	per := func(ns float64, n int64) float64 {
		if n == 0 {
			return 0
		}
		return ns / float64(n)
	}
	wk := traced.work
	m.set("core.ns_per_inst", per(selfNS("core"), wk.insts))
	m.set("workload.ns_per_inst", per(selfNS("workload"), wk.insts))
	m.set("cache.ns_per_access", per(selfNS("cache"), wk.l1+wk.l2))
	m.set("icnt.ns_per_packet", per(selfNS("icnt"), wk.packets))
	m.set("l2.ns_per_access", per(selfNS("l2"), wk.l2))
	m.set("dram.ns_per_access", per(selfNS("dram"), wk.dram))
	m.set("core.warp_insts", float64(wk.insts))
	m.set("cache.l1_accesses", float64(wk.l1))
	m.set("cache.l2_accesses", float64(wk.l2))
	m.set("icnt.packets", float64(wk.packets))
	m.set("dram.accesses", float64(wk.dram))

	if err := os.MkdirAll(dir, 0o755); err != nil {
		return result{}, err
	}
	if err := tr.write(filepath.Join(dir, w.name+".spans.jsonl")); err != nil {
		return result{}, err
	}
	if err := os.WriteFile(filepath.Join(dir, w.name+".cpu.pprof"), prof.Bytes(), 0o644); err != nil {
		return result{}, err
	}
	fmt.Printf("%s seed %d traced: %d passes, untraced %.2f s, traced %.2f s, %d samples, %d probes; speed factor %.3f; verify=%s\n",
		w.name, seed, n, wallU.Seconds(), wallT.Seconds(), charged.total, len(traced.probes), f, status)

	// The traced slice's ops and checks count too: a failure under
	// tracing or in the engine probe is still a failure.
	rec.merge(traced)
	return finish(rec, m), nil
}

// runProbes reruns the sampled jobs under both engines, checking that
// the engines agree and that both match what the run saw. It returns
// the mean NewSystem time in ms and cycle-engine ÷ event-engine time.
func runProbes(rec *recorder) (newMS, speedup float64) {
	var build, event, cycle time.Duration
	for _, p := range rec.probes {
		t := time.Now()
		_, err := gm.NewSystem(p.job.Config, p.job.Workload)
		build += time.Since(t)
		if err != nil {
			rec.check(err)
			continue
		}
		ev, d, err := runJob(p.job, gm.EngineEvent)
		event += d
		if err != nil {
			rec.check(err)
			continue
		}
		cy, d, err := runJob(p.job, gm.EngineCycle)
		cycle += d
		if err == nil && !bytes.Equal(ev, cy) {
			err = fmt.Errorf("%s: cycle engine results differ from event engine results", p.job.Workload.Name())
		}
		rec.check(err)
		if p.enc != nil {
			if !bytes.Equal(ev, p.enc) {
				err = fmt.Errorf("%s: results the run saw differ from a local run", p.job.Workload.Name())
			}
			rec.check(err)
		}
	}
	if len(rec.probes) == 0 || event == 0 {
		return 0, 0
	}
	return ms(build) / float64(len(rec.probes)), cycle.Seconds() / event.Seconds()
}

// runJob measures one job on the given engine and returns its encoded
// results, checked by a decode round trip, and the wall time it took.
func runJob(j gm.Job, e gm.Engine) ([]byte, time.Duration, error) {
	j.Engine = e
	t := time.Now()
	res, err := gm.MeasureBatch(context.Background(), []gm.Job{j}, 1, nil)
	d := time.Since(t)
	if err != nil {
		return nil, d, err
	}
	enc, err := roundTrip(res[0])
	return enc, d, err
}

// roundTrip encodes r and checks that decoding and re-encoding gives
// the same bytes; DecodeResults also enforces stall closure.
func roundTrip(r gm.Results) ([]byte, error) {
	enc, err := gm.EncodeResults(r)
	if err != nil {
		return nil, err
	}
	dec, err := gm.DecodeResults(enc)
	if err != nil {
		return nil, fmt.Errorf("decode round trip: %w", err)
	}
	again, err := gm.EncodeResults(dec)
	if err != nil {
		return nil, err
	}
	if !bytes.Equal(enc, again) {
		return nil, fmt.Errorf("decode round trip changed the encoding")
	}
	return enc, nil
}

func finish(rec *recorder, m metrics) result {
	for _, e := range rec.errs {
		fmt.Fprintln(os.Stderr, "gpubench: failed:", e)
	}
	return result{Correct: rec.failed == 0, Attempted: rec.attempted, Failed: rec.failed, Metrics: m}
}

// peakRSSMB reads the process's peak resident set size from
// /proc/self/status.
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("parse VmHWM: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// percentile is the nearest-rank p-th percentile of xs, 0 for no
// samples; p = 50 is the median.
func percentile(xs []float64, p float64) float64 {
	if p == 50 {
		return median(xs)
	}
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rank(len(s), p)-1]
}

// rank is the 1-based nearest rank of the p-th percentile of n samples.
func rank(n int, p float64) int {
	r := int(math.Ceil(p / 100 * float64(n) * (1 - 1e-12)))
	if r < 1 {
		r = 1
	}
	return r
}

// tailLevel is the highest of p99.9, p99 and p90 that leaves at least
// 10 of n samples beyond it, or p50 when none does. A run derives it
// from the op count of one pass, which is fixed, so that the level
// never changes between runs of one workload.
func tailLevel(n int) float64 {
	for _, p := range []float64{99.9, 99, 90} {
		if n-rank(n, p) >= 10 {
			return p
		}
	}
	return 50
}
