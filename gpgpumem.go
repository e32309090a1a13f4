// Package gpgpumem is a cycle-level simulator of a GPGPU memory
// hierarchy — private L1 data caches with MSHRs, a flit-serialized
// crossbar interconnect, banked shared-L2 memory partitions, and
// GDDR channels with FR-FCFS scheduling — built to reproduce
//
//	S. Dublish, V. Nagarajan, N. Topham,
//	"Characterizing Memory Bottlenecks in GPGPU Workloads",
//	IISWC 2016.
//
// The baseline architecture models an NVIDIA GTX480 (Fermi) with the
// queue/MSHR/bank/port parameters of the paper's Table I. Three
// experiment harnesses regenerate the paper's artifacts:
//
//   - RunLatencyTolerance — Fig. 1, the latency-tolerance profile,
//     plus the §II baseline-latency/crossover analysis;
//   - RunQueueOccupancy — §III, queue full-of-usage occupancy;
//   - RunDesignSpace — Table I / §IV, the ~4× design-space scaling.
//
// Each harness expresses its sweep as a batch of independent
// simulations on a deterministic worker pool (RunParams.Parallelism;
// MeasureBatch exposes the engine directly): reports are bit-identical
// at any worker count, only faster.
//
// Quick start:
//
//	wl, _ := gpgpumem.WorkloadByName("sc")
//	sys, _ := gpgpumem.NewSystem(gpgpumem.DefaultConfig(), wl)
//	res := sys.Measure(6000, 20000)
//	fmt.Println(res)
package gpgpumem

import (
	"context"
	"io"
	"math"
	"runtime"

	"repro/internal/api"
	"repro/internal/config"
	"repro/internal/exp"
	"repro/internal/fabric"
	"repro/internal/policy"
	"repro/internal/resultcache"
	"repro/internal/runner"
	"repro/internal/serve"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/workload"
)

// Config is the architectural description of the simulated GPU. See
// DefaultConfig for the paper's GTX480 baseline.
type Config = config.Config

// FixedLatencyConfig enables the Fig. 1 apparatus: every L1 miss is
// answered after a fixed number of cycles with infinite bandwidth.
type FixedLatencyConfig = config.FixedLatencyConfig

// ScalingSet names a Table I design-space transform (§IV).
type ScalingSet = config.ScalingSet

// The §IV design-space configurations.
const (
	ScaleNone   = config.ScaleNone
	ScaleL1     = config.ScaleL1
	ScaleL2     = config.ScaleL2
	ScaleDRAM   = config.ScaleDRAM
	ScaleL1L2   = config.ScaleL1L2
	ScaleL2DRAM = config.ScaleL2DRAM
	ScaleAll    = config.ScaleAll
)

// TableIRow is one row of the paper's Table I design space.
type TableIRow = config.TableIRow

// DefaultConfig returns the paper's baseline: a GTX480-like GPU with
// Table I baseline parameters.
func DefaultConfig() Config { return config.GTX480Baseline() }

// TableI returns the paper's Table I, rendered from the live config
// code so it cannot drift from the implementation.
func TableI() []TableIRow { return config.TableI() }

// ParseScalingSet converts CLI strings such as "l2" or "l2+dram" into
// a ScalingSet.
func ParseScalingSet(s string) (ScalingSet, error) { return config.ParseScalingSet(s) }

// ConfigFromJSON parses and validates a configuration produced by
// Config.ToJSON.
func ConfigFromJSON(data []byte) (Config, error) { return config.FromJSON(data) }

// Workload supplies per-warp instruction streams to the simulator.
type Workload = workload.Workload

// WorkloadSpec is a declarative synthetic-kernel model; it implements
// Workload and is how custom workloads are built. A spec with a
// non-empty Phases slice alternates between per-phase knob sets
// round-robin, modelling kernels whose memory behaviour shifts over
// time.
type WorkloadSpec = workload.Spec

// WorkloadPhase is one phase of a multi-phase WorkloadSpec: its own
// access pattern, working set, compute/memory mix and duration in
// instructions.
type WorkloadPhase = workload.PhaseSpec

// Access patterns for WorkloadSpec.
const (
	Streaming = workload.Streaming
	Strided   = workload.Strided
	Stencil   = workload.Stencil
	Gather    = workload.Gather
	Thrash    = workload.Thrash
	Hotset    = workload.Hotset
	Transpose = workload.Transpose
)

// WorkloadByName returns one of the built-in benchmark models (cfd,
// dwt2d, leukocyte, nn, nw, sc, lbm, ss) or multi-phase scenarios
// (kmeans, bfs, histo, dct8x8).
func WorkloadByName(name string) (Workload, error) { return workload.ByName(name) }

// WorkloadNames lists every registered built-in workload: the paper's
// eight benchmarks plus the multi-phase scenarios. Use Suite for the
// Fig. 1 benchmark suite alone.
func WorkloadNames() []string { return workload.Names() }

// Suite returns the paper's Fig. 1 benchmark suite in figure order.
func Suite() []Workload { return workload.Suite() }

// Scenarios returns the built-in multi-phase scenario specs in
// reporting order (kmeans, bfs, histo, dct8x8).
func Scenarios() []WorkloadSpec { return workload.Scenarios() }

// ParseWorkloadSpec decodes one JSON-encoded WorkloadSpec and fully
// validates it (the -workload-file format of cmd/gpusim and
// cmd/latsweep; see the README's "Defining your own workload").
func ParseWorkloadSpec(data []byte) (WorkloadSpec, error) { return workload.ParseSpec(data) }

// ParseWorkloadSpecs decodes a single JSON WorkloadSpec object or a
// JSON array of them, validating every spec.
func ParseWorkloadSpecs(data []byte) ([]WorkloadSpec, error) { return workload.ParseSpecs(data) }

// Trace is a parsed instruction trace; it implements Workload by
// replaying the recorded streams (padding with ALU instructions once
// exhausted) and carries the recording-parameter header.
type Trace = trace.Trace

// TraceHeader is the metadata line Record writes: the format version
// and the parameters (line size, warps/SM) the recorded addresses
// depend on.
type TraceHeader = trace.Header

// RecordTrace writes n instructions of every warp stream of wl for
// the given number of SMs in the text trace format (cmd/tracegen's
// output), preceded by a versioned header pinning lineSize. lineSize
// should match the config the trace will run under.
func RecordTrace(wl Workload, sms, n int, seed, lineSize uint64, w io.Writer) error {
	return trace.Record(wl, sms, n, seed, lineSize, w)
}

// ParseTrace reads a recorded trace. Call Trace.CheckLineSize with the
// replay config's line size before simulating: headered traces are
// verified, legacy headerless traces replay with an unverified line
// size.
func ParseTrace(name string, r io.Reader) (*Trace, error) {
	return trace.Parse(name, r)
}

// Results is the measurement snapshot of one simulation window.
type Results = sim.Results

// System is one simulated GPU instance running a workload.
type System struct {
	gpu *sim.GPU
}

// NewSystem builds a simulator for cfg running wl.
func NewSystem(cfg Config, wl Workload) (*System, error) {
	g, err := sim.New(cfg, wl)
	if err != nil {
		return nil, err
	}
	return &System{gpu: g}, nil
}

// Run advances the system by n core cycles.
func (s *System) Run(n int64) { s.gpu.Run(n) }

// Cycle returns the current core-clock cycle.
func (s *System) Cycle() int64 { return s.gpu.Cycle() }

// ResetStats starts a fresh measurement window (architectural state —
// cache contents, queue occupancy, warp progress — is preserved).
func (s *System) ResetStats() { s.gpu.ResetStats() }

// Results returns the statistics gathered since the last ResetStats.
func (s *System) Results() Results { return s.gpu.Results() }

// Measure is the standard methodology in one call: run warmup cycles,
// reset statistics, run window cycles, and return the window results.
func (s *System) Measure(warmup, window int64) Results {
	s.gpu.Run(warmup)
	s.gpu.ResetStats()
	s.gpu.Run(window)
	return s.gpu.Results()
}

// RunParams sets warmup and measurement-window lengths for the
// experiment harnesses, plus the worker count (Parallelism: 0 =
// GOMAXPROCS, 1 = serial) and an optional Progress callback. Every
// harness farms its sweep grid out to a bounded worker pool; because
// each simulated GPU owns all of its state, reports are bit-identical
// at any parallelism.
type RunParams = exp.RunParams

// DefaultRunParams returns the harnesses' default methodology.
func DefaultRunParams() RunParams { return exp.DefaultRunParams() }

// Job is one independent simulation for MeasureBatch: a configuration,
// a workload, and the warmup/window methodology. Its Engine field
// (default EngineEvent) selects the time-advancement strategy.
type Job = runner.Job

// Engine selects how a simulation advances through time. The choice is
// observably irrelevant — Results are byte-identical under either
// engine; only wall-clock time differs.
type Engine = sim.Engine

const (
	// EngineEvent is the default next-event scheduler: provably frozen
	// spans are batch-skipped instead of ticked cycle by cycle.
	EngineEvent = sim.EngineEvent
	// EngineCycle is the per-cycle reference loop, kept as the slow,
	// obviously correct oracle (gpusim -engine=cycle).
	EngineCycle = sim.EngineCycle
)

// ParseEngine parses the -engine flag spellings "event" and "cycle".
func ParseEngine(s string) (Engine, error) { return sim.ParseEngine(s) }

// MeasureBatch runs a grid of independent simulations on a bounded
// worker pool and returns their measurements in submission order
// (completion order does not matter; results are deterministic).
// parallelism 0 means runtime.GOMAXPROCS(0) and 1 runs one job at a
// time; a fixed-latency (Fig. 1) job still spreads its SMs over up to
// GOMAXPROCS goroutines.
// Errors are collected per job and joined; canceling ctx fails the
// not-yet-started jobs but lets in-flight simulations finish.
func MeasureBatch(ctx context.Context, jobs []Job, parallelism int, progress func(done, total int)) ([]Results, error) {
	return runner.Run(ctx, jobs, runner.Options{Parallelism: parallelism, Progress: progress})
}

// RenderBatchReport renders the full measurement reports of a batch,
// one section per workload — cmd/gpusim's output format, also pinned
// by the golden-output tests.
func RenderBatchReport(scale string, warmup, window int64, wls []Workload, res []Results) string {
	return exp.BatchReport(scale, warmup, window, wls, res)
}

// MeasureSuiteBaselines measures the unmodified base architecture
// once per workload, as one batch on the worker pool — the shared
// baseline runs that Fig. 1 normalization, §III occupancy, and §IV
// speedups all start from.
func MeasureSuiteBaselines(base Config, suite []Workload, p RunParams) ([]Results, error) {
	return exp.Baselines(base, suite, p)
}

// LatencyCurve is one benchmark's Fig. 1 latency-tolerance profile.
type LatencyCurve = exp.Fig1Curve

// LatencyPoint is one x/y point of a latency-tolerance curve.
type LatencyPoint = exp.LatencyPoint

// LatencyReport is the complete Fig. 1 sweep over a suite.
type LatencyReport = exp.Fig1Report

// DefaultLatencies returns Fig. 1's x-axis (0..800 step 50).
func DefaultLatencies() []int64 { return exp.DefaultLatencies() }

// Fig1Commentary is the interpretive note cmd/latsweep appends after
// the Fig. 1 report (one copy, shared with the golden-output tests).
const Fig1Commentary = exp.Fig1Commentary

// RunLatencyTolerance regenerates one Fig. 1 curve: it measures the
// baseline, then sweeps the fixed L1 miss latency.
func RunLatencyTolerance(base Config, wl Workload, latencies []int64, p RunParams) (LatencyCurve, error) {
	return exp.RunFig1(base, wl, latencies, p)
}

// RunLatencyToleranceSuite regenerates all of Fig. 1.
func RunLatencyToleranceSuite(base Config, suite []Workload, latencies []int64, p RunParams) (LatencyReport, error) {
	return exp.RunFig1Suite(base, suite, latencies, p)
}

// OccupancyReport is the §III queue-congestion characterization.
type OccupancyReport = exp.OccupancyReport

// RunQueueOccupancy regenerates §III: the fraction of usage lifetime
// each bounded queue spends full, per benchmark and averaged.
func RunQueueOccupancy(base Config, suite []Workload, p RunParams) (OccupancyReport, error) {
	return exp.RunOccupancy(base, suite, p)
}

// DesignSpaceResult is the §IV exploration outcome.
type DesignSpaceResult = exp.DesignSpaceResult

// RunDesignSpace regenerates §IV: per-workload and average speedups
// for each Table I scaling set.
func RunDesignSpace(base Config, suite []Workload, sets []ScalingSet, p RunParams) (DesignSpaceResult, error) {
	return exp.RunDesignSpace(base, suite, sets, p)
}

// StallCause is one category of the per-cycle issue-slot attribution:
// each SM cycle is charged to exactly one cause (issue progress, a
// scoreboard dependency, the SM's own memory pipeline, or — for
// memory waits — the deepest saturated level of the hierarchy below).
type StallCause = stats.StallCause

// The stall-attribution categories. See the sim package doc's stall
// taxonomy for the precise charging rules.
const (
	StallIssue      = stats.StallIssue
	StallScoreboard = stats.StallScoreboard
	StallMemPipe    = stats.StallMemPipe
	StallL1Miss     = stats.StallL1Miss
	StallIcnt       = stats.StallIcnt
	StallL2Queue    = stats.StallL2Queue
	StallDRAMQueue  = stats.StallDRAMQueue
	NumStallCauses  = stats.NumStallCauses
)

// StallBreakdown attributes issue slots to causes; Results.Stalls
// carries one merged across all SMs, with Total equal to cycles × SMs.
type StallBreakdown = stats.StallBreakdown

// BackPressure reports, per hierarchy level, the fraction of its
// clock-domain cycles the level's input queue was full — how long it
// stalled its upstream.
type BackPressure = sim.BackPressure

// BottleneckReport is the per-workload stall-stack characterization
// (the "bottleneck" sweep's report): where the cycles go, per workload.
type BottleneckReport = exp.BottleneckReport

// BottleneckRow is one workload's stall stack in a BottleneckReport.
type BottleneckRow = exp.BottleneckRow

// RenderBatchStallReport renders the per-workload stall-stack sections
// cmd/gpusim appends under its -stalls flag.
func RenderBatchStallReport(wls []Workload, res []Results) string {
	return exp.BatchStallReport(wls, res)
}

// Perturbation is one variant of the advise and mitigation sweeps: a
// named architectural, software or policy change, the stall causes it
// targets, its rough relative cost, and the pure transform producing
// the perturbed (config, spec) pair.
type Perturbation = exp.Perturbation

// Perturbations returns the advisor's candidate interventions in grid
// order: 2× L1/L2, 4× MSHRs, a wider crossbar, deeper L2/DRAM queues,
// and a forced fully-coalesced spec variant.
func Perturbations() []Perturbation { return exp.Perturbations() }

// AdviseReport is the what-if advisor's answer: per workload, every
// intervention ranked by IPC recovered per unit of added hardware.
type AdviseReport = exp.AdviseReport

// AdviseRow is one workload's ranked verdict in an AdviseReport.
type AdviseRow = exp.AdviseRow

// AdviseOutcome is one measured intervention within an AdviseRow.
type AdviseOutcome = exp.AdviseOutcome

// WorkloadSpecByName returns a built-in benchmark or scenario as its
// underlying spec (the form the advisor and the sweep endpoints take).
func WorkloadSpecByName(name string) (WorkloadSpec, error) { return workload.SpecByName(name) }

// PolicyPerturbations returns the internal/policy mitigation policies
// as advisor candidates — zero-silicon-cost knobs to rank alongside
// the hardware ones; the registered "advise" sweep kind measures
// Perturbations() alone.
func PolicyPerturbations() []Perturbation { return exp.PolicyPerturbations() }

// Mitigations returns the mitigation sweep's candidate policies in
// grid order: issue throttling, L1 bypass, L2 pinning, and all three
// combined — config-only Perturbations.
func Mitigations() []Perturbation { return exp.Mitigations() }

// MitigationReport is the mitigation sweep's answer: per workload,
// every policy ranked by IPC recovered, with the stall-share shift
// each one caused.
type MitigationReport = exp.MitigationReport

// MitigationRow is one workload's ranked verdict in a
// MitigationReport.
type MitigationRow = exp.MitigationRow

// MitigationOutcome is one measured policy within a MitigationRow.
type MitigationOutcome = exp.MitigationOutcome

// JobRequest is the request document of the daemons' job endpoints
// and of RunSweep: a workloads list, seed, scaling set, methodology
// and parallelism (docs/api.md describes every field).
type JobRequest = api.JobRequest

// RunSweep runs one registered sweep kind (SweepKindNames) locally on
// the path `gpusim sweep <kind>`, gpusimd and gpusimc share, and
// returns its report: a BottleneckReport, ScenarioReport, AdviseReport
// or MitigationReport, or for the "run" kind the ordered per-workload
// measurement envelopes. The request resolves against DefaultConfig
// (or its inline config) with no window cap; Parallelism N runs N
// workers, 0 all cores. The report is bit-identical at any
// parallelism, and its json.Marshal bytes are the daemons' report
// payload for the same request.
func RunSweep(kind string, req JobRequest) (any, error) {
	sw, err := api.ResolveSweep(kind, DefaultConfig(), req, max(req.Parallelism, runtime.GOMAXPROCS(0)), math.MaxInt64)
	if err != nil {
		return nil, err
	}
	return sw.Compute()
}

// IssuePolicyNames lists the registered warp-issue policies — the
// valid Config.Policy.Issue values.
func IssuePolicyNames() []string { return policy.IssueNames() }

// FillPolicyNames lists the registered L1 fill policies — the valid
// Config.Policy.L1Fill values.
func FillPolicyNames() []string { return policy.FillNames() }

// L2PolicyNames lists the registered L2 insertion policies — the
// valid Config.Policy.L2Insert values.
func L2PolicyNames() []string { return policy.L2Names() }

// SweepKindNames lists the registered sweep kinds — the valid {kind}
// segments of the daemons' POST /v1/sweep/{kind} endpoints and of
// gpusimc -sweep — in registry order.
func SweepKindNames() []string { return api.KindNames() }

// ScenarioReport compares multi-phase scenarios against their
// duration-weighted fixed-mix controls (WorkloadSpec.Flatten).
type ScenarioReport = exp.ScenarioReport

// ScenarioRow is one scenario-vs-control comparison of a
// ScenarioReport.
type ScenarioRow = exp.ScenarioRow

// EncodeResults renders a Results snapshot as stable, compact JSON:
// the same measurement always encodes to the same bytes, which is
// what makes serialized results content-addressable.
func EncodeResults(r Results) ([]byte, error) { return exp.EncodeResults(r) }

// DecodeResults parses EncodeResults output, rejecting snapshots the
// simulator could not have produced (unknown fields, negative
// counters, out-of-range fractions, a broken stall-closure).
func DecodeResults(data []byte) (Results, error) { return exp.DecodeResults(data) }

// ResultCache is a content-addressed store for encoded measurements:
// an in-memory LRU with a byte budget, optional disk persistence, and
// singleflight dedup of concurrent identical computes. cmd/gpusimd
// serves from one; gpusim -cache-dir reuses the same on-disk entries.
type ResultCache = resultcache.Cache

// ResultCacheOptions configures NewResultCache.
type ResultCacheOptions = resultcache.Options

// ResultCacheStats is a snapshot of a cache's hit/miss/eviction
// counters.
type ResultCacheStats = resultcache.Stats

// ResultCacheCodeVersion stamps every cache key; it is bumped whenever
// a simulator change moves any measured number, invalidating entries
// produced by older code.
const ResultCacheCodeVersion = resultcache.CodeVersion

// NewResultCache builds a result cache.
func NewResultCache(o ResultCacheOptions) (*ResultCache, error) { return resultcache.New(o) }

// SimResultKey content-addresses one simulation: a SHA-256 over the
// canonical JSON of (config, spec, seed, warmup, window) plus the
// ResultCacheCodeVersion stamp. Equivalent job descriptions — e.g.
// spec JSON with reordered keys — always share a key. Results are
// pure functions of exactly these inputs, so the key fully determines
// the encoded measurement stored under it.
func SimResultKey(cfg Config, spec WorkloadSpec, warmup, window int64) (string, error) {
	return resultcache.JobKey(cfg, spec, warmup, window)
}

// ExperimentServer is the HTTP/JSON experiment service behind
// cmd/gpusimd: sweep submission over a bounded job queue, a
// content-addressed result cache with singleflight dedup, and
// graceful drain.
type ExperimentServer = serve.Server

// ExperimentServerOptions configures NewExperimentServer.
type ExperimentServerOptions = serve.Options

// NewExperimentServer builds the experiment service. Mount
// Handler() on any mux or listener; call Drain on shutdown.
func NewExperimentServer(o ExperimentServerOptions) (*ExperimentServer, error) { return serve.New(o) }

// SweepCoordinator shards a sweep across a fleet of experiment
// servers (cmd/gpusimd workers) and merges the results into a report
// byte-identical to a single node's — the engine behind cmd/gpusimc.
// Workers share their content-addressed caches peer-to-peer, jobs
// route by rendezvous hashing for cache locality, and worker loss
// retries elsewhere with bounded backoff.
type SweepCoordinator = fabric.Coordinator

// SweepCoordinatorOptions configures NewSweepCoordinator.
type SweepCoordinatorOptions = fabric.Options

// SweepJobEvent is one completed job's progress notification during a
// coordinated sweep.
type SweepJobEvent = fabric.JobEvent

// NewSweepCoordinator builds a sweep coordinator over the given
// worker fleet.
func NewSweepCoordinator(o SweepCoordinatorOptions) (*SweepCoordinator, error) { return fabric.New(o) }
