// Package sim assembles the full GPU — SIMT cores, request/response
// crossbars, L2 memory partitions and DRAM channels — and drives the
// four clock domains. It also provides the Fig. 1 apparatus: a
// fixed-latency, infinite-bandwidth memory backend per SM that
// replaces the hierarchy below the L1.
//
// # Hot-path invariants
//
// The engine allocates nothing in steady state, a sleeping SM's tick
// costs O(1), and building a system costs what its state costs:
//
//   - Construction allocates per component, not per warp or per
//     object. The workload validates once per SM and builds that SM's
//     streams in a few per-SM slabs (workload.Workload.Streams);
//     components hold their queues, caches, MSHR tables and samplers by
//     value, each backed by one allocation sized from the config; an
//     MSHR's entries and merge lists and every warp's load list exist
//     at their bounds from the start. Slabs are never shared across
//     SMs, so per-SM mutable state stays on each SM's own cache lines
//     (runPorts). The priming fetch stays in New. What grows during a
//     run grows in chunks: mem.Pool and the SMs' load trackers
//     (mem.FreeList), and the pipeline rings, by doubling.
//   - All mem.Request and mem.Packet values are drawn from a
//     free-list pool (mem.Pool) and recycled at their retirement
//     points; see the pool's ownership protocol. The full hierarchy
//     has one pool per GPU; in Fig. 1 mode each SM's port owns one.
//   - An SM whose last full tick made no progress — it retired no
//     response or hit, popped neither its LDST nor its miss queue,
//     pushed no drain transaction and issued nothing — sleeps
//     (core.SM): its later ticks replay that tick's counter deltas in
//     O(1) until a response delivery, a due hit or response, or (with
//     its miss queue non-empty) room in its request-crossbar input
//     wakes it. Idle, hit-wait and stalls behind a full MSHR file, a
//     full miss queue or crossbar back pressure are all this one
//     state. The hierarchy path ticks every SM each cycle, but a
//     sleeping SM's tick is cheap.
//   - On the hierarchy Run steps every cycle under either engine:
//     every crossbar, L2 partition and DRAM channel ticks on each
//     cycle of its clock domain (sched.Domain). The memory queues stay
//     congested, so a span in which every SM sleeps and nothing below
//     them is due almost never occurs, and Run does not look for one.
//   - In Fig. 1 mode the SMs share nothing that affects timing: each
//     SM's misses return only to it, after a constant delay, from its
//     own port (fixedPort), which owns the SM's pool and request-ID
//     counter. So Run gives every SM its own next-event loop over the
//     whole span — the next cycle is the earlier of the SM's
//     SleepUntil and its port's head delivery, so every sleeping span
//     is skipped outright — and runs the loops on up to GOMAXPROCS
//     goroutines (runPorts). EngineCycle still steps the SMs in
//     lockstep.
//   - Queue occupancy is not sampled cycle by cycle: each component
//     counts its ticks, and each queue charges the ticks since its last
//     change at the old length when its length changes or is read
//     (queue.Queue) — exactly the per-cycle samples, at a cost that
//     follows the traffic, not the clock.
//   - A sleeping tick, and a span a Fig. 1 per-SM loop skips, account
//     the exact statistics full ticks would have produced:
//     core.SM.SkipIdle batch-charges cycle counts, the no-warp,
//     blocked-L1-head and LDST-full stalls, stall attribution and the
//     tick count, so frozen queues are charged at their unchanged
//     lengths. Reports are therefore byte-identical under EngineEvent
//     and EngineCycle — the per-cycle reference loop, kept compiled
//     and tested as the oracle (SetEngine); the equivalence property
//     tests and the golden files pin this.
//
// Determinism is unaffected: a GPU instance owns all of its state, and
// in Fig. 1 mode the per-SM loops share no mutable state, so reports
// are bit-identical at any experiment-engine parallelism and any
// GOMAXPROCS. Golden-output tests (internal/exp/testdata) pin the
// exact bytes, and TestFixedLatencyDeterministicAcrossCores pins the
// per-SM spread.
//
// # Results are pure functions
//
// A measurement window's Results is a pure function of (config,
// workload spec, seed, warmup cycles, window cycles): nothing else —
// not wall-clock time, host, goroutine schedule or worker count —
// feeds the simulation, and every pseudo-random choice flows from the
// seeded RNGs owned by the instance. This is the caching invariant
// behind internal/resultcache and cmd/gpusimd: a serialized Results
// can be stored under a canonical hash of exactly those inputs and
// replayed later as a byte-identical substitute for re-running the
// simulation. Any change that moves a measured number must bump
// resultcache.CodeVersion (and regenerate the golden reports), so
// stale cache entries stop matching instead of masquerading as
// current.
//
// # Stall taxonomy
//
// Every core cycle of every SM is attributed to exactly one cause in
// its stats.StallBreakdown — the "where do the cycles go" stack of
// Results.Stalls, gpusim sweep bottleneck and gpusim -stalls. The categories:
//
//   - issue: at least one warp instruction issued (compute progress);
//   - scoreboard: no warp could issue and no L1 miss is outstanding —
//     a pure dependency wait, e.g. on the L1 hit latency;
//   - mem-pipe: the SM's own memory pipeline (coalescer drain, LDST
//     queue, miss queue, response queue) holds the blocked work;
//   - l1-miss / icnt / l2-queue / dram-queue: L1 misses are
//     outstanding below the core. The GPU refines this memory wait to
//     the *deepest* level whose input queue is saturated this cycle —
//     a full DRAM scheduler queue outranks a full L2 access queue
//     outranks a full crossbar input buffer, because back pressure
//     propagates upward and the deepest saturated level is the root
//     cause. With no congestion anywhere the wait is pure miss-service
//     latency, charged to l1-miss (as is every memory wait in
//     fixed-latency mode, which has no hierarchy to congest).
//
// The refinement is computed lazily, at most once per core cycle
// (memStallCause), and sleeping ticks and Fig. 1's skipped spans
// batch-charge it (core.SM.SkipIdle), so attribution respects both the
// allocation budget and the sleeping invariants above. The sum of
// a breakdown's categories is exactly the SM's cycle count; merged
// GPU-wide it is cycles × SMs, an invariant the sim tests enforce for
// every built-in workload.
package sim

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/dram"
	"repro/internal/icnt"
	"repro/internal/l2"
	"repro/internal/mem"
	"repro/internal/queue"
	"repro/internal/sched"
	"repro/internal/stats"
	"repro/internal/workload"
)

// Engine selects how GPU.Run advances the system through time.
type Engine int

const (
	// EngineEvent (the default) lets SMs sleep. On the hierarchy Run
	// steps every cycle and a sleeping SM's tick replays its last
	// tick's counter deltas in O(1) (core.SM); in Fig. 1 mode each SM
	// runs its own next-event loop against its fixed-latency port,
	// charging every sleeping span in one batch (runPorts).
	EngineEvent Engine = iota
	// EngineCycle is the per-cycle reference loop: every component
	// runs a full tick on every cycle of its clock domain — SMs do
	// not sleep (core.SM.SetSleep). It is kept compiled and tested as
	// the oracle the event engine is checked against —
	// Results, stall breakdowns and golden reports must be
	// byte-identical under either engine — and as a debugging escape
	// hatch (gpusim -engine=cycle).
	EngineCycle
)

// String returns the -engine flag spelling of e.
func (e Engine) String() string {
	if e == EngineCycle {
		return "cycle"
	}
	return "event"
}

// ParseEngine parses the -engine flag spellings "event" and "cycle".
func ParseEngine(s string) (Engine, error) {
	switch s {
	case "event":
		return EngineEvent, nil
	case "cycle":
		return EngineCycle, nil
	}
	return 0, fmt.Errorf("sim: unknown engine %q (want \"event\" or \"cycle\")", s)
}

// GPU is one simulated system instance.
type GPU struct {
	cfg config.Config

	sms   []*core.SM
	parts []*l2.Partition
	reqX  *icnt.Crossbar
	respX *icnt.Crossbar
	pool  *mem.Pool // free lists shared by every component; nil in Fig. 1 mode

	// ports are the per-SM fixed-latency backends; non-nil exactly in
	// Fig. 1 mode, where each SM and its port form an independent
	// simulation (runPorts).
	ports []*fixedPort
	// runEnd and nextPort hand out work to runPorts' workers; wg
	// joins them, and workerPanic carries a worker's panic back to
	// the calling goroutine. Kept in the GPU so starting the workers
	// allocates nothing.
	runEnd      int64
	nextPort    atomic.Int32
	wg          sync.WaitGroup
	workerPanic atomic.Pointer[recovered]

	addrMap dram.AddrMap
	nextID  uint64

	coreCycle int64
	// Derived clock domains, advanced in exact rational proportion to
	// the core clock (sched.Domain reproduces the historical per-cycle
	// phase-accumulator loop for any step batching).
	icntDom, l2Dom, dramDom sched.Domain

	// stallCause memoizes the hierarchical memory-stall refinement for
	// the core cycle stallCauseAt: the deepest level whose input queue
	// is saturated. It is computed lazily — only when some SM charges
	// a memory-wait cycle — and at most once per cycle, shared by all
	// SMs for determinism.
	stallCause   stats.StallCause
	stallCauseAt int64

	// engine selects Run's time-advancement strategy; statistics must
	// not change either way (SetEngine).
	engine Engine
}

// New builds a GPU running wl under cfg. The config is validated and
// the workload's warp demand checked against the SM limit.
func New(cfg config.Config, wl workload.Workload) (*GPU, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if wl.WarpsPerSM() > cfg.Core.MaxWarpsPerSM {
		return nil, fmt.Errorf("sim: workload %s wants %d warps/SM, config allows %d",
			wl.Name(), wl.WarpsPerSM(), cfg.Core.MaxWarpsPerSM)
	}
	g := &GPU{
		cfg: cfg,
		addrMap: dram.NewAddrMap(cfg.L2.LineSize, cfg.L2.Partitions,
			cfg.DRAM.RowBytes, cfg.DRAM.BanksPerChip),
		stallCauseAt: -1,
		icntDom:      sched.NewDomain(cfg.Clock.IcntMHz, cfg.Clock.CoreMHz),
		l2Dom:        sched.NewDomain(cfg.Clock.L2MHz, cfg.Clock.CoreMHz),
		dramDom:      sched.NewDomain(cfg.Clock.DRAMMHz, cfg.Clock.CoreMHz),
	}

	if !cfg.FixedLatency.Enabled {
		g.pool = mem.NewPool()
		g.respX = icnt.New(icnt.Config{
			Inputs: cfg.L2.Partitions, Outputs: cfg.Core.NumSMs,
			FlitBytes: cfg.Icnt.FlitSizeBytes, Lanes: cfg.Icnt.LanesPerPort,
			InputBuffer: cfg.Icnt.InputBuffer,
			WireLatency: cfg.Icnt.WireLatency, Name: "resp",
		}, respSink{g})
		g.parts = make([]*l2.Partition, cfg.L2.Partitions)
		for i := range g.parts {
			g.parts[i] = l2.New(i, cfg, g.respX, &g.nextID)
			g.parts[i].UsePool(g.pool)
		}
		g.reqX = icnt.New(icnt.Config{
			Inputs: cfg.Core.NumSMs, Outputs: cfg.L2.Partitions,
			FlitBytes: cfg.Icnt.FlitSizeBytes, Lanes: cfg.Icnt.LanesPerPort,
			InputBuffer: cfg.Icnt.InputBuffer,
			WireLatency: cfg.Icnt.WireLatency, Name: "req",
		}, reqSink{g})
	}

	g.sms = make([]*core.SM, cfg.Core.NumSMs)
	// NewSM copies the streams into its warps, so one dst serves every
	// SM; the streams themselves live in per-SM slabs (Streams).
	streams := make([]core.InstrStream, wl.WarpsPerSM())
	var backends []realBackend
	if cfg.FixedLatency.Enabled {
		g.ports = make([]*fixedPort, 0, cfg.Core.NumSMs)
	} else {
		backends = make([]realBackend, cfg.Core.NumSMs)
	}
	for i := range g.sms {
		wl.Streams(i, cfg.Seed, uint64(cfg.L1.LineSize), streams)
		if !cfg.FixedLatency.Enabled {
			backends[i] = realBackend{g, i}
			g.sms[i] = core.NewSM(i, cfg, streams, &backends[i], &g.nextID)
			g.sms[i].UsePool(g.pool)
			continue
		}
		p := &fixedPort{latency: cfg.FixedLatency.Cycles}
		p.sm = core.NewSM(i, cfg, streams, p, &p.nextID)
		p.sm.UsePool(&p.pool)
		g.sms[i] = p.sm
		g.ports = append(g.ports, p)
	}
	return g, nil
}

// reqSink delivers request packets into L2 access queues.
type reqSink struct{ g *GPU }

func (s reqSink) Accept(dst int, pkt *mem.Packet) bool { return s.g.parts[dst].Accept(pkt) }

// respSink delivers response packets into SM response queues.
type respSink struct{ g *GPU }

func (s respSink) Accept(dst int, pkt *mem.Packet) bool { return s.g.sms[dst].DeliverResponse(pkt) }

// realBackend routes L1 misses into the request crossbar. New keeps
// every SM's in one slice and hands out pointers, so wiring an SM
// allocates nothing.
type realBackend struct {
	g  *GPU
	sm int
}

// CanSend implements core.Backend: the SM's request-crossbar input
// has a free slot, exactly the condition under which Push accepts.
func (b *realBackend) CanSend() bool { return b.g.reqX.InputFree(b.sm) > 0 }

// SendMiss implements core.Backend.
func (b *realBackend) SendMiss(req *mem.Request) bool {
	part := b.g.addrMap.Partition(req.LineAddr())
	req.PartitionID = part
	pkt := b.g.pool.GetPacket()
	*pkt = mem.Packet{
		Req: req, Src: b.sm, Dst: part,
		SizeBytes: mem.RequestPacketBytes(req),
	}
	if !b.g.reqX.Push(b.sm, pkt) {
		b.g.pool.PutPacket(pkt) // input buffer full: retry next cycle
		return false
	}
	return true
}

// MemStallCause implements core.Backend: the GPU-wide hierarchical
// refinement, memoized per core cycle.
func (b *realBackend) MemStallCause() stats.StallCause { return b.g.memStallCause() }

// memStallCause names the level responsible for memory waits this
// cycle: the deepest one whose input queue is saturated. DRAM
// saturation outranks L2 outranks interconnect — a full queue below
// is the root cause of every queue backed up above it — and with no
// congestion anywhere the wait is pure L1-miss service latency. The
// result is computed at most once per core cycle and shared by every
// SM, after the downstream clock domains have ticked (Step order), so
// attribution is deterministic at any experiment-engine parallelism.
func (g *GPU) memStallCause() stats.StallCause {
	if g.stallCauseAt == g.coreCycle {
		return g.stallCause
	}
	g.stallCauseAt = g.coreCycle
	g.stallCause = stats.StallL1Miss
	for _, p := range g.parts {
		if p.Channel().SchedFull() {
			g.stallCause = stats.StallDRAMQueue
			return g.stallCause
		}
	}
	for _, p := range g.parts {
		if p.AccessFull() {
			g.stallCause = stats.StallL2Queue
			return g.stallCause
		}
	}
	if g.reqX.AnyInputFull() || g.respX.AnyInputFull() {
		g.stallCause = stats.StallIcnt
	}
	return g.stallCause
}

// fixedPort is one SM's whole memory system in Fig. 1 mode: it
// answers every L1 load miss after exactly latency core cycles with
// unlimited bandwidth, and stores vanish instantly — the paper's "all
// L1 miss responses returned with a fixed and pre-determined latency"
// apparatus. A port serves only its own SM and owns that SM's request
// pool and request-ID counter, so nothing that affects timing is
// shared between SMs: each SM and its port are an independent
// simulation (run).
type fixedPort struct {
	// The pads keep the fields below, written every stepped cycle, off
	// the cache lines of the neighbouring ports, which sit next to
	// this one in memory and run on other cores. Without them false
	// sharing cancelled most of the parallel speedup.
	_       [64]byte
	sm      *core.SM
	latency int64
	// now is the cycle being ticked; SendMiss stamps ReadyAt from it.
	now int64
	// pending holds the scheduled deliveries. Constant latency keeps
	// it sorted by ReadyAt, so its head is the port's next event.
	pending queue.Ring[*mem.Packet]
	pool    mem.Pool
	nextID  uint64
	_       [64]byte
}

// MemStallCause implements core.Backend: the fixed-latency responder
// has no hierarchy to congest, so every memory wait is pure latency.
func (p *fixedPort) MemStallCause() stats.StallCause { return stats.StallL1Miss }

// CanSend implements core.Backend: the port never back-pressures.
func (p *fixedPort) CanSend() bool { return true }

// SendMiss implements core.Backend; it never back-pressures.
func (p *fixedPort) SendMiss(req *mem.Request) bool {
	if req.Kind != mem.Load {
		// Stores vanish here: this call is the request's last
		// reference (the L1 forwards stores without MSHR tracking).
		p.pool.PutRequest(req)
		return true
	}
	pkt := p.pool.GetPacket()
	*pkt = mem.Packet{
		Req: req, IsResponse: true, Dst: req.CoreID,
		SizeBytes: mem.ResponsePacketBytes(req),
		ReadyAt:   p.now + p.latency,
	}
	p.pending.Push(pkt)
	return true
}

// step delivers every response due at cycle c (unlimited bandwidth,
// FIFO; a full SM response queue retries next cycle), then ticks the
// SM.
func (p *fixedPort) step(c int64) {
	for {
		pkt, ok := p.pending.Peek()
		if !ok || pkt.ReadyAt > c || !p.sm.DeliverResponse(pkt) {
			break
		}
		p.pending.Pop()
	}
	p.now = c
	p.sm.Tick(c)
}

// run advances the SM and its port from cycle c to end with a
// next-event loop of their own: the next interesting cycle is the
// earlier of the SM's SleepUntil and the head delivery's ReadyAt, and
// every span before it is charged in one SkipIdle. Nothing else can
// wake the SM (the port always accepts, so no sleeping SM waits on
// it), and its memory-stall cause is constant, so this matches the
// per-cycle loop exactly.
func (p *fixedPort) run(c, end int64) {
	for c < end {
		next := p.sm.SleepUntil()
		if pkt, ok := p.pending.Peek(); ok && pkt.ReadyAt < next {
			next = pkt.ReadyAt
		}
		if next <= c {
			p.step(c)
			c++
			continue
		}
		k := min(next, end) - c
		p.sm.SkipIdle(k)
		c += k
	}
}

// recovered wraps a value recovered in a runPorts worker.
type recovered struct{ val any }

// runPorts advances every SM of a fixed-latency GPU to end, each on
// its own event loop (fixedPort.run). The loops share no mutable
// state, so they run on min(GOMAXPROCS, SMs) goroutines — the calling
// one included — that pull SM indices from an atomic counter; the
// Results do not depend on how the SMs are spread. A worker's panic
// is re-raised on the calling goroutine.
func (g *GPU) runPorts(end int64) {
	g.runEnd = end
	g.nextPort.Store(0)
	workers := min(runtime.GOMAXPROCS(0), len(g.ports))
	g.wg.Add(workers - 1)
	for w := 1; w < workers; w++ {
		go g.portWorker()
	}
	g.drainPorts()
	g.wg.Wait()
	if p := g.workerPanic.Swap(nil); p != nil {
		panic(p.val)
	}
	g.coreCycle = end
}

// portWorker is one spawned runPorts worker.
func (g *GPU) portWorker() {
	defer g.wg.Done()
	defer func() {
		if r := recover(); r != nil {
			g.workerPanic.CompareAndSwap(nil, &recovered{r})
		}
	}()
	g.drainPorts()
}

// drainPorts runs SMs until none is left unclaimed.
func (g *GPU) drainPorts() {
	for {
		i := int(g.nextPort.Add(1)) - 1
		if i >= len(g.ports) {
			return
		}
		g.ports[i].run(g.coreCycle, g.runEnd)
	}
}

// Step advances the system by one core clock cycle, ticking the other
// domains in rational proportion (e.g. DRAM at 924 MHz vs core at
// 700 MHz). Downstream domains tick first so back pressure resolves
// before new work enters. In Fig. 1 mode each SM's port delivers the
// responses due this cycle, then the SM ticks.
func (g *GPU) Step() {
	if g.ports != nil {
		for _, p := range g.ports {
			p.step(g.coreCycle)
		}
		g.coreCycle++
		return
	}
	c := g.dramDom.Cycle()
	for n := g.dramDom.Advance(1); n > 0; n-- {
		for _, p := range g.parts {
			p.Channel().Tick(c)
		}
		c++
	}
	c = g.l2Dom.Cycle()
	for n := g.l2Dom.Advance(1); n > 0; n-- {
		for _, p := range g.parts {
			p.Tick(c)
		}
		c++
	}
	c = g.icntDom.Cycle()
	for n := g.icntDom.Advance(1); n > 0; n-- {
		g.respX.Tick(c)
		g.reqX.Tick(c)
		c++
	}
	for _, sm := range g.sms {
		sm.Tick(g.coreCycle)
	}
	g.coreCycle++
}

// Run advances the system by n core cycles. On the hierarchy it steps
// each cycle under either engine; in Fig. 1 mode EngineEvent runs each
// SM on its own event loop (runPorts). The engines are statistically
// indistinguishable by construction — only wall-clock time differs.
func (g *GPU) Run(n int64) {
	end := g.coreCycle + n
	if g.ports != nil && g.engine == EngineEvent {
		if n > 0 {
			g.runPorts(end)
		}
		return
	}
	for g.coreCycle < end {
		g.Step()
	}
}

// SetEngine selects Run's engine (EngineEvent by default). The choice
// is observably irrelevant — Results, stall breakdowns,
// queue-occupancy samples and the back-pressure denominators they
// feed are byte-identical under either engine, an equivalence the
// property tests assert over every built-in workload, scenario and
// fuzzed spec — so EngineCycle exists purely as the slow, obviously
// correct reference. EngineCycle also turns SM sleeping off
// (core.SM.SetSleep), so every SM runs a full tick every cycle.
func (g *GPU) SetEngine(e Engine) {
	g.engine = e
	for _, sm := range g.sms {
		sm.SetSleep(e == EngineEvent)
	}
}

// Cycle returns the current core cycle.
func (g *GPU) Cycle() int64 { return g.coreCycle }

// SMs exposes the cores (read-only use).
func (g *GPU) SMs() []*core.SM { return g.sms }

// Partitions exposes the memory partitions; empty in Fig. 1 mode.
func (g *GPU) Partitions() []*l2.Partition { return g.parts }

// ResetStats zeroes every statistic in the system, marking the start
// of a measurement window (architectural state is untouched). Call it
// after a warm-up run.
func (g *GPU) ResetStats() {
	for _, sm := range g.sms {
		sm.ResetStats()
	}
	for _, p := range g.parts {
		p.ResetStats()
	}
	if g.reqX != nil {
		g.reqX.ResetStats()
	}
	if g.respX != nil {
		g.respX.ResetStats()
	}
}
