// Package sim assembles the full GPU — SIMT cores, request/response
// crossbars, L2 memory partitions and DRAM channels — and drives the
// four clock domains. It also provides the Fig. 1 apparatus: a
// fixed-latency, infinite-bandwidth memory backend that replaces the
// hierarchy below the L1.
//
// # Hot-path invariants
//
// The engine allocates nothing in steady state and never spends time
// on provably frozen components:
//
//   - All mem.Request and mem.Packet values are drawn from one
//     per-GPU free-list pool (mem.Pool) and recycled at their
//     retirement points; see the pool's ownership protocol.
//   - Run's default engine (EngineEvent) is a next-event scheduler.
//     Each component reports its next interesting cycle — the first
//     cycle of its own clock domain at which a Tick could do anything
//     beyond counting itself. Concretely: an SM reports
//     math.MaxInt64 while idle (only a response delivery wakes it)
//     and the oldest in-flight L1 hit's completion while hit-waiting
//     (core.SM.SleepUntil); a DRAM channel with an empty scheduler
//     queue reports the earlier of its oldest in-flight access's
//     completion and its refresh timer (dram.Channel.NextEvent); an
//     L2 partition with empty queues reports its earliest hit/fill
//     pipeline completion (l2.Partition.NextEvent); a crossbar
//     reports math.MaxInt64 once empty (icnt.Crossbar.NextEvent); the
//     Fig. 1 fixed-latency backend reports the earliest scheduled
//     delivery from a hierarchical timing wheel (sched.Wheel). While
//     any queue holds work the component reports 0 — "tick me every
//     cycle" — because queue interactions are not frozen. When every
//     SM is asleep, Run converts each domain's next event into a
//     core-cycle bound with exact rational clock arithmetic
//     (sched.Domain.StepsUntil) and jumps to the minimum (idleSpan).
//   - Queue occupancy is not sampled cycle by cycle: each component
//     counts its ticks, and each queue charges the ticks since its last
//     change at the old length when its length changes or is read
//     (queue.Queue) — exactly the per-cycle samples, at a cost that
//     follows the traffic, not the clock.
//   - A skipped span accounts the exact statistics stepping it would
//     have produced: core.SM.SkipIdle batch-charges cycle counts,
//     no-warp stalls and stall attribution, and every component's
//     tick count advances by the span (SkipIdle, SkipTicks), with
//     per-domain tick counts from the same phase accumulators the
//     per-cycle loop uses, so frozen queues are charged the span at
//     their unchanged lengths. Reports are therefore byte-identical
//     under EngineEvent and EngineCycle — the per-cycle reference
//     loop, kept compiled and tested as the oracle (SetEngine); the
//     equivalence property tests and the golden files pin this.
//
// Determinism is unaffected: a GPU instance owns all of its state, so
// reports are bit-identical at any experiment-engine parallelism, and
// golden-output tests (internal/exp/testdata) pin the exact bytes.
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
// Results.Stalls, cmd/bottleneck and gpusim -stalls. The categories:
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
// (memStallCause), and the quiescence fast paths batch-charge skipped
// spans (core.SM.SkipIdle), so attribution respects both the
// allocation budget and the idle-skipping invariants above. The sum of
// a breakdown's categories is exactly the SM's cycle count; merged
// GPU-wide it is cycles × SMs, an invariant the sim tests enforce for
// every built-in workload.
package sim

import (
	"fmt"
	"math"

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
	// EngineEvent (the default) is the next-event scheduler: Run
	// batch-skips spans in which every component is provably frozen,
	// jumping straight to the minimum next interesting cycle across
	// SMs, crossbars, L2 partitions, DRAM channels and (in Fig. 1
	// mode) the fixed-latency delivery wheel, charging the skipped
	// cycles through the exact batch statistics paths.
	EngineEvent Engine = iota
	// EngineCycle is the per-cycle reference loop: every component
	// ticks on every cycle of its clock domain. It is kept compiled
	// and tested as the oracle the event engine is checked against —
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
	fixed *fixedBackend // non-nil in Fig. 1 mode
	pool  *mem.Pool     // request/packet free lists shared by every component

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
		cfg:  cfg,
		pool: mem.NewPool(),
		addrMap: dram.NewAddrMap(cfg.L2.LineSize, cfg.L2.Partitions,
			cfg.DRAM.RowBytes, cfg.DRAM.BanksPerChip),
		stallCauseAt: -1,
		icntDom:      sched.NewDomain(cfg.Clock.IcntMHz, cfg.Clock.CoreMHz),
		l2Dom:        sched.NewDomain(cfg.Clock.L2MHz, cfg.Clock.CoreMHz),
		dramDom:      sched.NewDomain(cfg.Clock.DRAMMHz, cfg.Clock.CoreMHz),
	}

	if cfg.FixedLatency.Enabled {
		g.fixed = &fixedBackend{latency: cfg.FixedLatency.Cycles, gpu: g}
	} else {
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
	for i := range g.sms {
		streams := make([]core.InstrStream, wl.WarpsPerSM())
		for w := range streams {
			streams[w] = wl.Stream(i, w, cfg.Seed, uint64(cfg.L1.LineSize))
		}
		var backend core.Backend
		if g.fixed != nil {
			backend = g.fixed
		} else {
			backend = realBackend{g, i}
		}
		g.sms[i] = core.NewSM(i, cfg, streams, backend, &g.nextID)
		g.sms[i].UsePool(g.pool)
	}
	return g, nil
}

// reqSink delivers request packets into L2 access queues.
type reqSink struct{ g *GPU }

func (s reqSink) Accept(dst int, pkt *mem.Packet) bool { return s.g.parts[dst].Accept(pkt) }

// respSink delivers response packets into SM response queues.
type respSink struct{ g *GPU }

func (s respSink) Accept(dst int, pkt *mem.Packet) bool { return s.g.sms[dst].DeliverResponse(pkt) }

// realBackend routes L1 misses into the request crossbar.
type realBackend struct {
	g  *GPU
	sm int
}

// SendMiss implements core.Backend.
func (b realBackend) SendMiss(req *mem.Request) bool {
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
func (b realBackend) MemStallCause() stats.StallCause { return b.g.memStallCause() }

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

// fixedBackend answers every L1 load miss after exactly latency core
// cycles with unlimited bandwidth; stores vanish instantly. This is
// the Fig. 1 "all L1 miss responses returned with a fixed and
// pre-determined latency" apparatus.
type fixedBackend struct {
	latency int64
	gpu     *GPU
	// pending is a per-SM FIFO of scheduled deliveries (constant
	// latency keeps each FIFO sorted by ReadyAt).
	pending []queue.Ring[*mem.Packet]
	// inflight counts undelivered responses across all FIFOs.
	inflight int
	// wheel holds exactly one "attention due" hint per non-empty FIFO
	// — at the head packet's ReadyAt, or at the next cycle after a
	// refused delivery — so tick visits only SMs with due heads
	// instead of scanning every FIFO every cycle. The invariant:
	// SendMiss arms a hint when it makes a FIFO non-empty; tick
	// consumes the popped hint and re-arms before every break that
	// leaves the FIFO non-empty. Wheel occupancy is therefore bounded
	// by the SM count, keeping the steady state allocation-free.
	wheel  sched.Wheel
	dueBuf []int32 // PopDue scratch
}

// MemStallCause implements core.Backend: the fixed-latency responder
// has no hierarchy to congest, so every memory wait is pure latency.
func (b *fixedBackend) MemStallCause() stats.StallCause { return stats.StallL1Miss }

// SendMiss implements core.Backend; it never back-pressures.
func (b *fixedBackend) SendMiss(req *mem.Request) bool {
	if req.Kind != mem.Load {
		// Stores vanish here: this call is the request's last
		// reference (the L1 forwards stores without MSHR tracking).
		b.gpu.pool.PutRequest(req)
		return true
	}
	if b.pending == nil {
		b.pending = make([]queue.Ring[*mem.Packet], len(b.gpu.sms))
		// One hint per SM bounds same-cycle wheel occupancy.
		b.wheel.Preallocate(len(b.gpu.sms))
	}
	pkt := b.gpu.pool.GetPacket()
	*pkt = mem.Packet{
		Req: req, IsResponse: true, Dst: req.CoreID,
		SizeBytes: mem.ResponsePacketBytes(req),
		ReadyAt:   b.gpu.coreCycle + b.latency,
	}
	q := &b.pending[req.CoreID]
	if q.Empty() {
		b.wheel.Schedule(pkt.ReadyAt, int32(req.CoreID))
	}
	q.Push(pkt)
	b.inflight++
	return true
}

// tick delivers every due response (unlimited bandwidth); a full SM
// response queue retries next cycle. Only SMs with a due hint are
// visited; delivery order within an SM is FIFO, and order across SMs
// is irrelevant (disjoint response queues).
func (b *fixedBackend) tick(cycle int64) {
	// Called unconditionally (even with nothing scheduled): PopDue on
	// an empty wheel just advances its base, which keeps subsequent
	// Schedules in the fine-grained level-0 range.
	b.dueBuf = b.wheel.PopDue(cycle, b.dueBuf[:0])
	for _, smID := range b.dueBuf {
		q := &b.pending[smID]
		for {
			pkt, ok := q.Peek()
			if !ok {
				break
			}
			if pkt.ReadyAt > cycle {
				b.wheel.Schedule(pkt.ReadyAt, smID) // re-arm for the next head
				break
			}
			if !b.gpu.sms[smID].DeliverResponse(pkt) {
				b.wheel.Schedule(cycle+1, smID) // retry next cycle
				break
			}
			q.Pop()
			b.inflight--
		}
	}
}

// nextReady returns the earliest cycle at which tick could deliver
// (or retry) anything, or ok=false when nothing is scheduled. O(1):
// the wheel caches its minimum.
func (b *fixedBackend) nextReady() (int64, bool) {
	return b.wheel.Earliest()
}

// Step advances the system by one core clock cycle, ticking the other
// domains in rational proportion (e.g. DRAM at 924 MHz vs core at
// 700 MHz). Downstream domains tick first so back pressure resolves
// before new work enters.
func (g *GPU) Step() {
	if g.fixed == nil {
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
	} else {
		g.fixed.tick(g.coreCycle)
	}
	for _, sm := range g.sms {
		sm.Tick(g.coreCycle)
	}
	g.coreCycle++
}

// Run advances the system by n core cycles. Under EngineEvent it
// batch-skips every span in which the whole system is provably frozen
// (idleSpan), charging skipped cycles through the exact batch
// statistics paths (skipSpan); under EngineCycle it steps each cycle.
// The engines are statistically indistinguishable by construction —
// only wall-clock time differs.
func (g *GPU) Run(n int64) {
	end := g.coreCycle + n
	if g.engine == EngineCycle {
		for g.coreCycle < end {
			g.Step()
		}
		return
	}
	for g.coreCycle < end {
		if k := g.idleSpan(end); k > 0 {
			g.skipSpan(k)
		} else {
			g.Step()
		}
	}
}

// idleSpan returns how many core cycles, starting at the current one,
// the whole system is provably frozen for: every SM asleep (idle or
// hit-waiting) and no downstream component's next interesting cycle
// inside the span. The result is capped so the span ends at end; zero
// means the next cycle must be stepped. During such a span no
// component's observable state changes except via the batch paths —
// in particular no response can be delivered (delivery requires a
// busy crossbar, a due L2/DRAM completion or a due fixed-latency
// delivery, all of which bound the span) — so queue fullness, and
// with it the memory-stall refinement, is constant across it.
func (g *GPU) idleSpan(end int64) int64 {
	wake := end
	for _, sm := range g.sms {
		su := sm.SleepUntil()
		if su <= g.coreCycle {
			return 0 // active SM: step
		}
		if su < wake {
			wake = su
		}
	}
	if g.fixed != nil {
		if next, ok := g.fixed.nextReady(); ok {
			if next <= g.coreCycle {
				return 0
			}
			if next < wake {
				wake = next
			}
		}
	} else {
		ev := int64(math.MaxInt64)
		for _, p := range g.parts {
			if e := p.Channel().NextEvent(); e < ev {
				ev = e
			}
		}
		if w := g.coreCycle + g.dramDom.StepsUntil(ev); w < wake {
			wake = w
		}
		ev = math.MaxInt64
		for _, p := range g.parts {
			if e := p.NextEvent(); e < ev {
				ev = e
			}
		}
		if w := g.coreCycle + g.l2Dom.StepsUntil(ev); w < wake {
			wake = w
		}
		ev = g.respX.NextEvent()
		if e := g.reqX.NextEvent(); e < ev {
			ev = e
		}
		if w := g.coreCycle + g.icntDom.StepsUntil(ev); w < wake {
			wake = w
		}
	}
	return wake - g.coreCycle
}

// skipSpan advances the system k core cycles in one batch. Every SM
// charges the span through SkipIdle (the memory-stall refinement is
// memoized once — queue fullness is frozen, so it equals what each
// stepped cycle would have computed); each derived domain advances
// its phase accumulator exactly as k per-cycle steps would and adds
// the ticks that elapse to its components' tick counts.
func (g *GPU) skipSpan(k int64) {
	for _, sm := range g.sms {
		sm.SkipIdle(k)
	}
	if g.fixed == nil {
		if n := g.dramDom.Advance(k); n > 0 {
			for _, p := range g.parts {
				p.Channel().SkipTicks(n)
			}
		}
		if n := g.l2Dom.Advance(k); n > 0 {
			for _, p := range g.parts {
				p.SkipTicks(n)
			}
		}
		if n := g.icntDom.Advance(k); n > 0 {
			g.respX.SkipTicks(n)
			g.reqX.SkipTicks(n)
		}
	}
	g.coreCycle += k
}

// SetEngine selects Run's engine (EngineEvent by default). The choice
// is observably irrelevant — Results, stall breakdowns,
// queue-occupancy samples and the back-pressure denominators they
// feed are byte-identical under either engine, an equivalence the
// property tests assert over every built-in workload, scenario and
// fuzzed spec — so EngineCycle exists purely as the slow, obviously
// correct reference.
func (g *GPU) SetEngine(e Engine) { g.engine = e }

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
