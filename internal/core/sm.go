package core

import (
	"fmt"
	"math"

	"repro/internal/cache"
	"repro/internal/config"
	"repro/internal/mem"
	"repro/internal/policy"
	"repro/internal/queue"
	"repro/internal/stats"
)

// maxPendingLoadsPerWarp bounds a warp's outstanding load instructions
// (the scoreboard's register budget).
const maxPendingLoadsPerWarp = 8

// Backend is the SM's port to the memory system below the L1: the
// request crossbar in baseline mode, or the infinite-bandwidth
// fixed-latency responder in Fig. 1 mode.
type Backend interface {
	// CanSend reports whether a SendMiss made now would be accepted.
	// The SM asks before building each miss packet, and a sleeping SM
	// whose miss queue holds work asks every cycle whether to wake, so
	// the answer must be exact whenever it is false: a false CanSend
	// for a SendMiss that would have succeeded loses that cycle's
	// forward progress. It must not allocate.
	CanSend() bool
	// SendMiss forwards an L1 miss or store downstream. A false
	// return (no capacity) stalls the L1 miss path.
	SendMiss(req *mem.Request) bool
	// MemStallCause reports which level of the hierarchy below the L1
	// is responsible for outstanding misses being slow *right now*:
	// the deepest level whose input queue is saturated, or
	// stats.StallL1Miss when nothing below reports back pressure
	// (pure miss-service latency). The SM charges memory-wait cycles
	// of its stall breakdown to this cause. Implementations memoize
	// per core cycle; the call must not allocate.
	MemStallCause() stats.StallCause
}

// loadTracker follows one load instruction's outstanding transactions.
type loadTracker struct {
	blockIdx  int64 // first dependent instruction index
	remaining int32 // transactions still in flight
	warp      int32 // owning warp id (readiness re-evaluation target)
}

// warp is one resident warp's execution state.
type warp struct {
	stream InstrStream
	cur    Instr // fetched but unissued instruction
	idx    int64 // dynamic instruction index: instructions issued so far
	// minBlock is a lower bound on the smallest blockIdx among active
	// trackers (math.MaxInt64 with none): while idx stays below it the
	// scheduler skips the scoreboard scan entirely. It is maintained
	// lazily — a completed tracker leaves it stale-low, which only
	// costs one extra scan, never a wrong answer.
	minBlock int64
	// blkBy caches the tracker found blocking this warp, making the
	// (very common) still-blocked recheck a single counter load. It
	// always points at one of the pending loads, and blocked() clears
	// it the moment the tracker completes — before pruneLoads could
	// recycle it — so it never dangles into the tracker free list.
	blkBy *loadTracker
	// loads[:nloads] are the outstanding load trackers: a warp never
	// has more than maxPendingLoadsPerWarp (evalWarp withholds
	// readiness at the limit), so the list lives in the warp.
	loads  [maxPendingLoadsPerWarp]*loadTracker
	id     int32
	nloads uint8
	hasCur bool
}

// pending returns the warp's outstanding load trackers.
func (w *warp) pending() []*loadTracker { return w.loads[:w.nloads] }

// fetch ensures w.cur holds the next instruction and returns it.
func (w *warp) fetch() *Instr {
	if !w.hasCur {
		w.stream.NextInto(&w.cur)
		w.hasCur = true
	}
	return &w.cur
}

// blocked reports whether the scoreboard forbids issuing the next
// instruction: some outstanding load's first consumer is reached.
func (w *warp) blocked() bool {
	if w.blkBy != nil {
		if w.blkBy.remaining > 0 {
			return true
		}
		w.blkBy = nil // completed; some other tracker may block now
	}
	if w.idx < w.minBlock {
		return false
	}
	min := int64(math.MaxInt64)
	for _, lt := range w.pending() {
		if lt.remaining == 0 {
			continue
		}
		if w.idx >= lt.blockIdx {
			w.blkBy = lt
			w.minBlock = 0 // force a rescan once lt completes
			return true
		}
		if lt.blockIdx < min {
			min = lt.blockIdx
		}
	}
	w.minBlock = min
	return false
}

// tx is one line transaction in the LDST pipeline.
type tx struct {
	req     *mem.Request
	tracker *loadTracker // nil for stores
}

// memDrain is an issued memory instruction feeding its transactions
// into the LDST queue, one per cycle.
type memDrain struct {
	w       *warp
	lines   []uint64
	next    int
	store   bool
	tracker *loadTracker
}

// hitDone is a scheduled L1-hit completion.
type hitDone struct {
	doneAt  int64
	tracker *loadTracker
}

// Stats aggregates one SM's counters.
type Stats struct {
	Cycles         int64
	Instructions   int64 // warp instructions issued
	MemInstrs      int64
	Transactions   int64 // coalesced line transactions
	StallNoWarp    int64 // cycles with no issuable warp
	StallLDSTFull  int64 // drain blocked: memory pipeline full
	StallMSHR      int64 // L1 head blocked: MSHR full/merge full
	StallMissQ     int64 // L1 head blocked: miss queue full
	StallResFail   int64 // L1 head blocked: no evictable line
	StallStoreQ    int64 // store blocked: miss queue full
	FillsProcessed int64
}

// IPC returns warp instructions per cycle.
func (s Stats) IPC() float64 {
	if s.Cycles == 0 {
		return 0
	}
	return float64(s.Instructions) / float64(s.Cycles)
}

// SM is one streaming multiprocessor.
type SM struct {
	id         int
	hitLatency int64 // cfg.L1.HitLatency
	issueWidth int   // cfg.Core.IssueWidth

	// warps lives in one contiguous value slice (not a slice of
	// pointers) so the scheduler's hot state walks cache lines, not
	// the heap. The slice is never reallocated, so *warp pointers
	// into it (memDrain.w) stay valid.
	warps      []warp
	lastIssued int // scheduler state (GTO stickiness / LRR pointer)

	// ready has bit w set when warp w holds a fetched instruction the
	// scoreboard allows issuing now (modulo the shared mem-issue
	// register, masked at pick time via memCur); memCur has bit w set
	// when warp w's fetched instruction is a memory op. Readiness only
	// changes at instruction issue and at load-tracker completion, so
	// evalWarp maintains the masks event-driven and the per-cycle
	// scheduler scan collapses to a few bit operations.
	ready  uint64
	memCur uint64

	// issuePol and bypass are the SM's policy values, resolved once
	// by config.Config.Policies (see internal/policy): issuePol
	// replaces the old hard-coded pickWarp; bypass, this SM's own
	// reuse table, decides per primary miss whether the line
	// allocates in the L1, and nil (the baseline) keeps the miss path
	// free of the bypass bookkeeping. mshrCap feeds the throttler's
	// back-pressure ratio without a per-pick config read.
	issuePol policy.IssuePolicy
	bypass   *policy.Bypass
	mshrCap  int

	l1      cache.Cache
	mshr    cache.MSHR
	ldstQ   queue.Queue[tx]
	missQ   queue.Queue[*mem.Request]
	respQ   queue.Queue[*mem.Packet]
	drain   memDrain // active memory instruction (single issue register)
	drainOn bool
	hitPipe queue.Ring[hitDone]

	backend  Backend
	nextID   *uint64
	lineSize uint64
	stats    Stats
	stalls   stats.StallBreakdown // per-cycle issue-slot attribution
	missLat  stats.Sampler        // L1 miss round-trip latency, core cycles

	pool     *mem.Pool                 // request/packet recycling (nil: plain allocation)
	trackers mem.FreeList[loadTracker] // loadTracker recycling, chunked
	// coalesceBuf holds the draining access's lines (one drain at a
	// time), in coalesceArr: a warp access coalesces to at most 32
	// lines.
	coalesceBuf []uint64
	coalesceArr [32]uint64

	// asleep marks a sleeping SM: its last full Tick made no progress
	// (progress stayed false), so every later full Tick would repeat
	// it exactly — the same blocked L1 head, the same full LDST queue,
	// the same empty issue — and change nothing but counters. Until
	// something wakes it, Tick takes the O(1) path that replays those
	// counter deltas (SkipIdle). Three things wake it: a
	// DeliverResponse; the cycle wakeAt, the earliest in-flight L1
	// hit's completion or the response-queue head's ReadyAt
	// (math.MaxInt64 with neither); and, when waitSend is set because
	// the miss queue holds work, the backend turning able to accept
	// it (Backend.CanSend). Nothing else can change what a full Tick
	// does: the L1 head unblocks only on a fill or a miss-queue pop,
	// the drain only on an LDST pop, and warp readiness and the issue
	// policy's inputs only on a fill, a hit, an issue or an MSHR
	// allocation — all of them progress. An idle SM and a hit-waiting
	// one are the cases with no blocked head and no active drain.
	asleep   bool
	waitSend bool
	wakeAt   int64
	// progress is set, during a full Tick, by every stage that pops,
	// pushes or issues: a retired response or hit, an LDST or
	// miss-queue pop, a drain push, an issued instruction.
	progress bool
	// headStall points at the Stats counter the L1 head blocked on
	// (StallMSHR, StallMissQ, StallResFail or StallStoreQ), nil while
	// the head is not known to be blocked. The blocking condition can
	// only lift on a fill or a miss-queue pop, which clear it, so until
	// then accessL1 charges the counter without probing the set again.
	// A sleeping tick charges it too.
	headStall *int64
	// noSleep turns sleeping, the headStall memo and the mid-run issue
	// fast path off (SetSleep): the cycle engine's oracle mode.
	noSleep bool
	// fullTicks counts full Ticks; with ticks it is the host-work
	// counter pair HostTicks reports. Not a statistic: ResetStats
	// leaves it alone.
	fullTicks int64

	// ticks counts cycles, skipped ones too, for the queues (queue.New).
	ticks int64
}

// NewSM builds SM id with the given warp instruction streams, which it
// copies (the caller may reuse the slice). nextID is the request-ID
// counter: shared by every SM and L2 partition of a full-hierarchy
// GPU, the SM's own in Fig. 1 mode. Everything the SM holds is sized
// here from the config — the SM, its warps, L1, MSHR table, queues and
// sampler take a handful of allocations — so its warm-up adds only
// ring growth and load-tracker chunks.
func NewSM(id int, cfg config.Config, streams []InstrStream, backend Backend, nextID *uint64) *SM {
	if len(streams) == 0 || len(streams) > cfg.Core.MaxWarpsPerSM {
		panic(fmt.Sprintf("core: warp count %d out of range 1..%d", len(streams), cfg.Core.MaxWarpsPerSM))
	}
	if len(streams) > config.MaxWarpsPerSM {
		panic(fmt.Sprintf("core: ready-mask scheduler supports at most %d warps per SM, got %d", config.MaxWarpsPerSM, len(streams)))
	}
	// Unknown policy names panic here exactly like the old scheduler
	// switch did — config.Validate rejects them long before a
	// simulation is built.
	pols, err := cfg.Policies()
	if err != nil {
		panic(fmt.Sprintf("core: %v", err))
	}
	warps := make([]warp, len(streams))
	for i, s := range streams {
		warps[i] = warp{id: int32(i), stream: s}
	}
	sm := &SM{
		id:         id,
		hitLatency: cfg.L1.HitLatency,
		issueWidth: cfg.Core.IssueWidth,
		warps:      warps,
		issuePol:   pols.Issue,
		mshrCap:    cfg.L1.MSHREntries,
		l1: cache.New(cache.Config{
			Sets: cfg.L1.Sets, Ways: cfg.L1.Ways, LineSize: cfg.L1.LineSize,
			Replacement: cfg.L1.Replacement, WriteBack: false,
			Seed: cfg.Seed + uint64(id)*104729,
		}),
		mshr:     cache.NewMSHR(cfg.L1.MSHREntries, cfg.L1.MSHRMaxMerge),
		backend:  backend,
		nextID:   nextID,
		lineSize: uint64(cfg.L1.LineSize),
		missLat:  stats.NewSampler(8192, 128),
	}
	sm.ldstQ = queue.New[tx]("sm.ldst", cfg.Core.MemPipelineWidth, &sm.ticks)
	sm.missQ = queue.New[*mem.Request]("sm.miss", cfg.L1.MissQueue, &sm.ticks)
	sm.respQ = queue.New[*mem.Packet]("sm.resp", cfg.Core.ResponseQueue, &sm.ticks)
	sm.coalesceBuf = sm.coalesceArr[:0]
	if pols.Bypass {
		sm.bypass = new(policy.Bypass)
	}
	// Prime the readiness masks. This fetches each warp's first
	// instruction; streams are private per warp, so consuming them at
	// construction instead of first issue changes nothing observable.
	for i := range warps {
		sm.evalWarp(i)
	}
	return sm
}

// UsePool wires a request/packet free list into the SM: the GPU's
// with the full hierarchy, the SM's port's in Fig. 1 mode. Without it
// the SM allocates normally.
func (s *SM) UsePool(p *mem.Pool) { s.pool = p }

// DeliverResponse accepts a fill response (the response crossbar's
// sink and the fixed-latency backend's delivery port). A false return
// back-pressures the network.
func (s *SM) DeliverResponse(pkt *mem.Packet) bool {
	if !s.respQ.Push(pkt) {
		return false
	}
	s.asleep = false
	return true
}

// Stats returns a copy of the SM counters.
func (s *SM) Stats() Stats { return s.stats }

// StallStack returns a copy of the SM's per-cycle issue-slot
// attribution. Its Total always equals Stats().Cycles: every cycle is
// charged to exactly one cause.
func (s *SM) StallStack() stats.StallBreakdown { return s.stalls }

// CacheStats returns the L1D tag-array counters.
func (s *SM) CacheStats() cache.Stats { return s.l1.Stats() }

// MSHRStats returns the L1 MSHR counters.
func (s *SM) MSHRStats() cache.MSHRStats { return s.mshr.Stats() }

// MissLatency samples the L1-miss round trip (miss issue → fill).
func (s *SM) MissLatency() *stats.Sampler { return &s.missLat }

// MissQueueUsage exposes the L1 miss-queue occupancy tracker.
func (s *SM) MissQueueUsage() *stats.QueueUsage { return s.missQ.Usage() }

// LDSTUsage exposes the memory-pipeline occupancy tracker.
func (s *SM) LDSTUsage() *stats.QueueUsage { return s.ldstQ.Usage() }

// Pending returns in-flight work items, for drain checks in tests.
func (s *SM) Pending() int {
	n := s.ldstQ.Len() + s.missQ.Len() + s.respQ.Len() + s.mshr.Used() + s.hitPipe.Len()
	if s.drainOn {
		n += len(s.drain.lines) - s.drain.next
	}
	return n
}

// SetSleep turns sleeping on (the default) or off. With it off every
// Tick is a full one and every instruction takes the full issue path,
// so a run is the per-cycle reference the sleeping path and the
// mid-run issue fast path are checked against (sim.EngineCycle).
func (s *SM) SetSleep(on bool) {
	s.noSleep = !on
	if !on {
		s.asleep = false
		s.headStall = nil
	}
}

// HostTicks returns the SM's host-work counters: the full Ticks it
// executed and the cycles it advanced through, sleeping ticks and
// Fig. 1's skipped spans included. They measure the simulator, not
// the simulated machine, so they stay out of Stats and Results.
func (s *SM) HostTicks() (full, cycles int64) { return s.fullTicks, s.ticks }

// SleepUntil reports the SM's next interesting cycle — the first
// cycle at which a full Tick could do anything a SkipIdle would not.
// An awake SM, and a sleeping one waiting on the backend to accept
// its miss queue's head, report 0: "tick me every cycle" (Tick still
// takes the O(1) path while the backend refuses). Otherwise a
// sleeping SM reports its wake cycle: the earliest in-flight L1 hit's
// completion or the response-queue head's ReadyAt, or math.MaxInt64
// when only a DeliverResponse can wake it. Ticks strictly before the
// returned cycle are exactly SkipIdle ticks, which is what lets a
// Fig. 1 per-SM loop (sim's runPorts) batch them.
func (s *SM) SleepUntil() int64 {
	if !s.asleep || s.waitSend {
		return 0
	}
	return s.wakeAt
}

// SkipIdle replays n sleeping ticks in one call: the exact counter
// deltas of n Ticks that make no progress — cycles, the no-warp stall,
// the counter the L1 head is blocked on (if any), the LDST-full stall
// while a drain is active, stall attribution and the tick count. The
// caller must ensure the SM is asleep for the whole span (it is
// ticked before SleepUntil and receives no response). The stall cause
// is evaluated once: a span longer than one tick is skipped only in
// Fig. 1 mode, whose fixed-latency backend has a constant
// memory-stall cause.
func (s *SM) SkipIdle(n int64) {
	s.stats.Cycles += n
	s.stats.StallNoWarp += n
	if s.headStall != nil {
		*s.headStall += n
	}
	if s.drainOn {
		s.stats.StallLDSTFull += n
	}
	s.stalls.AddN(s.stallCause(), n)
	s.ticks += n
}

// Tick advances the SM by one core cycle. A sleeping SM that nothing
// has woken replays its last tick's counter deltas in O(1); otherwise
// Tick runs every pipeline stage and, if none of them made progress,
// puts the SM to sleep.
func (s *SM) Tick(cycle int64) {
	if s.asleep {
		if cycle < s.wakeAt && !(s.waitSend && s.backend.CanSend()) {
			s.SkipIdle(1)
			return
		}
		s.asleep = false
	}
	s.fullTicks++
	s.progress = false
	s.stats.Cycles++
	// Each stage runs only when it has work, which it takes as given.
	if !s.respQ.Empty() {
		s.processResponses(cycle)
	}
	if !s.hitPipe.Empty() {
		s.completeHits(cycle)
	}
	if s.headStall != nil || !s.ldstQ.Empty() {
		s.accessL1(cycle)
	}
	if !s.missQ.Empty() {
		s.forwardMisses()
	}
	if s.drainOn {
		s.drainMemInstr()
	}
	s.issue(cycle)
	s.ticks++
	if !s.progress && !s.noSleep {
		s.sleep()
	}
}

// sleep puts the SM to sleep after a full Tick that made no progress,
// recording what can wake it.
func (s *SM) sleep() {
	s.asleep = true
	s.waitSend = !s.missQ.Empty()
	s.wakeAt = math.MaxInt64
	if h, ok := s.hitPipe.Peek(); ok {
		s.wakeAt = h.doneAt
	}
	if pkt, ok := s.respQ.Peek(); ok && pkt.ReadyAt < s.wakeAt {
		s.wakeAt = pkt.ReadyAt
	}
}

// processResponses applies one fill per cycle: the L1 fill port.
func (s *SM) processResponses(cycle int64) {
	pkt, _ := s.respQ.Peek()
	if pkt.ReadyAt > cycle {
		return
	}
	s.respQ.Pop()
	s.progress = true
	s.headStall = nil // the fill can free an MSHR entry or an L1 way
	line := pkt.Req.LineAddr()
	if !pkt.Req.NoFill {
		s.l1.Fill(line, cycle, false)
	}
	for _, r := range s.mshr.Release(line) {
		if lt, ok := r.Meta.(*loadTracker); ok && lt != nil {
			lt.remaining--
			if lt.remaining == 0 {
				s.evalWarp(int(lt.warp))
			}
		}
		s.missLat.Add(float64(cycle - r.IssueCycle))
		// The released request's last reference dies here (the
		// response packet's Req is the primary, also in this list).
		s.pool.PutRequest(r)
	}
	s.pool.PutPacket(pkt)
	s.stats.FillsProcessed++
}

// completeHits retires L1 hits whose latency elapsed.
func (s *SM) completeHits(cycle int64) {
	for {
		h, ok := s.hitPipe.Peek()
		if !ok || h.doneAt > cycle {
			return
		}
		s.hitPipe.Pop()
		s.progress = true
		h.tracker.remaining--
		if h.tracker.remaining == 0 {
			s.evalWarp(int(h.tracker.warp))
		}
	}
}

// accessL1 services the LDST queue head against the L1: one access
// per cycle. Structural failures leave the head in place (the
// "reservation failure" stall of §I implication ②) and are charged
// through blockHead, which remembers the counter so the retries that
// follow skip the probes until a fill or a miss-queue pop.
func (s *SM) accessL1(cycle int64) {
	if s.headStall != nil {
		*s.headStall++
		return
	}
	t, _ := s.ldstQ.Peek()
	line := t.req.LineAddr()

	// Feasibility is tested with non-counting probes; the counting
	// Lookup happens exactly once, when the access is consumed.
	if t.tracker == nil { // store: write-through, no-allocate
		if s.missQ.Full() {
			s.blockHead(&s.stats.StallStoreQ)
			return
		}
		s.l1.Lookup(line, true, cycle)
		t.req.IssueCycle = cycle
		s.missQ.Push(t.req)
		s.popHead()
		return
	}

	switch s.l1.Probe(line) {
	case cache.Hit:
		s.l1.Lookup(line, false, cycle)
		s.hitPipe.Push(hitDone{doneAt: cycle + s.hitLatency, tracker: t.tracker})
		s.popHead()
		// An L1 hit never leaves the core: the request retires here
		// (only its tracker lives on, in the hit pipe).
		s.pool.PutRequest(t.req)
	case cache.HitReserved:
		s.mergeHead(t.req, line, cycle)
	case cache.Miss:
		if s.bypass != nil && s.mshr.Lookup(line) != nil {
			// A bypassed line holds no Reserved tag, so a secondary
			// miss on it probes Miss while the MSHR already tracks the
			// line (unreachable with fill-always). Merge like the
			// HitReserved arm instead of allocating a second entry.
			s.mergeHead(t.req, line, cycle)
			return
		}
		if s.mshr.Full() {
			s.blockHead(&s.stats.StallMSHR)
			return
		}
		if s.missQ.Full() {
			s.blockHead(&s.stats.StallMissQ)
			return
		}
		// A head that blocks below on a reservation failure has had
		// ShouldFill answer true, and the table answers true again
		// without writing state (the line's tag is already in it), so skipping the retried call while the
		// head stays blocked, or repeating it, changes nothing.
		fill := s.bypass == nil || s.bypass.ShouldFill(line)
		if fill && !s.l1.CanReserve(line) {
			s.blockHead(&s.stats.StallResFail)
			return
		}
		s.l1.Lookup(line, false, cycle)
		if fill {
			if _, _, ok := s.l1.Reserve(line, cycle); !ok {
				panic("core: CanReserve lied")
			}
		} else {
			// The fill is routed around the L1: no way is reserved and
			// the response will not install the line. The request
			// carries the decision so processResponses (and nothing
			// downstream) can tell the two kinds of fills apart.
			t.req.NoFill = true
		}
		if res := s.mshr.Allocate(line, t.req, cycle); res != cache.AllocNew {
			panic(fmt.Sprintf("core: expected fresh L1 MSHR entry, got %v", res))
		}
		t.req.IssueCycle = cycle
		s.missQ.Push(t.req)
		s.popHead()
	}
}

// mergeHead merges the L1 head's load req, a secondary access to the
// in-flight line, into the line's MSHR entry, or blocks the head while
// the entry cannot take another merge.
func (s *SM) mergeHead(req *mem.Request, line uint64, cycle int64) {
	if !s.mshr.CanMerge(line) {
		s.blockHead(&s.stats.StallMSHR)
		return
	}
	s.l1.Lookup(line, false, cycle)
	if res := s.mshr.Allocate(line, req, cycle); res != cache.AllocMerged {
		panic(fmt.Sprintf("core: expected L1 MSHR merge, got %v", res))
	}
	req.IssueCycle = cycle
	s.popHead()
}

// blockHead charges a blocked L1 head to counter c and, unless
// sleeping is off, remembers c as headStall.
func (s *SM) blockHead(c *int64) {
	*c++
	if !s.noSleep {
		s.headStall = c
	}
}

// popHead consumes the L1 head.
func (s *SM) popHead() {
	s.ldstQ.Pop()
	s.progress = true
}

// forwardMisses hands one miss-queue entry to the backend per cycle.
// Asking CanSend first keeps a blocked miss queue from building and
// discarding a packet every cycle.
func (s *SM) forwardMisses() {
	req, _ := s.missQ.Peek()
	if !s.backend.CanSend() || !s.backend.SendMiss(req) {
		return // network back pressure
	}
	s.missQ.Pop()
	s.progress = true
	s.headStall = nil // a full miss queue has room again
}

// drainMemInstr feeds the active memory instruction's transactions
// into the LDST queue, one per cycle.
func (s *SM) drainMemInstr() {
	d := &s.drain
	if s.ldstQ.Full() {
		s.stats.StallLDSTFull++
		return
	}
	addr := d.lines[d.next]
	*s.nextID++
	req := s.pool.GetRequest()
	*req = mem.Request{
		ID: *s.nextID, Addr: addr, LineSize: s.lineSize,
		CoreID: s.id, WarpID: int(d.w.id),
	}
	if d.store {
		req.Kind = mem.Store
	} else {
		req.Kind = mem.Load
		req.Meta = d.tracker
	}
	s.ldstQ.Push(tx{req: req, tracker: d.tracker})
	s.progress = true
	s.stats.Transactions++
	d.next++
	if d.next == len(d.lines) {
		s.drainOn = false
	}
}

// issue runs the warp scheduler: up to IssueWidth warps issue one
// instruction each, selected from the ready mask. A compute
// instruction from the middle of a batched run whose successor stays
// below the warp's minBlock issues as counter updates: a picked warp
// has no blkBy and blocked() answers false there, so issueOn and
// evalWarp would change nothing else. Sleeping off turns this off.
func (s *SM) issue(cycle int64) {
	issued := 0
	var issuedNow uint64 // warps already issued this cycle
	for slot := 0; slot < s.issueWidth; slot++ {
		cand := s.ready &^ issuedNow
		if s.drainOn {
			cand &^= s.memCur // single mem-issue register per SM
		}
		if cand == 0 {
			break
		}
		// Pick is a pure function of the mask and the context (the
		// throttler's -1 included), so a sleeping SM, which never calls
		// it, misses no policy state change.
		wid := s.issuePol.Pick(cand, policy.IssueCtx{
			LastIssued: s.lastIssued, MemMask: s.memCur,
			MSHRUsed: s.mshr.Used(), MSHRCap: s.mshrCap,
		})
		if wid < 0 {
			break // policy throttled the slot: issue nothing
		}
		if w := &s.warps[wid]; w.cur.Run > 1 && w.idx+1 < w.minBlock && !s.noSleep {
			w.cur.Run--
			w.idx++
			s.stats.Instructions++
		} else {
			s.issueOn(w, cycle)
			s.evalWarp(wid)
		}
		issuedNow |= uint64(1) << uint(wid)
		s.lastIssued = wid
		issued++
	}
	if issued == 0 {
		s.stats.StallNoWarp++
		s.stalls.Add(s.stallCause())
	} else {
		s.progress = true
		s.stalls.Add(stats.StallIssue)
	}
}

// stallCause classifies a zero-issue cycle. Outstanding L1 misses
// dominate every local condition: while the MSHR holds entries, the
// warps that could make progress are waiting on the hierarchy below,
// and the backend names the deepest congested level. With nothing
// below the L1, a busy local memory pipeline is the structural
// bottleneck; otherwise the wait is a pure dependency (an L1 hit in
// flight, charged to the scoreboard).
func (s *SM) stallCause() stats.StallCause {
	switch {
	case s.mshr.Used() > 0:
		return s.backend.MemStallCause()
	case s.drainOn || !s.ldstQ.Empty() || !s.missQ.Empty() || !s.respQ.Empty():
		return stats.StallMemPipe
	default:
		return stats.StallScoreboard
	}
}

// evalWarp recomputes warp wid's readiness bits. It must run after
// anything that can change them: instruction issue (new fetched cur,
// possibly a new tracker) and load-tracker completion (which can
// unblock the scoreboard or free pending-load budget). The shared
// mem-issue register (drainOn) is deliberately NOT consulted here —
// it flips mid-cycle, so the scheduler masks memCur at pick time.
func (s *SM) evalWarp(wid int) {
	bit := uint64(1) << uint(wid)
	s.ready &^= bit
	s.memCur &^= bit
	w := &s.warps[wid]
	if w.blocked() {
		return
	}
	in := w.fetch()
	if in.Kind == Mem {
		s.memCur |= bit
		if !in.Store && w.nloads >= maxPendingLoadsPerWarp {
			s.pruneLoads(w)
			if w.nloads >= maxPendingLoadsPerWarp {
				return // pending-load (scoreboard register) budget exhausted
			}
		}
	}
	s.ready |= bit
}

// pruneLoads drops w's completed trackers, recycling them.
func (s *SM) pruneLoads(w *warp) {
	kept := w.loads[:0]
	for _, lt := range w.pending() {
		if lt.remaining > 0 {
			kept = append(kept, lt)
		} else {
			s.trackers.Put(lt)
		}
	}
	w.nloads = uint8(len(kept))
}

// issueOn issues warp w's fetched instruction.
func (s *SM) issueOn(w *warp, cycle int64) {
	in := &w.cur
	if in.Run > 1 {
		// Mid-run compute instruction: consume one unit and keep the
		// batched Instr current — no stream call until the run ends.
		in.Run--
	} else {
		w.hasCur = false
	}
	w.idx++
	s.stats.Instructions++
	if in.Kind != Mem {
		return
	}
	s.stats.MemInstrs++
	// The stream invalidates in.Lines on the warp's next fetch, so the
	// drain works from an SM-owned copy.
	s.coalesceBuf = append(s.coalesceBuf[:0], in.Lines...)
	lines := s.coalesceBuf
	if len(lines) == 0 {
		return
	}
	s.drain = memDrain{w: w, lines: lines, store: in.Store}
	if !in.Store {
		dep := in.DepDist
		if dep < 1 {
			dep = 1
		}
		// Completed trackers are dead weight for the scoreboard scan
		// and would otherwise accumulate in warps that never hit the
		// pending-load limit; prune before tracking another load.
		// (Safe here: blocked() just returned false, so w.blkBy is nil
		// and cannot dangle into the recycled trackers.)
		s.pruneLoads(w)
		// The load was instruction w.idx-1; dep subsequent instructions
		// are independent, so the first dependent one is at w.idx-1+dep+1.
		lt := s.trackers.Get()
		*lt = loadTracker{remaining: int32(len(lines)), blockIdx: w.idx + int64(dep), warp: w.id}
		w.loads[w.nloads] = lt
		w.nloads++
		if lt.blockIdx < w.minBlock {
			w.minBlock = lt.blockIdx
		}
		s.drain.tracker = lt
	}
	s.drainOn = true
}

// ResetStats zeroes every SM counter, queue tracker and the miss
// latency sampler for a new measurement window. Architectural state
// (warps, tags, MSHRs, queue contents) is untouched.
func (s *SM) ResetStats() {
	s.stats = Stats{}
	s.stalls.Reset()
	s.l1.ResetStats()
	s.mshr.ResetStats()
	s.ldstQ.ResetUsage()
	s.missQ.ResetUsage()
	s.respQ.ResetUsage()
	s.missLat.Reset()
}
