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
	remaining int   // transactions still in flight
	blockIdx  int64 // first dependent instruction index
	warp      int32 // owning warp id (readiness re-evaluation target)
}

// warp is one resident warp's execution state.
type warp struct {
	id     int
	stream InstrStream
	cur    Instr // fetched but unissued instruction
	hasCur bool
	idx    int64 // dynamic instruction index
	loads  []*loadTracker
	issued int64
	// minBlock is a lower bound on the smallest blockIdx among active
	// trackers (math.MaxInt64 with none): while idx stays below it the
	// scheduler skips the scoreboard scan entirely. It is maintained
	// lazily — a completed tracker leaves it stale-low, which only
	// costs one extra scan, never a wrong answer.
	minBlock int64
	// blkBy caches the tracker found blocking this warp, making the
	// (very common) still-blocked recheck a single counter load. It
	// always points at one of w.loads, and blocked() clears it the
	// moment the tracker completes — before pruneLoads could recycle
	// it — so it never dangles into the tracker free list.
	blkBy *loadTracker
}

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
	for _, lt := range w.loads {
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
	id  int
	cfg config.Config

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

	// issuePol and fillPol are the SM's resolved policy seams (see
	// internal/policy): issuePol replaces the old hard-coded pickWarp,
	// fillPol decides per primary miss whether the line allocates in
	// the L1. mayBypass caches fillPol.MayBypass() so the baseline miss
	// path skips the bypass bookkeeping entirely; mshrCap feeds the
	// throttler's back-pressure ratio without a per-pick config read.
	issuePol  policy.IssuePolicy
	fillPol   policy.FillPolicy
	mayBypass bool
	mshrCap   int

	l1      *cache.Cache
	mshr    *cache.MSHR
	ldstQ   *queue.Queue[tx]
	missQ   *queue.Queue[*mem.Request]
	respQ   *queue.Queue[*mem.Packet]
	drain   memDrain // active memory instruction (single issue register)
	drainOn bool
	hitPipe queue.Ring[hitDone]

	backend  Backend
	nextID   *uint64
	lineSize uint64
	stats    Stats
	stalls   stats.StallBreakdown // per-cycle issue-slot attribution
	missLat  *stats.Sampler       // L1 miss round-trip latency, core cycles

	pool        *mem.Pool      // request/packet recycling (nil: plain allocation)
	coalesceBuf []uint64       // scratch for the coalescer (one drain at a time)
	trackerFree []*loadTracker // loadTracker free list

	// idle marks the SM quiescent: every queue and pipe is empty, no
	// drain is active, and no warp could issue — a state only a
	// DeliverResponse can change. While idle, Tick takes the O(1)
	// fast path that applies exactly the stat deltas a full tick
	// would (Cycles, StallNoWarp, the tick count).
	idle bool

	// sleepUntil is the hit-wait analogue of idle: every queue is
	// empty and no warp can issue, but the hit pipe holds in-flight L1
	// hits, the oldest completing at sleepUntil. Until then (or until
	// a response delivery clears it) a full Tick is a provable no-op,
	// so Tick takes the same O(1) fast path. Zero means "no hit-wait"
	// — any value <= the current cycle is treated as active.
	sleepUntil int64

	// ticks counts cycles, skipped ones too, for the queues (queue.New).
	ticks int64
}

// NewSM builds SM id with the given warp instruction streams. nextID
// is the request-ID counter: shared by every SM and L2 partition of a
// full-hierarchy GPU, the SM's own in Fig. 1 mode.
func NewSM(id int, cfg config.Config, streams []InstrStream, backend Backend, nextID *uint64) *SM {
	if len(streams) == 0 || len(streams) > cfg.Core.MaxWarpsPerSM {
		panic(fmt.Sprintf("core: warp count %d out of range 1..%d", len(streams), cfg.Core.MaxWarpsPerSM))
	}
	if len(streams) > 64 {
		panic(fmt.Sprintf("core: ready-mask scheduler supports at most 64 warps per SM, got %d", len(streams)))
	}
	// The issue seam defaults to the classic scheduler knob; a
	// non-empty Policy.Issue (e.g. "throttle") overrides it. Unknown
	// names panic here exactly like the old scheduler switch did —
	// config.Validate rejects them long before a simulation is built.
	issueName := cfg.Policy.Issue
	if issueName == "" {
		issueName = cfg.Core.Scheduler
	}
	issuePol, err := policy.NewIssuePolicy(issueName)
	if err != nil {
		panic(fmt.Sprintf("core: %v", err))
	}
	fillName := cfg.Policy.L1Fill
	if fillName == "" {
		fillName = policy.FillAlways
	}
	fillPol, err := policy.NewFillPolicy(fillName)
	if err != nil {
		panic(fmt.Sprintf("core: %v", err))
	}
	warps := make([]warp, len(streams))
	for i, s := range streams {
		warps[i] = warp{id: i, stream: s}
	}
	sm := &SM{
		id:        id,
		cfg:       cfg,
		warps:     warps,
		issuePol:  issuePol,
		fillPol:   fillPol,
		mayBypass: fillPol.MayBypass(),
		mshrCap:   cfg.L1.MSHREntries,
		l1: cache.New(cache.Config{
			Sets: cfg.L1.Sets, Ways: cfg.L1.Ways, LineSize: cfg.L1.LineSize,
			Replacement: cfg.L1.Replacement, WriteBack: false,
			Seed: cfg.Seed + uint64(id)*104729,
		}),
		mshr:        cache.NewMSHR(cfg.L1.MSHREntries, cfg.L1.MSHRMaxMerge),
		backend:     backend,
		nextID:      nextID,
		lineSize:    uint64(cfg.L1.LineSize),
		missLat:     stats.NewSampler(8192, 128),
		coalesceBuf: make([]uint64, 0, 32),
	}
	sm.ldstQ = queue.New[tx](fmt.Sprintf("sm%d.ldst", id), cfg.Core.MemPipelineWidth, &sm.ticks)
	sm.missQ = queue.New[*mem.Request](fmt.Sprintf("sm%d.miss", id), cfg.L1.MissQueue, &sm.ticks)
	sm.respQ = queue.New[*mem.Packet](fmt.Sprintf("sm%d.resp", id), cfg.Core.ResponseQueue, &sm.ticks)
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
	s.idle = false
	s.sleepUntil = 0
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
func (s *SM) MissLatency() *stats.Sampler { return s.missLat }

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

// SleepUntil reports the SM's next interesting cycle — the first
// cycle at which a full Tick could do anything a SkipIdle would not:
// math.MaxInt64 while idle (only a DeliverResponse wakes it), the
// oldest in-flight L1 hit's completion cycle while hit-waiting, and a
// value <= the current cycle (meaning "tick me every cycle")
// otherwise. Ticks strictly before the returned cycle are exactly
// SkipIdle ticks, which is what lets the event engine batch them.
func (s *SM) SleepUntil() int64 {
	if s.idle {
		return math.MaxInt64
	}
	return s.sleepUntil
}

// SkipIdle accounts n frozen cycles in one call: the exact stat
// deltas of n fast-path Ticks (cycle, no-warp-stall and tick counts,
// stall attribution) without executing them. The caller must ensure
// the SM stays frozen (idle, or hit-waiting short of SleepUntil) and
// receives no response in the skipped span. With outstanding L1 misses the span is charged to the
// backend's current memory-stall cause — an idle SM is by
// construction waiting on fills, and queue fullness below is frozen
// too, so the cause is constant across the span. With none (a pure
// hit-wait), the wait is a dependency on in-flight L1 hits, charged
// to the scoreboard exactly as a full tick's stallCause would.
func (s *SM) SkipIdle(n int64) {
	s.stats.Cycles += n
	s.stats.StallNoWarp += n
	cause := stats.StallScoreboard
	if s.mshr.Used() > 0 {
		cause = s.backend.MemStallCause()
	}
	s.stalls.AddN(cause, n)
	s.ticks += n
}

// Tick advances the SM by one core cycle.
func (s *SM) Tick(cycle int64) {
	if s.idle || cycle < s.sleepUntil {
		s.SkipIdle(1)
		return
	}
	s.sleepUntil = 0
	s.stats.Cycles++
	s.processResponses(cycle)
	s.completeHits(cycle)
	s.accessL1(cycle)
	s.forwardMisses()
	s.drainMemInstr()
	s.issue(cycle)
	s.ticks++
}

// processResponses applies one fill per cycle: the L1 fill port.
func (s *SM) processResponses(cycle int64) {
	pkt, ok := s.respQ.Peek()
	if !ok || pkt.ReadyAt > cycle {
		return
	}
	s.respQ.Pop()
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
		h.tracker.remaining--
		if h.tracker.remaining == 0 {
			s.evalWarp(int(h.tracker.warp))
		}
	}
}

// accessL1 services the LDST queue head against the L1: one access
// per cycle. Structural failures leave the head in place (the
// "reservation failure" stall of §I implication ②).
func (s *SM) accessL1(cycle int64) {
	t, ok := s.ldstQ.Peek()
	if !ok {
		return
	}
	line := t.req.LineAddr()

	// Feasibility is tested with non-counting probes; the counting
	// Lookup happens exactly once, when the access is consumed.
	if t.tracker == nil { // store: write-through, no-allocate
		if s.missQ.Full() {
			s.stats.StallStoreQ++
			return
		}
		s.l1.Lookup(line, true, cycle)
		t.req.IssueCycle = cycle
		s.missQ.Push(t.req)
		s.ldstQ.Pop()
		return
	}

	// The Hit arm has no feasibility gate, so the fused call commits
	// the hit in the same set scan that classifies the access;
	// HitReserved/Miss count nothing until their gates pass.
	switch s.l1.ProbeAndConsumeHit(line, false, cycle) {
	case cache.Hit:
		s.hitPipe.Push(hitDone{doneAt: cycle + s.cfg.L1.HitLatency, tracker: t.tracker})
		s.ldstQ.Pop()
		// An L1 hit never leaves the core: the request retires here
		// (only its tracker lives on, in the hit pipe).
		s.pool.PutRequest(t.req)
	case cache.HitReserved:
		if !s.mshr.CanMerge(line) {
			s.stats.StallMSHR++
			return
		}
		s.l1.Lookup(line, false, cycle)
		if res := s.mshr.Allocate(line, t.req, cycle); res != cache.AllocMerged {
			panic(fmt.Sprintf("core: expected L1 MSHR merge, got %v", res))
		}
		t.req.IssueCycle = cycle
		s.ldstQ.Pop()
	case cache.Miss:
		if s.mayBypass && s.mshr.Lookup(line) != nil {
			// A bypassed line holds no Reserved tag, so a secondary
			// miss on it probes Miss while the MSHR already tracks the
			// line (unreachable with fill-always). Merge like the
			// HitReserved arm instead of allocating a second entry.
			if !s.mshr.CanMerge(line) {
				s.stats.StallMSHR++
				return
			}
			s.l1.Lookup(line, false, cycle)
			if res := s.mshr.Allocate(line, t.req, cycle); res != cache.AllocMerged {
				panic(fmt.Sprintf("core: expected L1 MSHR merge, got %v", res))
			}
			t.req.IssueCycle = cycle
			s.ldstQ.Pop()
			return
		}
		if s.mshr.Full() {
			s.stats.StallMSHR++
			return
		}
		if s.missQ.Full() {
			s.stats.StallMissQ++
			return
		}
		fill := !s.mayBypass || s.fillPol.ShouldFill(line)
		if fill && !s.l1.CanReserve(line) {
			s.stats.StallResFail++
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
		s.ldstQ.Pop()
	}
}

// forwardMisses hands one miss-queue entry to the backend per cycle.
func (s *SM) forwardMisses() {
	req, ok := s.missQ.Peek()
	if !ok {
		return
	}
	if !s.backend.SendMiss(req) {
		return // network back pressure
	}
	s.missQ.Pop()
}

// drainMemInstr feeds the active memory instruction's transactions
// into the LDST queue, one per cycle.
func (s *SM) drainMemInstr() {
	if !s.drainOn {
		return
	}
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
		CoreID: s.id, WarpID: d.w.id,
	}
	if d.store {
		req.Kind = mem.Store
	} else {
		req.Kind = mem.Load
		req.Meta = d.tracker
	}
	s.ldstQ.Push(tx{req: req, tracker: d.tracker})
	s.stats.Transactions++
	d.next++
	if d.next == len(d.lines) {
		s.drainOn = false
	}
}

// issue runs the warp scheduler: up to IssueWidth warps issue one
// instruction each, selected from the ready mask.
func (s *SM) issue(cycle int64) {
	issued := 0
	var issuedNow uint64 // warps already issued this cycle
	for slot := 0; slot < s.cfg.Core.IssueWidth; slot++ {
		cand := s.ready &^ issuedNow
		if s.drainOn {
			cand &^= s.memCur // single mem-issue register per SM
		}
		if cand == 0 {
			break
		}
		wid := s.issuePol.Pick(cand, policy.IssueCtx{
			LastIssued: s.lastIssued, MemMask: s.memCur,
			MSHRUsed: s.mshr.Used(), MSHRCap: s.mshrCap,
		})
		if wid < 0 {
			break // policy throttled the slot: issue nothing
		}
		s.issueOn(&s.warps[wid], cycle)
		s.evalWarp(wid)
		issuedNow |= uint64(1) << uint(wid)
		s.lastIssued = wid
		issued++
	}
	if issued == 0 {
		s.stats.StallNoWarp++
		s.stalls.Add(s.stallCause())
		// Nothing issued and nothing in the queues: the SM is frozen
		// until either a response arrives (idle) or the oldest
		// in-flight L1 hit retires (hit-wait), so later Ticks can take
		// the fast path (same stats, none of the work). This holds for
		// a throttled zero-issue too: the policy's inputs (ready/memCur
		// masks, MSHR occupancy) only change through response delivery
		// or hit completion, both of which end the frozen span.
		if !s.drainOn && s.respQ.Empty() && s.ldstQ.Empty() && s.missQ.Empty() {
			if h, ok := s.hitPipe.Peek(); ok {
				s.sleepUntil = h.doneAt
			} else {
				s.idle = true
			}
		}
	} else {
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
		if !in.Store && len(w.loads) >= maxPendingLoadsPerWarp {
			s.pruneLoads(w)
			if len(w.loads) >= maxPendingLoadsPerWarp {
				return // pending-load (scoreboard register) budget exhausted
			}
		}
	}
	s.ready |= bit
}

// pruneLoads drops w's completed trackers, recycling them.
func (s *SM) pruneLoads(w *warp) {
	kept := w.loads[:0]
	for _, lt := range w.loads {
		if lt.remaining > 0 {
			kept = append(kept, lt)
		} else {
			s.trackerFree = append(s.trackerFree, lt)
		}
	}
	w.loads = kept
}

// getTracker returns a recycled or fresh loadTracker.
func (s *SM) getTracker() *loadTracker {
	if n := len(s.trackerFree); n > 0 {
		lt := s.trackerFree[n-1]
		s.trackerFree = s.trackerFree[:n-1]
		return lt
	}
	return &loadTracker{}
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
	w.issued++
	s.stats.Instructions++
	if in.Kind != Mem {
		return
	}
	s.stats.MemInstrs++
	if in.Lines != nil {
		// The stream pre-coalesced the access; the copy (into the
		// SM-owned buffer, since the stream invalidates in.Lines on
		// the warp's next fetch) replaces the per-lane reduction.
		s.coalesceBuf = append(s.coalesceBuf[:0], in.Lines...)
	} else {
		s.coalesceBuf = CoalesceInto(s.coalesceBuf, in.Lanes, s.lineSize)
	}
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
		lt := s.getTracker()
		*lt = loadTracker{remaining: len(lines), blockIdx: w.idx + int64(dep), warp: int32(w.id)}
		w.loads = append(w.loads, lt)
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
