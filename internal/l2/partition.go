// Package l2 models a memory partition: one slice of the shared,
// banked L2 cache paired with one DRAM channel, connected by the four
// bounded queues of GPGPU-Sim's memory partition (icnt→L2 access
// queue, L2→DRAM miss queue, DRAM→L2 return queue, L2→icnt response
// queue). The §III "L2 access queues are full for 46% of their usage
// lifetime" measurement reads this package's access-queue tracker.
package l2

import (
	"fmt"

	"repro/internal/cache"
	"repro/internal/config"
	"repro/internal/dram"
	"repro/internal/mem"
	"repro/internal/queue"
	"repro/internal/stats"
)

// Injector is the partition's port into the response crossbar.
type Injector interface {
	// Push injects a response packet at input port src; false means
	// the crossbar input buffer is full.
	Push(src int, pkt *mem.Packet) bool
}

// Stats counts partition events.
type Stats struct {
	Accesses         int64 // requests consumed from the access queue
	Hits             int64
	Misses           int64
	MSHRMerges       int64
	Writebacks       int64 // dirty victims sent to DRAM
	StallBankBusy    int64 // head blocked: target bank busy
	StallMSHR        int64 // head blocked: L2 MSHR full / merge full
	StallMissQ       int64 // head blocked: miss queue lacks space
	StallReservation int64 // head blocked: no evictable line in set
	StallRespQ       int64 // bank completion blocked: response queue full
	FillStalls       int64 // return-queue head blocked: no bank
	// InFullCycles counts L2 cycles the access queue was full at tick
	// time — the back pressure this partition exerts on its upstream
	// (the request crossbar's outputs block until a slot frees). It is
	// one of the per-level counters the stall-attribution stack
	// composes from.
	InFullCycles int64
}

// pipeOp is an access in flight in the L2 pipeline: the bank was
// occupied for the data-port transfer and the result emerges doneAt.
type pipeOp struct {
	doneAt int64
	pkt    *mem.Packet  // hit: response to emit
	fill   *mem.Request // fill: line returning from DRAM
}

// Partition is one L2 slice + DRAM channel.
type Partition struct {
	id  int
	cfg config.Config

	accessQ queue.Queue[*mem.Packet]  // icnt → L2 (Table I "L2 access queue")
	missQ   queue.Queue[*mem.Request] // L2 → DRAM (Table I "L2 miss queue")
	respQ   queue.Queue[*mem.Packet]  // L2 → icnt (Table I "L2 response queue")
	retQ    queue.Queue[*mem.Request] // DRAM → L2 fill return

	l2   cache.Cache
	mshr cache.MSHR
	// bankBusyUntil models each bank's data-port occupancy: a bank
	// accepts a new access only when free. Latency beyond occupancy
	// is pipelined (hitPipe/fillPipe).
	bankBusyUntil []int64
	// hitPipe and fillPipe hold in-flight accesses in doneAt order
	// (constant per-pipe latencies keep them sorted). New hits stall
	// when hitPipe is full, bounding pipeline registers.
	hitPipe  queue.Ring[pipeOp]
	fillPipe queue.Ring[pipeOp]
	chn      *dram.Channel

	// pendingResp holds responses produced by one fill, drained into
	// respQ one per cycle; bounded by the MSHR merge limit.
	pendingResp queue.Ring[*mem.Packet]

	resp       Injector
	portCycles int64
	lineShift  uint
	nextID     *uint64   // simulation-wide request id counter (writebacks)
	pool       *mem.Pool // request/packet recycling (nil: plain allocation)
	stats      Stats
	// ticks counts cycles for the queues (queue.New);
	// fullTicks counts the Ticks that ran (HostTicks).
	ticks     int64
	fullTicks int64
}

// New builds partition id. nextID is the shared request-id counter used
// for writeback requests the partition originates.
func New(id int, cfg config.Config, resp Injector, nextID *uint64) *Partition {
	ls := cfg.L2.LineSize
	// The L2 insertion/priority seam (see internal/policy) is the
	// tag array's pin threshold; the baseline's 0 leaves the array
	// byte-identical to the pre-seam code.
	pols, err := cfg.Policies()
	if err != nil {
		panic(fmt.Sprintf("l2: %v", err))
	}
	p := &Partition{
		id:  id,
		cfg: cfg,
		l2: cache.New(cache.Config{
			Sets: cfg.L2.Sets, Ways: cfg.L2.Ways, LineSize: ls,
			Replacement: cfg.L2.Replacement, WriteBack: true,
			Seed:    cfg.Seed + uint64(id)*7919,
			PinHits: pols.PinHits,
		}),
		mshr:          cache.NewMSHR(cfg.L2.MSHREntries, cfg.L2.MSHRMaxMerge),
		bankBusyUntil: make([]int64, cfg.L2.BanksPerPartition),
		resp:          resp,
		portCycles:    int64((ls + cfg.L2.DataPortBytes - 1) / cfg.L2.DataPortBytes),
		lineShift:     uint(trailingZeros(ls)),
		nextID:        nextID,
	}
	p.accessQ = queue.New[*mem.Packet]("l2.access", cfg.L2.AccessQueue, &p.ticks)
	p.missQ = queue.New[*mem.Request]("l2.miss", cfg.L2.MissQueue, &p.ticks)
	p.respQ = queue.New[*mem.Packet]("l2.resp", cfg.L2.ResponseQueue, &p.ticks)
	p.retQ = queue.New[*mem.Request]("l2.ret", cfg.L2.DRAMReturnQueue, &p.ticks)
	p.chn = dram.NewChannel(cfg.DRAM, ls, cfg.L2.Partitions, retSink{p})
	return p
}

// UsePool wires the simulation-wide request/packet free lists into
// the partition and its DRAM channel. Without it both allocate
// normally.
func (p *Partition) UsePool(pool *mem.Pool) {
	p.pool = pool
	p.chn.UsePool(pool)
}

func trailingZeros(v int) int {
	n := 0
	for v > 1 {
		v >>= 1
		n++
	}
	return n
}

// retSink adapts the partition's return queue to dram.ReturnSink.
type retSink struct{ p *Partition }

func (s retSink) Accept(req *mem.Request) bool { return s.p.retQ.Push(req) }

// Accept implements the request crossbar's sink: icnt delivers request
// packets into the access queue.
func (p *Partition) Accept(pkt *mem.Packet) bool { return p.accessQ.Push(pkt) }

// Channel returns the partition's DRAM channel (ticked by the
// simulator in the DRAM clock domain).
func (p *Partition) Channel() *dram.Channel { return p.chn }

// Stats returns a copy of the partition counters.
func (p *Partition) Stats() Stats { return p.stats }

// CacheStats returns the L2 tag-array counters.
func (p *Partition) CacheStats() cache.Stats { return p.l2.Stats() }

// MSHRStats returns the L2 MSHR counters.
func (p *Partition) MSHRStats() cache.MSHRStats { return p.mshr.Stats() }

// AccessUsage exposes the access queue tracker (§III, 46% in paper).
func (p *Partition) AccessUsage() *stats.QueueUsage { return p.accessQ.Usage() }

// AccessFull reports whether the access queue is at capacity right
// now — the partition is stalling its upstream. The stall-attribution
// engine reads it when charging SM memory-wait cycles to a level.
func (p *Partition) AccessFull() bool { return p.accessQ.Full() }

// MissUsage exposes the miss queue tracker.
func (p *Partition) MissUsage() *stats.QueueUsage { return p.missQ.Usage() }

// RespUsage exposes the response queue tracker.
func (p *Partition) RespUsage() *stats.QueueUsage { return p.respQ.Usage() }

// ReturnUsage exposes the DRAM return queue tracker.
func (p *Partition) ReturnUsage() *stats.QueueUsage { return p.retQ.Usage() }

// HostTicks returns the partition's host-work counters: the full Ticks
// it executed and the L2 cycles it advanced through. Like
// core.SM.HostTicks they measure the simulator, not the simulated
// machine, so they stay out of Stats and Results, and ResetStats
// leaves them alone.
func (p *Partition) HostTicks() (full, cycles int64) { return p.fullTicks, p.ticks }

// Pending returns in-flight work, for drain checks in tests.
func (p *Partition) Pending() int {
	return p.accessQ.Len() + p.missQ.Len() + p.respQ.Len() + p.retQ.Len() +
		p.pendingResp.Len() + p.hitPipe.Len() + p.fillPipe.Len() +
		p.mshr.Used() + p.chn.Pending()
}

// bankFor maps a line address to a bank.
func (p *Partition) bankFor(lineAddr uint64) int {
	return int((lineAddr >> p.lineShift) % uint64(len(p.bankBusyUntil)))
}

// Tick advances the partition by one L2 cycle. The DRAM channel ticks
// separately in its own domain.
func (p *Partition) Tick(cycle int64) {
	if p.accessQ.Full() {
		p.stats.InFullCycles++
	}
	p.completeFills(cycle)
	p.completeHits(cycle)
	p.drainPendingResp()
	p.startFill(cycle)
	p.processAccesses(cycle)
	p.forwardMisses()
	p.injectResponses()
	p.ticks++
	p.fullTicks++
}

// completeHits moves finished hit accesses into the response queue. A
// full response queue blocks the pipe head: back pressure from the
// response path throttles the L2.
func (p *Partition) completeHits(cycle int64) {
	for {
		op, ok := p.hitPipe.Peek()
		if !ok || op.doneAt > cycle {
			return
		}
		if !p.respQ.Push(op.pkt) {
			p.stats.StallRespQ++
			return
		}
		p.hitPipe.Pop()
	}
}

// completeFills retires finished fills: the line becomes valid, the
// MSHR entry releases, and one response per merged load is staged.
func (p *Partition) completeFills(cycle int64) {
	for {
		op, ok := p.fillPipe.Peek()
		if !ok || op.doneAt > cycle {
			return
		}
		if p.pendingResp.Len() > 0 {
			return // previous fill's responses still draining
		}
		p.fillPipe.Pop()
		line := op.fill.LineAddr()
		reqs := p.mshr.Release(line)
		dirty := false
		for _, r := range reqs {
			if r.Kind == mem.Store {
				dirty = true
			}
		}
		p.l2.Fill(line, cycle, dirty)
		for _, r := range reqs {
			if r.Kind != mem.Load {
				// Stores die at fill time: the written line is now
				// valid and dirty, no response travels upstream.
				p.pool.PutRequest(r)
				continue
			}
			pkt := p.pool.GetPacket()
			*pkt = mem.Packet{
				Req: r, IsResponse: true, Src: p.id, Dst: r.CoreID,
				SizeBytes: mem.ResponsePacketBytes(r),
			}
			p.pendingResp.Push(pkt)
		}
		// The fetch request made the DRAM round trip on behalf of the
		// MSHR entry; the fill was its last act.
		p.pool.PutRequest(op.fill)
	}
}

// drainPendingResp moves one fill-generated response into the response
// queue per cycle.
func (p *Partition) drainPendingResp() {
	pkt, ok := p.pendingResp.Peek()
	if !ok {
		return
	}
	if !p.respQ.Push(pkt) {
		p.stats.StallRespQ++
		return
	}
	p.pendingResp.Pop()
}

// startFill begins moving a returned DRAM line into the array. Fills
// take priority over new accesses for bank allocation, as in
// GPGPU-Sim.
func (p *Partition) startFill(cycle int64) {
	if p.pendingResp.Len() > 0 {
		return // finish distributing the previous fill first
	}
	req, ok := p.retQ.Peek()
	if !ok {
		return
	}
	if p.fillPipe.Len() >= p.cfg.L2.DRAMReturnQueue {
		p.stats.FillStalls++
		return
	}
	bank := p.bankFor(req.LineAddr())
	if p.bankBusyUntil[bank] > cycle {
		p.stats.FillStalls++
		return
	}
	p.retQ.Pop()
	p.bankBusyUntil[bank] = cycle + p.portCycles
	p.fillPipe.Push(pipeOp{doneAt: cycle + p.portCycles, fill: req})
}

// processAccesses consumes up to banks-per-partition requests from the
// access queue head. A blocked head blocks everything behind it
// (head-of-line), which is how congestion propagates back into the
// interconnect.
func (p *Partition) processAccesses(cycle int64) {
	for n := 0; n < len(p.bankBusyUntil); n++ {
		pkt, ok := p.accessQ.Peek()
		if !ok || pkt.ReadyAt > cycle {
			return
		}
		req := pkt.Req
		line := req.LineAddr()
		isWrite := req.Kind != mem.Load

		// Feasibility is tested with non-counting probes; the
		// counting Lookup happens exactly once, on consumption.
		switch p.l2.Probe(line) {
		case cache.Hit:
			if isWrite {
				// Write hit: line dirtied in place, no response
				// traffic (stores are fire-and-forget from the L1).
				p.l2.Lookup(line, true, cycle)
				p.accessQ.Pop()
				p.pool.PutRequest(req) // store retires here
				p.pool.PutPacket(pkt)
				p.stats.Accesses++
				p.stats.Hits++
				continue
			}
			bank := p.bankFor(line)
			if p.bankBusyUntil[bank] > cycle {
				p.stats.StallBankBusy++
				return
			}
			if p.hitPipe.Len() >= p.cfg.L2.ResponseQueue {
				// Pipeline registers exhausted (response path backed
				// up): stop accepting hits.
				p.stats.StallRespQ++
				return
			}
			p.l2.Lookup(line, false, cycle)
			rp := p.pool.GetPacket()
			*rp = mem.Packet{
				Req: req, IsResponse: true, Src: p.id, Dst: req.CoreID,
				SizeBytes: mem.ResponsePacketBytes(req),
			}
			p.bankBusyUntil[bank] = cycle + p.portCycles
			p.hitPipe.Push(pipeOp{doneAt: cycle + p.cfg.L2.HitLatency + p.portCycles, pkt: rp})
			p.accessQ.Pop()
			p.pool.PutPacket(pkt)
			p.stats.Accesses++
			p.stats.Hits++

		case cache.HitReserved:
			if !p.mshr.CanMerge(line) {
				p.stats.StallMSHR++
				return
			}
			p.l2.Lookup(line, isWrite, cycle)
			if res := p.mshr.Allocate(line, req, cycle); res != cache.AllocMerged {
				panic(fmt.Sprintf("l2: expected MSHR merge, got %v", res))
			}
			p.accessQ.Pop()
			p.pool.PutPacket(pkt)
			p.stats.Accesses++
			p.stats.MSHRMerges++

		case cache.Miss:
			if p.mshr.Full() {
				p.stats.StallMSHR++
				return
			}
			// A miss may need two miss-queue slots: the fetch and a
			// dirty-victim writeback.
			if p.missQ.Free() < 2 {
				p.stats.StallMissQ++
				return
			}
			if !p.l2.CanReserve(line) {
				p.stats.StallReservation++
				return
			}
			p.l2.Lookup(line, isWrite, cycle)
			victim, evicted, ok := p.l2.Reserve(line, cycle)
			if !ok {
				panic("l2: CanReserve lied")
			}
			if res := p.mshr.Allocate(line, req, cycle); res != cache.AllocNew {
				panic(fmt.Sprintf("l2: expected fresh MSHR entry, got %v", res))
			}
			if evicted && victim.Dirty {
				*p.nextID++
				wb := p.pool.GetRequest()
				*wb = mem.Request{
					ID: *p.nextID, Addr: victim.Addr, LineSize: uint64(p.cfg.L2.LineSize),
					Kind: mem.Writeback, CoreID: -1, WarpID: -1, PartitionID: p.id,
					IssueCycle: cycle,
				}
				p.missQ.Push(wb)
				p.stats.Writebacks++
			}
			// The fetch is always a read, even for store misses
			// (write-allocate); the stored data merges at fill time.
			fetch := p.pool.GetRequest()
			*fetch = mem.Request{
				ID: req.ID, Addr: line, LineSize: req.LineSize,
				Kind: mem.Load, CoreID: req.CoreID, WarpID: req.WarpID,
				PartitionID: p.id, IssueCycle: cycle,
			}
			p.missQ.Push(fetch)
			p.accessQ.Pop()
			p.pool.PutPacket(pkt)
			p.stats.Accesses++
			p.stats.Misses++
		}
	}
}

// forwardMisses moves one miss-queue entry into the DRAM scheduler
// queue per cycle.
func (p *Partition) forwardMisses() {
	req, ok := p.missQ.Peek()
	if !ok {
		return
	}
	if !p.chn.Push(req) {
		return // DRAM scheduler queue full: back pressure
	}
	p.missQ.Pop()
}

// injectResponses moves one response into the crossbar per cycle.
func (p *Partition) injectResponses() {
	pkt, ok := p.respQ.Peek()
	if !ok {
		return
	}
	if !p.resp.Push(p.id, pkt) {
		return // crossbar input full: back pressure
	}
	p.respQ.Pop()
}

// ResetStats zeroes every partition counter and queue tracker for a
// new measurement window. Architectural
// state (tags, MSHRs, queue contents) is untouched.
func (p *Partition) ResetStats() {
	p.stats = Stats{}
	p.l2.ResetStats()
	p.mshr.ResetStats()
	p.accessQ.ResetUsage()
	p.missQ.ResetUsage()
	p.respQ.ResetUsage()
	p.retQ.ResetUsage()
	p.chn.ResetStats()
}
