package dram

import (
	"fmt"

	"repro/internal/config"
	"repro/internal/mem"
	"repro/internal/queue"
	"repro/internal/stats"
)

// ReturnSink receives completed DRAM reads (the partition's DRAM
// return queue, d2m). A false Accept stalls the channel's return
// register and, transitively, new issue — DRAM-side back pressure.
type ReturnSink interface {
	Accept(req *mem.Request) bool
}

// Stats counts channel events.
type Stats struct {
	Reads         int64
	Writes        int64
	RowHits       int64
	RowMisses     int64 // row closed: activate needed
	RowConflicts  int64 // other row open: precharge + activate
	BusBusyCycles int64
	IssueStalls   int64 // cycles with pending work but nothing issuable
	ReturnStalls  int64 // cycles the return register was blocked
	Refreshes     int64 // refresh operations performed
	// ActThrottles counts activates deferred by tRRD/tFAW, only in
	// cycles where the data bus could take an access: a cycle whose
	// busy bus rules out every queued access skips the scan and counts
	// nothing here.
	ActThrottles int64
	// InFullCycles counts DRAM cycles the scheduler queue was full at
	// tick time — the back pressure the channel exerts on its upstream
	// (the L2 miss queue backs up behind a refused Push). It is one of
	// the per-level counters the stall-attribution stack composes from.
	InFullCycles int64
}

// RowHitRate returns row hits over all accesses.
func (s Stats) RowHitRate() float64 {
	total := s.RowHits + s.RowMisses + s.RowConflicts
	if total == 0 {
		return 0
	}
	return float64(s.RowHits) / float64(total)
}

type bank struct {
	openRow    int64 // -1 when closed
	readyAt    int64 // next cycle the bank may start a new access
	activateAt int64 // when the open row was activated (tRAS)
}

type inflight struct {
	req        *mem.Request
	completeAt int64
}

// schedEntry pairs a queued request with its channel-local DRAM
// coordinate, decoded once at enqueue. The FR-FCFS scan touches every
// queued entry every cycle, so re-deriving the coordinate there (a
// handful of divisions per entry) would dominate the scheduler's cost.
type schedEntry struct {
	req *mem.Request
	co  Coord
}

// Channel is one GDDR channel: scheduler queue, banks, data bus.
type Channel struct {
	cfg     config.DRAMConfig
	addrMap AddrMap
	schedQ  queue.Queue[schedEntry]
	banks   []bank
	// busFreeAt is the first cycle the shared data bus is free.
	busFreeAt int64
	// inflight holds issued accesses awaiting completion, ordered by
	// completeAt (issue order preserves it: bus serialization).
	inflight queue.Ring[inflight]
	// stuck holds a completed read the sink refused.
	stuck *mem.Request
	sink  ReturnSink
	pool  *mem.Pool // request recycling (nil: plain allocation)
	burst int64
	// lastActivate and actWindow enforce tRRD and tFAW across banks.
	lastActivate int64
	actWindow    [4]int64 // times of the last four activates (ring)
	actIdx       int
	nextRefresh  int64
	// maxCol is the longest issue-to-data latency (a row conflict).
	maxCol int64
	stats  Stats
	// ticks counts cycles for the queue (queue.New);
	// fullTicks counts the Ticks that ran (HostTicks).
	ticks     int64
	fullTicks int64
}

// NewChannel builds a channel for one partition. lineSize is the L2
// line size; partitions is the interleave factor of the address map.
func NewChannel(cfg config.DRAMConfig, lineSize, partitions int, sink ReturnSink) *Channel {
	banks := make([]bank, cfg.BanksPerChip)
	for i := range banks {
		banks[i].openRow = -1
	}
	ch := &Channel{
		cfg: cfg,
		addrMap: NewHashedAddrMap(lineSize, partitions, cfg.RowBytes,
			cfg.BanksPerChip, cfg.BankHash == "xor"),
		banks:        banks,
		sink:         sink,
		burst:        cfg.BurstCycles(lineSize),
		lastActivate: -1 << 20,
		nextRefresh:  cfg.Timing.TREFI,
		maxCol:       cfg.Timing.TRP + cfg.Timing.TRCD + cfg.Timing.CL,
	}
	ch.schedQ = queue.New[schedEntry]("dram.sched", cfg.SchedQueue, &ch.ticks)
	for i := range ch.actWindow {
		ch.actWindow[i] = -1 << 20
	}
	return ch
}

// UsePool wires the simulation-wide request free list into the
// channel: writebacks and store requests retire here and are
// recycled. Without it completed requests are left to the GC.
func (c *Channel) UsePool(p *mem.Pool) { c.pool = p }

// Push enqueues a request into the scheduler queue; false means full.
func (c *Channel) Push(req *mem.Request) bool {
	return c.schedQ.Push(schedEntry{req: req, co: c.addrMap.Decode(req.LineAddr())})
}

// QueueFree returns free scheduler-queue slots.
func (c *Channel) QueueFree() int { return c.schedQ.Free() }

// SchedFull reports whether the scheduler queue is at capacity right
// now — the channel is stalling its upstream L2 miss path. The
// stall-attribution engine reads it when charging SM memory-wait
// cycles to a level.
func (c *Channel) SchedFull() bool { return c.schedQ.Full() }

// SchedUsage exposes the scheduler queue's occupancy tracker (§III).
func (c *Channel) SchedUsage() *stats.QueueUsage { return c.schedQ.Usage() }

// Stats returns a copy of the event counters.
func (c *Channel) Stats() Stats { return c.stats }

// Pending returns queued plus in-flight accesses, for drain checks.
func (c *Channel) Pending() int {
	n := c.schedQ.Len() + c.inflight.Len()
	if c.stuck != nil {
		n++
	}
	return n
}

// HostTicks returns the channel's host-work counters: the full Ticks
// it executed and the DRAM cycles it advanced through. Like
// core.SM.HostTicks they measure the simulator, not the simulated
// machine, so they stay out of Stats and Results, and ResetStats
// leaves them alone.
func (c *Channel) HostTicks() (full, cycles int64) { return c.fullTicks, c.ticks }

// Tick advances the channel by one DRAM cycle.
func (c *Channel) Tick(cycle int64) {
	if c.schedQ.Full() {
		c.stats.InFullCycles++
	}
	c.refresh(cycle)
	c.drainCompletions(cycle)
	c.issue(cycle)
	c.ticks++
	c.fullTicks++
}

// refresh performs an all-bank refresh every tREFI cycles: rows close
// and every bank is unavailable for tRFC.
func (c *Channel) refresh(cycle int64) {
	if cycle < c.nextRefresh {
		return
	}
	c.nextRefresh = cycle + c.cfg.Timing.TREFI
	c.stats.Refreshes++
	for i := range c.banks {
		b := &c.banks[i]
		b.openRow = -1
		if r := cycle + c.cfg.Timing.TRFC; r > b.readyAt {
			b.readyAt = r
		}
	}
}

// canActivate enforces tRRD (activate-to-activate gap) and tFAW (at
// most four activates per rolling window) across banks. actAt is the
// cycle the ACT command would issue — for a row conflict that is
// after the precharge completes, not the scheduling cycle.
func (c *Channel) canActivate(actAt int64) bool {
	if actAt < c.lastActivate+c.cfg.Timing.TRRD {
		return false
	}
	return actAt >= c.actWindow[c.actIdx]+c.cfg.Timing.TFAW
}

// noteActivate records an activate for tRRD/tFAW accounting.
func (c *Channel) noteActivate(cycle int64) {
	c.lastActivate = cycle
	c.actWindow[c.actIdx] = cycle
	c.actIdx = (c.actIdx + 1) % len(c.actWindow)
}

// drainCompletions retires finished accesses and returns reads to the
// sink, honoring its back pressure.
func (c *Channel) drainCompletions(cycle int64) {
	if c.stuck != nil {
		if c.sink.Accept(c.stuck) {
			c.stuck = nil
		} else {
			c.stats.ReturnStalls++
			return
		}
	}
	for {
		fin, ok := c.inflight.Peek()
		if !ok || fin.completeAt > cycle {
			return
		}
		c.inflight.Pop()
		if fin.req.Kind == mem.Load {
			if !c.sink.Accept(fin.req) {
				c.stuck = fin.req
				c.stats.ReturnStalls++
				return
			}
		} else {
			// Writebacks (and any other non-read) never generate a
			// response: the DRAM write is their last act.
			c.pool.PutRequest(fin.req)
		}
	}
}

// issue lets the scheduler start at most one access this cycle.
func (c *Channel) issue(cycle int64) {
	if c.schedQ.Empty() {
		return
	}
	// Back pressure: when a completed read cannot drain, stop issuing
	// so the scheduler queue (and upstream L2 miss queue) back up.
	// A bus busy past maxCol fails canIssue's bus check for every entry.
	if c.stuck != nil || c.busFreeAt > cycle+c.maxCol {
		c.stats.IssueStalls++
		return
	}
	idx := -1
	switch c.cfg.Scheduler {
	case "frfcfs":
		idx = c.pickFRFCFS(cycle)
	case "fcfs":
		if c.canIssue(c.schedQ.At(0).co, cycle) {
			idx = 0
		}
	default:
		panic(fmt.Sprintf("dram: unknown scheduler %q", c.cfg.Scheduler))
	}
	if idx < 0 {
		c.stats.IssueStalls++
		return
	}
	e := c.schedQ.Remove(idx)
	c.start(e.req, e.co, cycle)
}

// pickFRFCFS scans the scheduler queue oldest-first, preferring row
// hits; it falls back to the oldest issuable request.
func (c *Channel) pickFRFCFS(cycle int64) int {
	fallback := -1
	a, b := c.schedQ.Segments()
	base := 0
	for _, seg := range [2][]schedEntry{a, b} {
		for i := range seg {
			co := seg[i].co
			if !c.canIssue(co, cycle) {
				continue
			}
			if c.banks[co.Bank].openRow == co.Row {
				return base + i // oldest row hit
			}
			if fallback == -1 {
				fallback = base + i
			}
		}
		base += len(seg)
	}
	return fallback
}

// canIssue reports whether the access's bank and the data bus allow
// starting it at cycle.
func (c *Channel) canIssue(co Coord, cycle int64) bool {
	b := &c.banks[co.Bank]
	if b.readyAt > cycle {
		return false
	}
	if b.openRow != co.Row {
		// The access needs an ACTIVATE: honor tRRD/tFAW at the time
		// the ACT would actually issue.
		actAt := cycle
		if b.openRow != -1 {
			actAt += c.cfg.Timing.TRP // after the precharge
		}
		if !c.canActivate(actAt) {
			c.stats.ActThrottles++
			return false
		}
	}
	if b.openRow != co.Row && b.openRow != -1 {
		// Precharge requires tRAS elapsed since activate.
		if b.activateAt+c.cfg.Timing.TRAS > cycle {
			return false
		}
	}
	// The bus must come free before the column access would use it;
	// allowing a bounded pipeline depth of one access keeps the bus
	// saturated without modeling per-beat contention.
	return c.busFreeAt <= cycle+c.colLatency(b, co)
}

// colLatency returns cycles from issue to first data beat.
func (c *Channel) colLatency(b *bank, co Coord) int64 {
	t := c.cfg.Timing
	switch {
	case b.openRow == co.Row:
		return t.CL
	case b.openRow == -1:
		return t.TRCD + t.CL
	default:
		return t.TRP + t.TRCD + t.CL
	}
}

// start issues req (already decoded to co), updating bank/bus state
// and the inflight list.
func (c *Channel) start(req *mem.Request, co Coord, cycle int64) {
	b := &c.banks[co.Bank]
	t := c.cfg.Timing

	switch {
	case b.openRow == co.Row:
		c.stats.RowHits++
	case b.openRow == -1:
		c.stats.RowMisses++
		b.activateAt = cycle
		c.noteActivate(cycle)
	default:
		c.stats.RowConflicts++
		b.activateAt = cycle + t.TRP
		c.noteActivate(cycle + t.TRP)
	}
	col := c.colLatency(b, co)
	b.openRow = co.Row

	dataStart := cycle + col
	if dataStart < c.busFreeAt {
		dataStart = c.busFreeAt
	}
	dataEnd := dataStart + c.burst
	c.busFreeAt = dataEnd
	c.stats.BusBusyCycles += c.burst

	bankReady := dataEnd
	if req.Kind != mem.Load {
		bankReady += t.TWR
		c.stats.Writes++
	} else {
		c.stats.Reads++
	}
	if gap := cycle + t.TCCD; gap > bankReady {
		bankReady = gap
	}
	b.readyAt = bankReady

	c.inflight.Push(inflight{req: req, completeAt: dataEnd})
}

// ResetStats zeroes the channel counters and the scheduler-queue
// tracker for a new measurement window; timing state is untouched.
func (c *Channel) ResetStats() {
	c.stats = Stats{}
	c.schedQ.ResetUsage()
}
