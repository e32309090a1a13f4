// Package icnt models the GPU's core↔memory interconnect as a pair of
// input-queued crossbars (one request network, one response network),
// as in GPGPU-Sim. Packets serialize into flits: a packet of S bytes
// occupies its output port for ceil(S/flit) cycles, so the Table I
// "flit size" parameter directly sets per-port bandwidth.
//
// Back pressure: an output that finishes a packet can only deliver it
// if the destination (L2 access queue or core response queue) accepts
// it; otherwise the output blocks — and because inputs are FIFO, the
// blockage propagates head-of-line into the sources. This is the
// paper's §I implication ③ ("back pressure from a congested lower
// level further throttles the cache pipeline").
package icnt

import (
	"fmt"
	"math/bits"

	"repro/internal/mem"
	"repro/internal/queue"
	"repro/internal/stats"
)

// Sink receives packets leaving the crossbar.
type Sink interface {
	// Accept offers a packet to destination port dst; a false return
	// means the destination buffer is full and the output must retry.
	Accept(dst int, pkt *mem.Packet) bool
}

// Config parameterizes one crossbar.
type Config struct {
	// Inputs and Outputs are the port counts.
	Inputs, Outputs int
	// FlitBytes is the per-cycle per-lane transfer granule.
	FlitBytes int
	// Lanes is the number of parallel flit lanes per port (link
	// speedup); 0 means 1.
	Lanes int
	// InputBuffer is the per-input packet queue depth.
	InputBuffer int
	// WireLatency is a fixed pipeline latency, in interconnect cycles,
	// stamped into each delivered packet's ReadyAt.
	WireLatency int64
	// Name prefixes queue diagnostics ("req", "resp").
	Name string
}

// Stats counts crossbar events.
type Stats struct {
	Packets      int64 // packets delivered
	Flits        int64 // flits transferred
	OutputStalls int64 // cycles an assembled packet waited on a full sink
	// InputFullRejects counts Push calls refused on a full input.
	// Injectors that ask InputFree first never retry into a full
	// input (the SMs on the request network), so it does not count
	// per-cycle retries.
	InputFullRejects int64
	BusyCycles       int64 // output-port cycles spent transferring
	// InFullCycles counts input-queue cycles spent at capacity, summed
	// over the inputs at the end of each tick — the back pressure the
	// crossbar exerts on its upstream injectors (SM miss paths on the
	// request network, L2 response paths on the response network).
	// Dividing by ticks × inputs gives a per-queue average comparable
	// to the L2/DRAM levels' counters; it is one of the per-level
	// counters the stall-attribution stack composes from.
	InFullCycles int64
}

// Crossbar is an input-queued crossbar with per-output round-robin
// arbitration over input heads.
type Crossbar struct {
	cfg    Config
	inputs []queue.Queue[*mem.Packet] // one backing array (queue.NewSet)
	// heads holds one bitset per output, words 64-bit words each, in
	// one slice: bit in of out's set is on when input in's head packet
	// targets out.
	heads []uint64
	words int
	// outs is the per-output in-flight transfer state.
	outs []output
	sink Sink
	// busy counts packets buffered at inputs plus packets mid-transfer
	// at outputs; zero means a tick has nothing to arbitrate or move.
	busy int
	// full counts the input queues at capacity right now.
	full  int
	stats Stats
	// ticks counts cycles for the queues (queue.New);
	// fullTicks counts the Ticks that ran (HostTicks).
	ticks     int64
	fullTicks int64
}

// output is one output port's transfer state: the packet it is moving,
// the flits left, and the input it last served (round robin).
type output struct {
	current   *mem.Packet
	remaining int
	rr        int
}

// New builds a crossbar delivering into sink.
func New(cfg Config, sink Sink) *Crossbar {
	if cfg.Inputs <= 0 || cfg.Outputs <= 0 {
		panic(fmt.Sprintf("icnt: ports must be positive: %d×%d", cfg.Inputs, cfg.Outputs))
	}
	if cfg.FlitBytes <= 0 {
		panic(fmt.Sprintf("icnt: flit size must be positive: %d", cfg.FlitBytes))
	}
	if cfg.InputBuffer <= 0 {
		panic(fmt.Sprintf("icnt: input buffer must be positive: %d", cfg.InputBuffer))
	}
	if cfg.Lanes <= 0 {
		cfg.Lanes = 1
	}
	words := (cfg.Inputs + 63) / 64
	c := &Crossbar{
		cfg:   cfg,
		heads: make([]uint64, cfg.Outputs*words),
		words: words,
		outs:  make([]output, cfg.Outputs),
		sink:  sink,
	}
	c.inputs = queue.NewSet[*mem.Packet](cfg.Name+".in", cfg.Inputs, cfg.InputBuffer, &c.ticks)
	return c
}

// Flits returns the port-cycles needed for a packet of size bytes:
// one flit per lane moves per cycle.
func (c *Crossbar) Flits(bytes int) int {
	per := c.cfg.FlitBytes * c.cfg.Lanes
	return (bytes + per - 1) / per
}

// Push injects a packet at input port src. A false return means the
// input buffer is full; the caller stalls.
func (c *Crossbar) Push(src int, pkt *mem.Packet) bool {
	in := &c.inputs[src]
	if !in.Push(pkt) {
		c.stats.InputFullRejects++
		return false
	}
	if in.Len() == 1 {
		c.heads[pkt.Dst*c.words+src>>6] |= 1 << (src & 63)
	}
	if in.Full() {
		c.full++
	}
	c.busy++
	return true
}

// HostTicks returns the crossbar's host-work counters: the full Ticks
// it executed and the interconnect cycles it advanced through. Like
// core.SM.HostTicks they measure the simulator, not the simulated
// machine, so they stay out of Stats and Results, and ResetStats
// leaves them alone.
func (c *Crossbar) HostTicks() (full, cycles int64) { return c.fullTicks, c.ticks }

// InputFree returns the free slots at input port src.
func (c *Crossbar) InputFree(src int) int { return c.inputs[src].Free() }

// AnyInputFull reports whether some input buffer is at capacity right
// now — the crossbar is stalling at least one injector. The
// stall-attribution engine reads it when charging SM memory-wait
// cycles to a level.
func (c *Crossbar) AnyInputFull() bool { return c.full > 0 }

// Tick advances the crossbar by one interconnect cycle.
func (c *Crossbar) Tick(cycle int64) {
	// Once busy reaches zero no output holds or can start a packet.
	for out := 0; c.busy > 0 && out < c.cfg.Outputs; out++ {
		o := &c.outs[out]
		if o.current == nil {
			c.arbitrate(out)
			// The chosen packet starts transferring this cycle.
		}
		if o.current == nil {
			continue
		}
		if o.remaining > 0 {
			o.remaining--
			c.stats.Flits++
			c.stats.BusyCycles++
		}
		if o.remaining == 0 {
			pkt := o.current
			pkt.ReadyAt = cycle + c.cfg.WireLatency
			if c.sink.Accept(out, pkt) {
				c.stats.Packets++
				o.current = nil
				c.busy--
			} else {
				c.stats.OutputStalls++
			}
		}
	}
	c.stats.InFullCycles += int64(c.full)
	c.ticks++
	c.fullTicks++
}

// arbitrate pops the next input head that targets out, starting after
// the last-served input (round robin), and starts its transfer.
func (c *Crossbar) arbitrate(out int) {
	in := c.pick(out)
	if in < 0 {
		return
	}
	q := &c.inputs[in]
	if q.Full() {
		c.full--
	}
	pkt, _ := q.Pop()
	c.heads[out*c.words+in>>6] &^= 1 << (in & 63)
	if next, ok := q.Peek(); ok {
		c.heads[next.Dst*c.words+in>>6] |= 1 << (in & 63)
	}
	c.outs[out] = output{current: pkt, remaining: c.Flits(pkt.SizeBytes), rr: in}
}

// pick returns the first input after rr[out], cyclically, whose head
// targets out, or -1 when none does.
func (c *Crossbar) pick(out int) int {
	set := c.heads[out*c.words : (out+1)*c.words]
	start := c.outs[out].rr + 1
	sw := start >> 6
	if sw < len(set) {
		if w := set[sw] >> (start & 63); w != 0 {
			return start + bits.TrailingZeros64(w)
		}
		for i := sw + 1; i < len(set); i++ {
			if set[i] != 0 {
				return i<<6 + bits.TrailingZeros64(set[i])
			}
		}
	}
	for i := 0; i <= sw && i < len(set); i++ {
		if set[i] != 0 {
			return i<<6 + bits.TrailingZeros64(set[i])
		}
	}
	return -1
}

// Stats returns a copy of the event counters.
func (c *Crossbar) Stats() Stats { return c.stats }

// InputUsages returns the occupancy trackers of all input queues.
func (c *Crossbar) InputUsages() []*stats.QueueUsage {
	us := make([]*stats.QueueUsage, len(c.inputs))
	for i := range c.inputs {
		us[i] = c.inputs[i].Usage()
	}
	return us
}

// ResetStats zeroes the crossbar counters and input-queue trackers
// for a new measurement window.
func (c *Crossbar) ResetStats() {
	c.stats = Stats{}
	for i := range c.inputs {
		c.inputs[i].ResetUsage()
	}
}
