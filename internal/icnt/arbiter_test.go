package icnt

import (
	"fmt"
	"math/rand/v2"
	"reflect"
	"testing"

	"repro/internal/mem"
	"repro/internal/stats"
)

// refCrossbar is the original O(inputs × outputs) crossbar, kept as the
// oracle for the head-indexed arbiter: every idle output scans every
// input head round robin from the last-served input, and every tick
// samples every input queue and rescans it for fullness.
type refCrossbar struct {
	cfg       Config
	inputs    [][]*mem.Packet
	usage     []*stats.QueueUsage
	current   []*mem.Packet
	remaining []int
	rr        []int
	sink      Sink
	stats     Stats
}

func newRefCrossbar(cfg Config, sink Sink) *refCrossbar {
	c := &refCrossbar{
		cfg:       cfg,
		inputs:    make([][]*mem.Packet, cfg.Inputs),
		usage:     make([]*stats.QueueUsage, cfg.Inputs),
		current:   make([]*mem.Packet, cfg.Outputs),
		remaining: make([]int, cfg.Outputs),
		rr:        make([]int, cfg.Outputs),
		sink:      sink,
	}
	for i := range c.usage {
		c.usage[i] = stats.NewQueueUsage(fmt.Sprintf("%s.in%d", cfg.Name, i), cfg.InputBuffer)
	}
	return c
}

func (c *refCrossbar) Push(src int, pkt *mem.Packet) bool {
	if len(c.inputs[src]) == c.cfg.InputBuffer {
		c.stats.InputFullRejects++
		return false
	}
	c.inputs[src] = append(c.inputs[src], pkt)
	return true
}

func (c *refCrossbar) anyInputFull() bool {
	for _, q := range c.inputs {
		if len(q) == c.cfg.InputBuffer {
			return true
		}
	}
	return false
}

func (c *refCrossbar) Tick(cycle int64) {
	n := c.cfg.Inputs
	per := c.cfg.FlitBytes * max(c.cfg.Lanes, 1)
	for out := range c.current {
		if c.current[out] == nil {
			for k := 1; k <= n; k++ {
				in := (c.rr[out] + k) % n
				if q := c.inputs[in]; len(q) > 0 && q[0].Dst == out {
					c.inputs[in] = q[1:]
					c.current[out] = q[0]
					c.remaining[out] = (q[0].SizeBytes + per - 1) / per
					c.rr[out] = in
					break
				}
			}
		}
		if c.current[out] == nil {
			continue
		}
		if c.remaining[out] > 0 {
			c.remaining[out]--
			c.stats.Flits++
			c.stats.BusyCycles++
		}
		if c.remaining[out] == 0 {
			pkt := c.current[out]
			pkt.ReadyAt = cycle + c.cfg.WireLatency
			if c.sink.Accept(out, pkt) {
				c.stats.Packets++
				c.current[out] = nil
			} else {
				c.stats.OutputStalls++
			}
		}
	}
	for i, q := range c.inputs {
		c.usage[i].SampleN(len(q), 1)
		if len(q) == c.cfg.InputBuffer {
			c.stats.InFullCycles++
		}
	}
}

func (c *refCrossbar) ResetStats() {
	c.stats = Stats{}
	for _, u := range c.usage {
		u.Reset()
	}
}

// delivery is one packet leaving a crossbar.
type delivery struct {
	cycle, readyAt int64
	out            int
	id             uint64
}

// starvedSink accepts into per-output slot budgets that the test
// replenishes at random, so outputs block on a full destination.
type starvedSink struct {
	slots []int
	cycle *int64
	log   []delivery
}

func (s *starvedSink) Accept(dst int, pkt *mem.Packet) bool {
	if s.slots[dst] == 0 {
		return false
	}
	s.slots[dst]--
	s.log = append(s.log, delivery{cycle: *s.cycle, readyAt: pkt.ReadyAt, out: dst, id: pkt.Req.ID})
	return true
}

// TestArbiterMatchesReference drives the head-indexed crossbar and the
// original scanning arbiter with the same random traffic and the same
// random sink starvation, and requires the same delivery sequence, the
// same counters, the same input-queue occupancy and the same
// AnyInputFull answer on every tick. 70 inputs span two bitset words.
func TestArbiterMatchesReference(t *testing.T) {
	for _, ports := range [][2]int{{4, 3}, {15, 6}, {70, 5}} {
		for seed := uint64(1); seed <= 8; seed++ {
			t.Run(fmt.Sprintf("%dx%d/seed%d", ports[0], ports[1], seed), func(t *testing.T) {
				differential(t, ports[0], ports[1], seed)
			})
		}
	}
}

func differential(t *testing.T, ins, outs int, seed uint64) {
	rng := rand.New(rand.NewPCG(seed, uint64(ins)))
	cfg := Config{
		Inputs: ins, Outputs: outs, FlitBytes: 8, Lanes: 1 + int(seed%2),
		InputBuffer: 1 + rng.IntN(6), WireLatency: 3, Name: "diff",
	}
	var cycle int64
	gotSink := &starvedSink{slots: make([]int, outs), cycle: &cycle}
	wantSink := &starvedSink{slots: make([]int, outs), cycle: &cycle}
	x := New(cfg, gotSink)
	ref := newRefCrossbar(cfg, wantSink)

	var id uint64
	for ; cycle < 3000; cycle++ {
		// Bursts of injections keep inputs full part of the time;
		// quiet stretches let the crossbar drain.
		if cycle%600 < 400 {
			for k := rng.IntN(ins + 1); k > 0; k-- {
				src, dst, size := rng.IntN(ins), rng.IntN(outs), 8+rng.IntN(130)
				id++
				a := &mem.Packet{Req: &mem.Request{ID: id}, Src: src, Dst: dst, SizeBytes: size}
				b := &mem.Packet{Req: &mem.Request{ID: id}, Src: src, Dst: dst, SizeBytes: size}
				if x.Push(src, a) != ref.Push(src, b) {
					t.Fatalf("cycle %d: Push(%d) disagrees", cycle, src)
				}
			}
		}
		// Each sink holds one free slot at most and frees it slower
		// than packets finish, so outputs stall.
		for d := range gotSink.slots {
			if rng.IntN(16) == 0 {
				gotSink.slots[d] = 1
				wantSink.slots[d] = 1
			}
		}
		if cycle == 1000 {
			x.ResetStats()
			ref.ResetStats()
		}
		x.Tick(cycle)
		ref.Tick(cycle)
		if got, want := x.AnyInputFull(), ref.anyInputFull(); got != want {
			t.Fatalf("cycle %d: AnyInputFull = %v, want %v", cycle, got, want)
		}
	}
	if !reflect.DeepEqual(gotSink.log, wantSink.log) {
		t.Fatalf("delivery sequences differ: got %d deliveries, want %d", len(gotSink.log), len(wantSink.log))
	}
	if x.Stats() != ref.stats {
		t.Fatalf("stats = %+v, want %+v", x.Stats(), ref.stats)
	}
	for i, u := range x.InputUsages() {
		if *u != *ref.usage[i] {
			t.Fatalf("input %d usage = %+v, want %+v", i, *u, *ref.usage[i])
		}
	}
	if len(gotSink.log) == 0 || ref.stats.InFullCycles == 0 || ref.stats.OutputStalls == 0 {
		t.Fatalf("traffic too light to exercise the arbiter: %d deliveries, stats %+v", len(gotSink.log), ref.stats)
	}
}
