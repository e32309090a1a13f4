package dram

import (
	"testing"
	"testing/quick"

	"repro/internal/config"
	"repro/internal/mem"
)

type sliceSink struct {
	got  []*mem.Request
	full bool
}

func (s *sliceSink) Accept(r *mem.Request) bool {
	if s.full {
		return false
	}
	s.got = append(s.got, r)
	return true
}

func dcfg() config.DRAMConfig {
	c := config.GTX480Baseline().DRAM
	c.SchedQueue = 8
	return c
}

func load(id, addr uint64) *mem.Request {
	return &mem.Request{ID: id, Addr: addr, LineSize: 128, Kind: mem.Load}
}

func write(id, addr uint64) *mem.Request {
	return &mem.Request{ID: id, Addr: addr, LineSize: 128, Kind: mem.Writeback}
}

func runCh(ch *Channel, from, to int64) int64 {
	for c := from; c < to; c++ {
		ch.Tick(c)
	}
	return to
}

func TestAddrMapPartitionInterleave(t *testing.T) {
	m := NewAddrMap(128, 6, 2048, 16)
	seen := map[int]bool{}
	for i := 0; i < 6; i++ {
		seen[m.Partition(uint64(i*128))] = true
	}
	if len(seen) != 6 {
		t.Fatalf("consecutive lines should hit all partitions: %v", seen)
	}
	if m.Partition(0) != m.Partition(6*128) {
		t.Fatalf("stride of partitions×line should wrap to same partition")
	}
}

func TestAddrMapRowLocality(t *testing.T) {
	m := NewAddrMap(128, 1, 2048, 16) // 16 lines per row
	c0 := m.Decode(0)
	c1 := m.Decode(128)
	if c0.Bank != c1.Bank || c0.Row != c1.Row || c0.Col == c1.Col {
		t.Fatalf("consecutive local lines should share a row: %+v %+v", c0, c1)
	}
	c16 := m.Decode(16 * 128)
	if c16.Bank == c0.Bank {
		t.Fatalf("next row chunk should move to next bank: %+v", c16)
	}
}

func TestAddrMapDecodeUnique(t *testing.T) {
	m := NewAddrMap(128, 2, 1024, 4)
	type key struct {
		p int
		c Coord
	}
	seen := map[key]uint64{}
	for i := 0; i < 4096; i++ {
		addr := uint64(i) * 128
		k := key{m.Partition(addr), m.Decode(addr)}
		if prev, dup := seen[k]; dup {
			t.Fatalf("addresses %#x and %#x decode identically: %+v", prev, addr, k)
		}
		seen[k] = addr
	}
}

func TestAddrMapPanics(t *testing.T) {
	bads := []func(){
		func() { NewAddrMap(100, 6, 2048, 16) },
		func() { NewAddrMap(128, 6, 64, 16) },
		func() { NewAddrMap(128, 0, 2048, 16) },
	}
	for i, f := range bads {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d should panic", i)
				}
			}()
			f()
		}()
	}
}

func TestReadCompletesWithExpectedLatency(t *testing.T) {
	sink := &sliceSink{}
	ch := NewChannel(dcfg(), 128, 1, sink)
	ch.Push(load(1, 0))
	// Closed row: tRCD(12) + CL(12) + burst(8) = 32 cycles.
	runCh(ch, 0, 32)
	if len(sink.got) != 0 {
		t.Fatalf("completed too early")
	}
	runCh(ch, 32, 34)
	if len(sink.got) != 1 {
		t.Fatalf("read did not complete: %d", len(sink.got))
	}
	st := ch.Stats()
	if st.Reads != 1 || st.RowMisses != 1 || st.RowHits != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestRowHitFasterThanConflict(t *testing.T) {
	// Same row twice: second access is a row hit.
	sink := &sliceSink{}
	ch := NewChannel(dcfg(), 128, 1, sink)
	ch.Push(load(1, 0))
	ch.Push(load(2, 128)) // same row, next column
	end := runCh(ch, 0, 200)
	_ = end
	if ch.Stats().RowHits != 1 {
		t.Fatalf("expected one row hit: %+v", ch.Stats())
	}

	// Same bank, different row: conflict.
	sink2 := &sliceSink{}
	ch2 := NewChannel(dcfg(), 128, 1, sink2)
	ch2.Push(load(1, 0))
	rowStride := uint64(2048 * 16) // next row in the same bank
	ch2.Push(load(2, rowStride))
	runCh(ch2, 0, 400)
	if ch2.Stats().RowConflicts != 1 {
		t.Fatalf("expected one conflict: %+v", ch2.Stats())
	}
	if len(sink.got) != 2 || len(sink2.got) != 2 {
		t.Fatalf("not all reads completed: %d %d", len(sink.got), len(sink2.got))
	}
}

func TestFRFCFSPrefersRowHit(t *testing.T) {
	cfg := dcfg()
	sink := &sliceSink{}
	ch := NewChannel(cfg, 128, 1, sink)
	// Open row 0 in bank 0.
	ch.Push(load(1, 0))
	runCh(ch, 0, 40)
	if len(sink.got) != 1 {
		t.Fatalf("setup read incomplete")
	}
	// Oldest = conflict (other row in bank 0), younger = row hit.
	conflict := load(2, uint64(2048*16))
	hit := load(3, 128)
	ch.Push(conflict)
	ch.Push(hit)
	runCh(ch, 40, 400)
	if len(sink.got) != 3 {
		t.Fatalf("reads incomplete: %d", len(sink.got))
	}
	if sink.got[1].ID != 3 || sink.got[2].ID != 2 {
		t.Fatalf("FR-FCFS order = %d,%d; want row hit (3) before conflict (2)",
			sink.got[1].ID, sink.got[2].ID)
	}
}

func TestFCFSHonorsArrivalOrder(t *testing.T) {
	cfg := dcfg()
	cfg.Scheduler = "fcfs"
	sink := &sliceSink{}
	ch := NewChannel(cfg, 128, 1, sink)
	ch.Push(load(1, 0))
	runCh(ch, 0, 40)
	conflict := load(2, uint64(2048*16))
	hit := load(3, 128)
	ch.Push(conflict)
	ch.Push(hit)
	runCh(ch, 40, 400)
	if len(sink.got) != 3 || sink.got[1].ID != 2 || sink.got[2].ID != 3 {
		t.Fatalf("FCFS should serve oldest first; got %v", ids(sink.got))
	}
}

func ids(rs []*mem.Request) []uint64 {
	out := make([]uint64, len(rs))
	for i, r := range rs {
		out[i] = r.ID
	}
	return out
}

func TestWritesDoNotReturn(t *testing.T) {
	sink := &sliceSink{}
	ch := NewChannel(dcfg(), 128, 1, sink)
	ch.Push(write(1, 0))
	ch.Push(load(2, 128))
	runCh(ch, 0, 300)
	if len(sink.got) != 1 || sink.got[0].ID != 2 {
		t.Fatalf("only the load should return: %v", ids(sink.got))
	}
	if ch.Stats().Writes != 1 {
		t.Fatalf("write not counted")
	}
}

func TestReturnBackPressureStopsIssue(t *testing.T) {
	sink := &sliceSink{full: true}
	ch := NewChannel(dcfg(), 128, 1, sink)
	for i := 0; i < 8; i++ {
		ch.Push(load(uint64(i+1), uint64(i)*128))
	}
	runCh(ch, 0, 500)
	if len(sink.got) != 0 {
		t.Fatalf("sink full but reads returned")
	}
	if ch.Stats().ReturnStalls == 0 {
		t.Fatalf("return stalls not counted")
	}
	// Issue must have stopped: at most a couple of reads consumed.
	if ch.QueueFree() == 8 {
		t.Fatalf("queue should still hold blocked requests")
	}
	st := ch.Stats()
	if st.Reads > 2 {
		t.Fatalf("issue did not stop under return back pressure: %d reads", st.Reads)
	}
	sink.full = false
	runCh(ch, 500, 2000)
	if len(sink.got) != 8 {
		t.Fatalf("drain incomplete: %d", len(sink.got))
	}
	if ch.Pending() != 0 {
		t.Fatalf("pending = %d after drain", ch.Pending())
	}
}

func TestSchedQueueBound(t *testing.T) {
	ch := NewChannel(dcfg(), 128, 1, &sliceSink{})
	for i := 0; i < 8; i++ {
		if !ch.Push(load(uint64(i), uint64(i)*128)) {
			t.Fatalf("push %d failed", i)
		}
	}
	if ch.Push(load(99, 99*128)) {
		t.Fatalf("push into full sched queue succeeded")
	}
}

func TestBusSerializesBanks(t *testing.T) {
	// Two row hits in different banks still share the data bus: total
	// time >= 2 bursts.
	sink := &sliceSink{}
	ch := NewChannel(dcfg(), 128, 1, sink)
	bankStride := uint64(2048) // next bank
	ch.Push(load(1, 0))
	ch.Push(load(2, bankStride))
	var done int64
	for c := int64(0); c < 500; c++ {
		ch.Tick(c)
		if len(sink.got) == 2 {
			done = c
			break
		}
	}
	first := int64(12 + 12 + 8) // tRCD+CL+burst
	if done < first+8 {
		t.Fatalf("two reads completed at %d; bus must add >= one burst after %d", done, first)
	}
	if ch.Stats().BusBusyCycles != 16 {
		t.Fatalf("bus busy = %d, want 16", ch.Stats().BusBusyCycles)
	}
}

func TestRowHitRate(t *testing.T) {
	var s Stats
	if s.RowHitRate() != 0 {
		t.Fatalf("empty hit rate")
	}
	s = Stats{RowHits: 3, RowMisses: 1, RowConflicts: 0}
	if s.RowHitRate() != 0.75 {
		t.Fatalf("hit rate = %v", s.RowHitRate())
	}
}

// Property: every pushed load eventually returns exactly once, with
// no duplicates, regardless of address pattern.
func TestAllLoadsReturnProperty(t *testing.T) {
	prop := func(addrs []uint32) bool {
		sink := &sliceSink{}
		cfg := dcfg()
		cfg.SchedQueue = 64
		ch := NewChannel(cfg, 128, 1, sink)
		n := len(addrs)
		if n > 32 {
			n = 32
		}
		for i := 0; i < n; i++ {
			ch.Push(load(uint64(i+1), uint64(addrs[i])))
		}
		for c := int64(0); c < 20000 && len(sink.got) < n; c++ {
			ch.Tick(c)
		}
		if len(sink.got) != n {
			return false
		}
		seen := map[uint64]bool{}
		for _, r := range sink.got {
			if seen[r.ID] {
				return false
			}
			seen[r.ID] = true
		}
		return ch.Pending() == 0
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
