package dram

import (
	"testing"

	"repro/internal/config"
	"repro/internal/mem"
)

func TestXorHashSpreadsStridedBanks(t *testing.T) {
	// A stride equal to linesPerRow × banks camps on one bank with
	// plain modulo interleaving; the XOR hash must spread it.
	plain := NewHashedAddrMap(128, 1, 2048, 16, false)
	hashed := NewHashedAddrMap(128, 1, 2048, 16, true)
	stride := uint64(16 * 2048) // one full row-group: same bank, next row
	plainBanks := map[int]bool{}
	hashedBanks := map[int]bool{}
	for i := 0; i < 64; i++ {
		addr := uint64(i) * stride
		plainBanks[plain.Decode(addr).Bank] = true
		hashedBanks[hashed.Decode(addr).Bank] = true
	}
	if len(plainBanks) != 1 {
		t.Fatalf("plain interleave should camp on one bank, got %d", len(plainBanks))
	}
	if len(hashedBanks) < 8 {
		t.Fatalf("xor hash spread over only %d banks", len(hashedBanks))
	}
}

func TestXorHashPreservesUniqueness(t *testing.T) {
	m := NewHashedAddrMap(128, 2, 1024, 8, true)
	type key struct {
		p int
		c Coord
	}
	seen := map[key]uint64{}
	for i := 0; i < 8192; i++ {
		addr := uint64(i) * 128
		k := key{m.Partition(addr), m.Decode(addr)}
		if prev, dup := seen[k]; dup {
			t.Fatalf("%#x and %#x collide at %+v", prev, addr, k)
		}
		seen[k] = addr
	}
}

func TestRefreshClosesRowsAndCounts(t *testing.T) {
	cfg := dcfg()
	cfg.Timing.TREFI = 200
	cfg.Timing.TRFC = 50
	sink := &sliceSink{}
	ch := NewChannel(cfg, 128, 1, sink)
	ch.Push(load(1, 0))
	runCh(ch, 0, 1000)
	if ch.Stats().Refreshes < 4 {
		t.Fatalf("refreshes = %d over 1000 cycles at tREFI=200", ch.Stats().Refreshes)
	}
	if len(sink.got) != 1 {
		t.Fatalf("read lost across refresh")
	}
}

func TestRefreshDelaysAccess(t *testing.T) {
	// An access arriving during the refresh window completes later
	// than one on an idle channel.
	timed := func(trefi int64) int64 {
		cfg := dcfg()
		cfg.Timing.TREFI = trefi
		cfg.Timing.TRFC = 60
		sink := &sliceSink{}
		ch := NewChannel(cfg, 128, 1, sink)
		// Arrive exactly when the first refresh fires.
		for c := int64(0); c < 2000; c++ {
			if c == trefi {
				ch.Push(load(1, 0))
			}
			ch.Tick(c)
			if len(sink.got) == 1 {
				return c - trefi
			}
		}
		return -1
	}
	withRefresh := timed(100)
	noRefresh := timed(1_000_000) // effectively never
	if withRefresh <= noRefresh {
		t.Fatalf("refresh did not delay: %d vs %d", withRefresh, noRefresh)
	}
}

func TestTFAWThrottlesActivates(t *testing.T) {
	cfg := dcfg()
	cfg.SchedQueue = 16
	cfg.Timing.TFAW = 200 // absurdly long window to force throttling
	sink := &sliceSink{}
	ch := NewChannel(cfg, 128, 1, sink)
	// Eight accesses to eight different banks, all needing activates.
	for i := 0; i < 8; i++ {
		ch.Push(load(uint64(i+1), uint64(i)*2048))
	}
	runCh(ch, 0, 3000)
	if len(sink.got) != 8 {
		t.Fatalf("reads lost under tFAW: %d", len(sink.got))
	}
	if ch.Stats().ActThrottles == 0 {
		t.Fatalf("tFAW never throttled activates")
	}
}

func TestWritebackKind(t *testing.T) {
	if mem.Writeback.String() != "writeback" {
		t.Fatalf("kind naming")
	}
}

var _ = config.GTX480Baseline // keep import if helpers change
