package cache

import (
	"strings"
	"testing"
	"testing/quick"
)

func testConfig() Config {
	return Config{Sets: 4, Ways: 2, LineSize: 128, Replacement: "lru", WriteBack: true, Seed: 1}
}

func TestMissThenReserveThenFillThenHit(t *testing.T) {
	c := New(testConfig())
	addr := uint64(0x1000)
	if r := c.Lookup(addr, false, 0); r != Miss {
		t.Fatalf("first lookup = %v, want miss", r)
	}
	if _, _, ok := c.Reserve(addr, 0); !ok {
		t.Fatalf("reserve failed on empty cache")
	}
	if r := c.Lookup(addr, false, 1); r != HitReserved {
		t.Fatalf("lookup of reserved line = %v, want hit-reserved", r)
	}
	c.Fill(addr, 2, false)
	if r := c.Lookup(addr, false, 3); r != Hit {
		t.Fatalf("lookup after fill = %v, want hit", r)
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.HitsReserved != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestLRUEvictsLeastRecentlyUsed(t *testing.T) {
	c := New(testConfig())
	// Two ways in set 0: line size 128 × 4 sets = stride 512 per set.
	a, b, d := uint64(0), uint64(512), uint64(1024)
	for _, addr := range []uint64{a, b} {
		c.Lookup(addr, false, 0)
		c.Reserve(addr, 0)
		c.Fill(addr, 0, false)
	}
	c.Lookup(a, false, 10) // a now MRU
	c.Lookup(b, false, 5)
	c.Lookup(a, false, 20)
	c.Lookup(d, false, 30) // miss
	v, evicted, ok := c.Reserve(d, 30)
	if !ok || !evicted {
		t.Fatalf("reserve should evict: evicted=%v ok=%v", evicted, ok)
	}
	if v.Addr != b {
		t.Fatalf("victim = %#x, want LRU %#x", v.Addr, b)
	}
}

// With PinHits set, a line that served that many hits since its fill
// survives an eviction the replacement policy would give it, until
// every candidate is protected.
func TestPinHitsProtectsHotLines(t *testing.T) {
	cfg := testConfig()
	cfg.PinHits = 2
	c := New(cfg)
	a, b, d, e := uint64(0), uint64(512), uint64(1024), uint64(1536)
	for _, addr := range []uint64{a, b} {
		c.Lookup(addr, false, 0)
		c.Reserve(addr, 0)
		c.Fill(addr, 0, false)
	}
	c.Lookup(a, false, 1)
	c.Lookup(a, false, 2) // a: 2 hits, pinned, but still LRU below b
	c.Lookup(b, false, 3) // b: 1 hit
	if v, _, _ := c.Reserve(d, 4); v.Addr != b {
		t.Fatalf("victim = %#x, want unpinned %#x over pinned LRU %#x", v.Addr, b, a)
	}
	c.Fill(d, 4, false)
	c.Lookup(d, false, 5)
	c.Lookup(d, false, 6) // both ways pinned: fall back to LRU
	if v, _, _ := c.Reserve(e, 7); v.Addr != a {
		t.Fatalf("victim = %#x, want LRU %#x when every way is pinned", v.Addr, a)
	}
}

func TestFIFOEvictsOldestFill(t *testing.T) {
	cfg := testConfig()
	cfg.Replacement = "fifo"
	c := New(cfg)
	a, b, d := uint64(0), uint64(512), uint64(1024)
	c.Reserve(a, 0)
	c.Fill(a, 1, false)
	c.Reserve(b, 2)
	c.Fill(b, 3, false)
	c.Lookup(a, false, 100) // recency must not matter for FIFO
	v, _, ok := c.Reserve(d, 101)
	if !ok || v.Addr != a {
		t.Fatalf("fifo victim = %#x ok=%v, want %#x", v.Addr, ok, a)
	}
}

func TestRandomReplacementEvictsValidLines(t *testing.T) {
	cfg := testConfig()
	cfg.Replacement = "random"
	c := New(cfg)
	a, b := uint64(0), uint64(512)
	c.Reserve(a, 0)
	c.Fill(a, 0, false)
	c.Reserve(b, 0)
	c.Fill(b, 0, false)
	seen := map[uint64]bool{}
	for i := 0; i < 20; i++ {
		d := uint64(1024 + 512*i)
		v, evicted, ok := c.Reserve(d, int64(i))
		if !ok || !evicted {
			t.Fatalf("random reserve %d failed", i)
		}
		seen[v.Addr] = true
		// Undo: fill d then evict it next round; victims accumulate.
		c.Fill(d, int64(i), false)
	}
	if len(seen) < 2 {
		t.Fatalf("random policy never varied victims: %v", seen)
	}
}

func TestReservationFailureWhenAllWaysReserved(t *testing.T) {
	c := New(testConfig())
	a, b, d := uint64(0), uint64(512), uint64(1024)
	c.Reserve(a, 0)
	c.Reserve(b, 0)
	if _, _, ok := c.Reserve(d, 0); ok {
		t.Fatalf("reserve should fail when all ways reserved")
	}
	if c.Stats().ReservationFails != 1 {
		t.Fatalf("reservation fail not counted: %+v", c.Stats())
	}
	// After one fill the set has an evictable line again.
	c.Fill(a, 1, false)
	if _, _, ok := c.Reserve(d, 2); !ok {
		t.Fatalf("reserve should succeed after fill")
	}
}

func TestWriteBackDirtyEviction(t *testing.T) {
	c := New(testConfig())
	a, b, d := uint64(0), uint64(512), uint64(1024)
	c.Reserve(a, 0)
	c.Fill(a, 0, false)
	c.Lookup(a, true, 1) // dirty a
	c.Reserve(b, 2)
	c.Fill(b, 2, false)
	// Evict a (LRU).
	v, evicted, _ := c.Reserve(d, 10)
	if !evicted || !v.Dirty || v.Addr != a {
		t.Fatalf("victim = %+v, want dirty %#x", v, a)
	}
	if c.Stats().DirtyEvictions != 1 {
		t.Fatalf("dirty eviction not counted")
	}
}

func TestWriteThroughNeverDirties(t *testing.T) {
	cfg := testConfig()
	cfg.WriteBack = false
	c := New(cfg)
	a := uint64(0)
	c.Reserve(a, 0)
	c.Fill(a, 0, false)
	c.Lookup(a, true, 1)
	c.Reserve(uint64(512), 2)
	c.Fill(uint64(512), 2, false)
	v, _, _ := c.Reserve(uint64(1024), 3)
	if v.Dirty {
		t.Fatalf("write-through cache produced dirty victim")
	}
}

func TestFillMakeDirty(t *testing.T) {
	c := New(testConfig())
	a := uint64(0)
	c.Reserve(a, 0)
	c.Fill(a, 1, true) // store-miss fill on write-back cache
	c.Reserve(uint64(512), 2)
	c.Fill(uint64(512), 2, false)
	v, _, _ := c.Reserve(uint64(1024), 3)
	if !v.Dirty {
		t.Fatalf("fill with makeDirty lost dirtiness")
	}
}

func TestFillWithoutReservePanics(t *testing.T) {
	c := New(testConfig())
	defer func() {
		if recover() == nil {
			t.Fatalf("expected panic")
		}
	}()
	c.Fill(0x40, 0, false)
}

func TestStateAndCounts(t *testing.T) {
	c := New(testConfig())
	if c.State(0) != Invalid {
		t.Fatalf("empty cache state != invalid")
	}
	c.Reserve(0, 0)
	if c.State(0) != Reserved {
		t.Fatalf("state after reserve = %v", c.State(0))
	}
	c.Fill(0, 0, false)
	if c.State(0) != Valid {
		t.Fatalf("state after fill = %v", c.State(0))
	}
	if c.CountState(Valid) != 1 || c.CountState(Reserved) != 0 {
		t.Fatalf("counts wrong: valid=%d reserved=%d", c.CountState(Valid), c.CountState(Reserved))
	}
}

func TestSetIndexDistribution(t *testing.T) {
	c := New(testConfig())
	want := map[int]bool{}
	for i := 0; i < 4; i++ {
		want[c.SetIndex(uint64(i*128))] = true
	}
	if len(want) != 4 {
		t.Fatalf("consecutive lines should map to distinct sets, got %v", want)
	}
	if c.SetIndex(0) != c.SetIndex(512) {
		t.Fatalf("stride of sets×line should alias to the same set")
	}
}

func TestNewPanicsOnBadConfig(t *testing.T) {
	bads := []Config{
		{Sets: 3, Ways: 1, LineSize: 128, Replacement: "lru"},
		{Sets: 4, Ways: 0, LineSize: 128, Replacement: "lru"},
		{Sets: 4, Ways: 1, LineSize: 100, Replacement: "lru"},
		{Sets: 4, Ways: 1, LineSize: 128, Replacement: "plru"},
	}
	for i, cfg := range bads {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("config %d: expected panic", i)
				}
			}()
			New(cfg)
		}()
	}
}

func TestStatsRates(t *testing.T) {
	var s Stats
	if s.HitRate() != 0 || s.MissRate() != 0 {
		t.Fatalf("zero stats should have zero rates")
	}
	s = Stats{Accesses: 10, Hits: 6, Misses: 3, HitsReserved: 1}
	if s.HitRate() != 0.6 {
		t.Fatalf("hit rate = %v", s.HitRate())
	}
	if s.MissRate() != 0.4 {
		t.Fatalf("miss rate = %v", s.MissRate())
	}
}

func TestLineStateStrings(t *testing.T) {
	if Invalid.String() != "invalid" || Reserved.String() != "reserved" || Valid.String() != "valid" {
		t.Fatalf("state strings wrong")
	}
	if !strings.Contains(LineState(9).String(), "9") {
		t.Fatalf("unknown state string")
	}
	if Hit.String() != "hit" || HitReserved.String() != "hit-reserved" || Miss.String() != "miss" {
		t.Fatalf("access result strings wrong")
	}
	if !strings.Contains(AccessResult(9).String(), "9") {
		t.Fatalf("unknown access result string")
	}
}

// Property: after any access sequence, per-set line counts never
// exceed ways, and a filled line is always found by Lookup.
func TestCacheInvariantsProperty(t *testing.T) {
	prop := func(ops []uint16) bool {
		c := New(Config{Sets: 2, Ways: 2, LineSize: 64, Replacement: "lru", WriteBack: true, Seed: 7})
		now := int64(0)
		reserved := map[uint64]bool{}
		for _, op := range ops {
			now++
			addr := uint64(op%16) * 64
			switch c.Lookup(addr, op%3 == 0, now) {
			case Miss:
				if _, _, ok := c.Reserve(addr, now); ok {
					reserved[addr] = true
				}
			case HitReserved:
				// outstanding; nothing to do
			case Hit:
				if reserved[addr] {
					return false // hit on a line still marked reserved by us
				}
			}
			// Randomly complete one outstanding fill.
			if len(reserved) > 0 && op%2 == 0 {
				for a := range reserved {
					c.Fill(a, now, false)
					delete(reserved, a)
					break
				}
			}
			if c.CountState(Valid)+c.CountState(Reserved) > 4 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
