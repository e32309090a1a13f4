// Package cache implements the set-associative tag-array model shared
// by the private L1 data caches and the shared L2 slices, together
// with the MSHR (miss status holding register) table.
//
// The model is allocate-on-miss, like GPGPU-Sim: a miss *reserves* a
// line in the target set before the fill returns. If every line in a
// set is already reserved by outstanding misses, further misses to
// that set fail with a reservation failure and the requesting pipeline
// stalls — one of the cache-resource contention effects the paper's
// §I implication ② describes.
package cache

import (
	"fmt"
	"math/bits"
	"math/rand/v2"
)

// LineState is the lifecycle state of one cache line.
type LineState uint8

const (
	// Invalid lines hold no tag.
	Invalid LineState = iota
	// Reserved lines were allocated by an outstanding miss and await
	// their fill; they cannot be evicted.
	Reserved
	// Valid lines hold data.
	Valid
)

// String implements fmt.Stringer.
func (s LineState) String() string {
	switch s {
	case Invalid:
		return "invalid"
	case Reserved:
		return "reserved"
	case Valid:
		return "valid"
	default:
		return fmt.Sprintf("LineState(%d)", uint8(s))
	}
}

// line is one way. meta packs the line's state (bits 0-1), its dirty
// flag (bit 2) and its replacement stamp (bits 3 and up): the
// reservation, fill and (under LRU only) hit cycles each overwrite the
// stamp, so it is the last use for LRU and the fill time for FIFO.
// Stamps are cycle numbers, non-negative and far below 2^61, so a line
// fits 16 bytes.
type line struct {
	tag  uint64
	meta uint64
}

const (
	stateMask  = 3
	dirtyBit   = 4
	stampShift = 3
)

func newLine(tag uint64, s LineState, now int64) line {
	return line{tag: tag, meta: uint64(now)<<stampShift | uint64(s)}
}

func (l *line) state() LineState { return LineState(l.meta & stateMask) }
func (l *line) dirty() bool      { return l.meta&dirtyBit != 0 }
func (l *line) stamp() int64     { return int64(l.meta >> stampShift) }

func (l *line) setState(s LineState) { l.meta = l.meta&^stateMask | uint64(s) }
func (l *line) markDirty()           { l.meta |= dirtyBit }
func (l *line) setStamp(now int64) {
	l.meta = l.meta&(stateMask|dirtyBit) | uint64(now)<<stampShift
}

// Config parameterizes a cache instance.
type Config struct {
	Sets        int
	Ways        int
	LineSize    int
	Replacement string // "lru", "fifo" or "random"
	// WriteBack marks dirty lines on write hits and emits the victim
	// on eviction (L2). When false the cache is write-through
	// no-allocate (L1): write hits stay clean, write misses do not
	// allocate.
	WriteBack bool
	// Seed drives the "random" replacement policy.
	Seed uint64
	// PinHits, when positive, biases Reserve's victim selection (the
	// L2 insertion/priority seam, see internal/policy): a Valid line
	// that has served at least PinHits hits since its fill is skipped
	// while an unprotected candidate exists. 0 is the baseline: pure
	// replacement-policy selection.
	PinHits int64
}

// Stats counts cache events.
type Stats struct {
	Accesses         int64
	Hits             int64
	Misses           int64
	HitsReserved     int64 // secondary accesses to an in-flight line
	ReservationFails int64 // set had no evictable line
	Evictions        int64
	DirtyEvictions   int64
}

// HitRate returns hits / accesses, or 0 without accesses.
func (s Stats) HitRate() float64 {
	if s.Accesses == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Accesses)
}

// MissRate returns (misses + reserved hits) / accesses: accesses that
// could not be served from valid data.
func (s Stats) MissRate() float64 {
	if s.Accesses == 0 {
		return 0
	}
	return float64(s.Misses+s.HitsReserved) / float64(s.Accesses)
}

// Cache is a set-associative tag array. It tracks tags and states only
// (no data payloads — the simulator is timing-only). Owners hold it by
// value, so a cache costs one allocation, its tag array; a Cache must
// not be copied once in use (copies share the array).
type Cache struct {
	cfg Config
	// lines holds every set's ways, set-major, in one slab: set i is
	// lines[i*Ways : (i+1)*Ways] (set).
	lines     []line
	setShift  uint
	setMask   uint64
	lru       bool     // hits refresh line stamps
	pcg       rand.PCG // the random policy's draws
	stats     Stats
	lineShift uint
	// hits counts reuse per way (set-major), reset when the way is
	// re-reserved. Allocated only with PinHits > 0 so the baseline
	// footprint is untouched; nil means no counting.
	hits []int64
}

// New builds a cache. Sets and LineSize must be powers of two.
func New(cfg Config) Cache {
	if cfg.Sets <= 0 || cfg.Sets&(cfg.Sets-1) != 0 {
		panic(fmt.Sprintf("cache: sets must be a power of two, got %d", cfg.Sets))
	}
	if cfg.LineSize <= 0 || cfg.LineSize&(cfg.LineSize-1) != 0 {
		panic(fmt.Sprintf("cache: line size must be a power of two, got %d", cfg.LineSize))
	}
	if cfg.Ways <= 0 {
		panic(fmt.Sprintf("cache: ways must be positive, got %d", cfg.Ways))
	}
	switch cfg.Replacement {
	case "lru", "fifo", "random":
	default:
		panic(fmt.Sprintf("cache: unknown replacement policy %q", cfg.Replacement))
	}
	c := Cache{
		cfg:       cfg,
		lines:     make([]line, cfg.Sets*cfg.Ways),
		setShift:  uint(bits.TrailingZeros(uint(cfg.LineSize))),
		setMask:   uint64(cfg.Sets - 1),
		lru:       cfg.Replacement == "lru",
		lineShift: uint(bits.TrailingZeros(uint(cfg.LineSize))),
	}
	c.pcg.Seed(cfg.Seed, 0xcac4e)
	if cfg.PinHits > 0 {
		c.hits = make([]int64, cfg.Sets*cfg.Ways)
	}
	return c
}

// Stats returns a copy of the event counters.
func (c *Cache) Stats() Stats { return c.stats }

// set returns the ways of set i.
func (c *Cache) set(i int) []line {
	w := c.cfg.Ways
	return c.lines[i*w : (i+1)*w : (i+1)*w]
}

// SetIndex returns the set an address maps to.
func (c *Cache) SetIndex(addr uint64) int {
	return int((addr >> c.setShift) & c.setMask)
}

func (c *Cache) tag(addr uint64) uint64 { return addr >> c.setShift }

// AccessResult describes the outcome of a Lookup.
type AccessResult uint8

const (
	// Hit means the line is Valid.
	Hit AccessResult = iota
	// HitReserved means the line is allocated but its fill is still
	// outstanding: the access must merge into the MSHR entry.
	HitReserved
	// Miss means the line is absent.
	Miss
)

// String implements fmt.Stringer.
func (r AccessResult) String() string {
	switch r {
	case Hit:
		return "hit"
	case HitReserved:
		return "hit-reserved"
	case Miss:
		return "miss"
	default:
		return fmt.Sprintf("AccessResult(%d)", uint8(r))
	}
}

// Lookup probes the tag array and updates replacement and hit/miss
// statistics. For write hits on a write-back cache the line is marked
// dirty; write accesses on a write-through cache never dirty lines.
func (c *Cache) Lookup(addr uint64, isWrite bool, now int64) AccessResult {
	c.stats.Accesses++
	setIdx := c.SetIndex(addr)
	set := c.set(setIdx)
	tag := c.tag(addr)
	for i := range set {
		ln := &set[i]
		if ln.state() == Invalid || ln.tag != tag {
			continue
		}
		if ln.state() == Reserved {
			c.stats.HitsReserved++
			return HitReserved
		}
		if c.lru {
			ln.setStamp(now)
		}
		if c.hits != nil {
			c.hits[setIdx*c.cfg.Ways+i]++
		}
		if isWrite && c.cfg.WriteBack {
			ln.markDirty()
		}
		c.stats.Hits++
		return Hit
	}
	c.stats.Misses++
	return Miss
}

// Victim describes a line evicted by Reserve.
type Victim struct {
	// Addr is the line address of the evicted line.
	Addr uint64
	// Dirty is true when the victim must be written back.
	Dirty bool
}

// Reserve allocates a line for an outstanding miss, evicting a victim
// chosen by the replacement policy if needed. It returns ok=false —
// a reservation failure — when every way in the set is Reserved.
// A dirty Valid victim is returned for write-back.
func (c *Cache) Reserve(addr uint64, now int64) (v Victim, evicted, ok bool) {
	setIdx := c.SetIndex(addr)
	set := c.set(setIdx)
	tag := c.tag(addr)

	// Prefer an Invalid way.
	for i := range set {
		if set[i].state() == Invalid {
			set[i] = newLine(tag, Reserved, now)
			if c.hits != nil {
				c.hits[setIdx*c.cfg.Ways+i] = 0
			}
			return Victim{}, false, true
		}
	}
	// Otherwise evict a Valid way.
	victimIdx := c.pickVictim(setIdx, set)
	if victimIdx == -1 {
		// Every way is Reserved: reservation failure, caller stalls.
		c.stats.ReservationFails++
		return Victim{}, false, false
	}
	old := set[victimIdx]
	c.stats.Evictions++
	if old.dirty() {
		c.stats.DirtyEvictions++
	}
	set[victimIdx] = newLine(tag, Reserved, now)
	if c.hits != nil {
		c.hits[setIdx*c.cfg.Ways+victimIdx] = 0
	}
	return Victim{Addr: old.tag << c.setShift, Dirty: old.dirty()}, true, true
}

// pickVictim chooses the Valid way to evict. With PinHits set,
// protected lines are skipped while an unprotected candidate exists;
// if every Valid way is protected the choice falls back to the
// unbiased one (the working set outgrew the pin budget).
func (c *Cache) pickVictim(setIdx int, set []line) int {
	if c.hits != nil {
		if idx := c.victimAmong(setIdx, set, true); idx != -1 {
			return idx
		}
	}
	return c.victimAmong(setIdx, set, false)
}

// victimAmong runs the replacement policy over the set's Valid ways;
// with filtered true, ways whose reuse count reaches PinHits are
// excluded from consideration.
func (c *Cache) victimAmong(setIdx int, set []line, filtered bool) int {
	protected := func(i int) bool {
		return filtered && c.hits[setIdx*c.cfg.Ways+i] >= c.cfg.PinHits
	}
	victimIdx := -1
	switch c.cfg.Replacement {
	case "lru", "fifo":
		var oldest int64
		for i := range set {
			if set[i].state() != Valid || protected(i) {
				continue
			}
			if victimIdx == -1 || set[i].stamp() < oldest {
				victimIdx, oldest = i, set[i].stamp()
			}
		}
	case "random":
		valid := make([]int, 0, len(set))
		for i := range set {
			if set[i].state() != Valid || protected(i) {
				continue
			}
			valid = append(valid, i)
		}
		if len(valid) > 0 {
			// A Rand holds nothing but its source, so a fresh one
			// over the cache's PCG draws exactly what a kept one would.
			victimIdx = valid[rand.New(&c.pcg).IntN(len(valid))]
		}
	}
	return victimIdx
}

// Fill completes an outstanding miss, transitioning the reserved line
// to Valid. makeDirty marks the line dirty immediately (write-allocate
// store miss on a write-back cache). Filling a line that is not
// Reserved is a simulator bug and panics.
func (c *Cache) Fill(addr uint64, now int64, makeDirty bool) {
	set := c.set(c.SetIndex(addr))
	tag := c.tag(addr)
	for i := range set {
		if set[i].tag == tag && set[i].state() == Reserved {
			set[i].setState(Valid)
			set[i].setStamp(now)
			if makeDirty && c.cfg.WriteBack {
				set[i].markDirty()
			}
			return
		}
	}
	panic(fmt.Sprintf("cache: Fill(%#x) without matching reserved line", addr))
}

// State returns the state of the line holding addr, or Invalid.
func (c *Cache) State(addr uint64) LineState {
	set := c.set(c.SetIndex(addr))
	tag := c.tag(addr)
	for i := range set {
		if set[i].state() != Invalid && set[i].tag == tag {
			return set[i].state()
		}
	}
	return Invalid
}

// CountState returns how many lines across the cache are in state s;
// used by tests and occupancy diagnostics.
func (c *Cache) CountState(s LineState) int {
	n := 0
	for i := range c.lines {
		if c.lines[i].state() == s {
			n++
		}
	}
	return n
}

// ResetStats zeroes the event counters for a new measurement window;
// tag state is untouched.
func (c *Cache) ResetStats() { c.stats = Stats{} }

// Probe reports the state an access to addr would find, without
// updating statistics, replacement metadata, or dirtiness. Pipeline
// stages use it to test feasibility before committing an access;
// blocked requests that retry every cycle must not inflate the
// hit/miss counters.
func (c *Cache) Probe(addr uint64) AccessResult {
	set := c.set(c.SetIndex(addr))
	tag := c.tag(addr)
	for i := range set {
		if set[i].state() == Invalid || set[i].tag != tag {
			continue
		}
		if set[i].state() == Reserved {
			return HitReserved
		}
		return Hit
	}
	return Miss
}

// CanReserve reports whether Reserve for addr would succeed: the set
// has an Invalid way or an evictable Valid way.
func (c *Cache) CanReserve(addr uint64) bool {
	set := c.set(c.SetIndex(addr))
	for i := range set {
		if set[i].state() != Reserved {
			return true
		}
	}
	return false
}
