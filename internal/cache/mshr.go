package cache

import (
	"fmt"

	"repro/internal/mem"
)

// MSHR is a miss status holding register table: one entry per
// outstanding missed line, with a bounded list of merged requests per
// entry. Exhaustion of entries or merge slots is a structural stall —
// the paper's §I implication ② ("prolonged contention of cache
// resources such as MSHRs ... serializes succeeding requests").
//
// The table is built whole at construction, in three allocations: the
// entries, their request lists (one slab, maxMerge slots per entry)
// and the line index. Allocate and Release only move entries within
// it, so an MSHR allocates nothing after NewMSHR. Owners hold it by
// value; it must not be copied once in use.
type MSHR struct {
	// lines and entries are parallel over the live prefix: the first
	// len(lines) entries are live, and lines[i] is entries[i].LineAddr.
	// The table is searched linearly over the compact lines slice —
	// with at most maxEntry (32–128) live misses, and usually far
	// fewer, a cache-friendly word scan beats a map lookup on the hot
	// allocate/release path. Slot order is not meaningful (Release
	// swaps the released entry past the live prefix); nothing iterates
	// the table.
	lines    []uint64
	entries  []MSHREntry
	maxMerge int
	stats    MSHRStats
}

// MSHREntry tracks one outstanding line miss and its merged requests.
type MSHREntry struct {
	LineAddr uint64
	// Requests holds the primary miss and every merged secondary miss.
	Requests []*mem.Request
	// AllocCycle is when the entry was allocated, for latency stats.
	AllocCycle int64
}

// MSHRStats counts MSHR events.
type MSHRStats struct {
	Allocs     int64 // primary misses that created an entry
	Merges     int64 // secondary misses folded into an entry
	FullStalls int64 // allocation failures: no free entry
	MergeFails int64 // merge failures: entry merge list full
	PeakUsed   int   // high-water mark of live entries
}

// AllocResult reports the outcome of an MSHR allocation attempt.
type AllocResult uint8

const (
	// AllocNew created a fresh entry: the caller must send the miss
	// downstream.
	AllocNew AllocResult = iota
	// AllocMerged merged into an existing entry: no downstream
	// traffic needed.
	AllocMerged
	// AllocStallFull failed: no free entry. The caller must stall.
	AllocStallFull
	// AllocStallMerge failed: the entry's merge list is full.
	AllocStallMerge
)

// String implements fmt.Stringer.
func (r AllocResult) String() string {
	switch r {
	case AllocNew:
		return "new"
	case AllocMerged:
		return "merged"
	case AllocStallFull:
		return "stall-full"
	case AllocStallMerge:
		return "stall-merge"
	default:
		return fmt.Sprintf("AllocResult(%d)", uint8(r))
	}
}

// NewMSHR builds a table with maxEntry entries and maxMerge requests
// per entry (the primary miss counts toward maxMerge).
func NewMSHR(maxEntry, maxMerge int) MSHR {
	if maxEntry <= 0 || maxMerge <= 0 {
		panic(fmt.Sprintf("mshr: sizes must be positive, got %d/%d", maxEntry, maxMerge))
	}
	entries := make([]MSHREntry, maxEntry)
	reqs := make([]*mem.Request, maxEntry*maxMerge)
	for i := range entries {
		entries[i].Requests = reqs[i*maxMerge : i*maxMerge : (i+1)*maxMerge]
	}
	return MSHR{
		lines:    make([]uint64, 0, maxEntry),
		entries:  entries,
		maxMerge: maxMerge,
	}
}

// find returns the slot index of lineAddr, or -1.
func (m *MSHR) find(lineAddr uint64) int {
	for i, l := range m.lines {
		if l == lineAddr {
			return i
		}
	}
	return -1
}

// Allocate records a miss on lineAddr for req.
func (m *MSHR) Allocate(lineAddr uint64, req *mem.Request, now int64) AllocResult {
	if i := m.find(lineAddr); i >= 0 {
		e := &m.entries[i]
		if len(e.Requests) >= m.maxMerge {
			m.stats.MergeFails++
			return AllocStallMerge
		}
		e.Requests = append(e.Requests, req)
		m.stats.Merges++
		return AllocMerged
	}
	n := len(m.lines)
	if n >= len(m.entries) {
		m.stats.FullStalls++
		return AllocStallFull
	}
	e := &m.entries[n]
	e.LineAddr = lineAddr
	e.Requests = append(e.Requests[:0], req)
	e.AllocCycle = now
	m.lines = append(m.lines, lineAddr)
	m.stats.Allocs++
	if n+1 > m.stats.PeakUsed {
		m.stats.PeakUsed = n + 1
	}
	return AllocNew
}

// Lookup returns the entry for lineAddr, or nil. The pointer is valid
// until the next Allocate or Release.
func (m *MSHR) Lookup(lineAddr uint64) *MSHREntry {
	if i := m.find(lineAddr); i >= 0 {
		return &m.entries[i]
	}
	return nil
}

// Release completes the miss on lineAddr and returns all merged
// requests for response generation. Releasing an absent line panics:
// it indicates a response without a matching outstanding miss.
//
// The returned slice is the entry's backing storage and is recycled:
// it is valid only until the next Allocate on this MSHR. Callers
// consume it immediately (the simulator's tick functions do).
func (m *MSHR) Release(lineAddr uint64) []*mem.Request {
	i := m.find(lineAddr)
	if i < 0 {
		panic(fmt.Sprintf("mshr: Release(%#x) without entry", lineAddr))
	}
	last := len(m.lines) - 1
	m.lines[i] = m.lines[last]
	m.lines = m.lines[:last]
	m.entries[i], m.entries[last] = m.entries[last], m.entries[i]
	return m.entries[last].Requests
}

// Used returns the number of live entries.
func (m *MSHR) Used() int { return len(m.lines) }

// Full reports whether no entry can be allocated.
func (m *MSHR) Full() bool { return len(m.lines) >= len(m.entries) }

// Stats returns a copy of the event counters.
func (m *MSHR) Stats() MSHRStats { return m.stats }

// ResetStats zeroes the event counters for a new measurement window;
// live entries are untouched and seed the new peak.
func (m *MSHR) ResetStats() { m.stats = MSHRStats{PeakUsed: len(m.lines)} }

// CanMerge reports whether a secondary miss on lineAddr could merge
// into the existing entry without stalling.
func (m *MSHR) CanMerge(lineAddr uint64) bool {
	i := m.find(lineAddr)
	return i >= 0 && len(m.entries[i].Requests) < m.maxMerge
}
