package stats

import (
	"bytes"
	"encoding/json"
	"fmt"
)

// StallCause is one category of the per-cycle issue-slot attribution:
// every core cycle an SM either issues or fails to, and the failure is
// charged to exactly one cause. The memory-wait causes (StallL1Miss
// through StallDRAMQueue) form the hierarchical part of the breakdown:
// an SM that is blocked on outstanding L1 misses charges the deepest
// saturated level of the hierarchy below it, which is how the paper's
// "back pressure propagates upward" story becomes a stall stack.
type StallCause int

const (
	// StallIssue is not a stall: at least one warp instruction issued
	// this cycle (forward progress — the "compute" bar of the stack).
	StallIssue StallCause = iota
	// StallScoreboard: no warp could issue and no L1 miss is
	// outstanding — a pure dependency wait (e.g. on the L1 hit
	// latency of an in-flight load).
	StallScoreboard
	// StallMemPipe: the SM's own memory pipeline is the bottleneck —
	// the coalescer drain, LDST queue, L1 miss queue or response queue
	// hold work, but nothing is waiting below the L1.
	StallMemPipe
	// StallL1Miss: L1 misses are outstanding and no level below
	// reports back pressure — the stall is pure memory latency
	// (L1-miss service time). Fixed-latency mode charges all memory
	// waits here: there is no hierarchy below the L1 to saturate.
	StallL1Miss
	// StallIcnt: L1 misses outstanding and an interconnect input
	// buffer is full — the crossbar is the shallowest congested level.
	StallIcnt
	// StallL2Queue: L1 misses outstanding and an L2 access queue is
	// full — the partition cannot absorb the request stream.
	StallL2Queue
	// StallDRAMQueue: L1 misses outstanding and a DRAM scheduler
	// queue is full — the deepest level is saturated, the root cause
	// of every queue backed up above it.
	StallDRAMQueue

	// NumStallCauses sizes StallBreakdown's counter array.
	NumStallCauses
)

// String returns the cause's report label.
func (c StallCause) String() string {
	switch c {
	case StallIssue:
		return "issue"
	case StallScoreboard:
		return "scoreboard"
	case StallMemPipe:
		return "mem-pipe"
	case StallL1Miss:
		return "l1-miss"
	case StallIcnt:
		return "icnt"
	case StallL2Queue:
		return "l2-queue"
	case StallDRAMQueue:
		return "dram-queue"
	default:
		return fmt.Sprintf("cause(%d)", int(c))
	}
}

// StallBreakdown attributes issue slots to causes: one charge per SM
// per core cycle, so Total always equals the owning SM's cycle count
// and a GPU-wide merge equals cycles × SMs. The zero value is ready to
// use, holds no pointers, and charging never allocates — it lives on
// the per-cycle hot path next to the other SM counters.
type StallBreakdown struct {
	cycles [NumStallCauses]int64
}

// Add charges one cycle to cause.
func (b *StallBreakdown) Add(c StallCause) { b.cycles[c]++ }

// AddN charges n consecutive cycles to cause in one call — the batch
// form Add takes when a sleeping SM's ticks are charged
// (core.SM.SkipIdle).
func (b *StallBreakdown) AddN(c StallCause, n int64) {
	if n > 0 {
		b.cycles[c] += n
	}
}

// Cycles returns the cycles charged to cause.
func (b *StallBreakdown) Cycles(c StallCause) int64 { return b.cycles[c] }

// Total returns all attributed cycles. For a per-SM breakdown this is
// exactly the SM's cycle count; merged across SMs it is the GPU's
// issue-slot count (cycles × SMs).
func (b *StallBreakdown) Total() int64 {
	var t int64
	for _, n := range b.cycles {
		t += n
	}
	return t
}

// Frac returns cause's share of all attributed cycles, or 0 when
// nothing has been attributed.
func (b *StallBreakdown) Frac(c StallCause) float64 {
	t := b.Total()
	if t == 0 {
		return 0
	}
	return float64(b.cycles[c]) / float64(t)
}

// Merge folds other into b (per-SM breakdowns into a GPU-wide stack).
func (b *StallBreakdown) Merge(other StallBreakdown) {
	for c := range b.cycles {
		b.cycles[c] += other.cycles[c]
	}
}

// Dominant returns the cause with the most attributed cycles — the
// "what is this workload bound by" answer. Ties break toward the
// lower cause index, deterministically.
func (b *StallBreakdown) Dominant() StallCause {
	best := StallIssue
	for c := StallCause(1); c < NumStallCauses; c++ {
		if b.cycles[c] > b.cycles[best] {
			best = c
		}
	}
	return best
}

// Reset zeroes the breakdown for a new measurement window.
func (b *StallBreakdown) Reset() { *b = StallBreakdown{} }

// MarshalJSON renders the breakdown as an object keyed by cause label,
// in cause order ({"issue":N,"scoreboard":N,...}). The encoding is
// stable — same breakdown, same bytes — which is what lets serialized
// sim.Results be content-addressed and compared byte-for-byte by the
// result cache.
func (b StallBreakdown) MarshalJSON() ([]byte, error) {
	var buf bytes.Buffer
	buf.WriteByte('{')
	for c := StallCause(0); c < NumStallCauses; c++ {
		if c > 0 {
			buf.WriteByte(',')
		}
		fmt.Fprintf(&buf, "%q:%d", c.String(), b.cycles[c])
	}
	buf.WriteByte('}')
	return buf.Bytes(), nil
}

// UnmarshalJSON parses the MarshalJSON form. Unknown cause labels and
// negative cycle counts are rejected: a decoded breakdown must be one
// this code could have produced. Absent causes stay zero, so the
// format tolerates a decoder that is newer than the encoder.
func (b *StallBreakdown) UnmarshalJSON(data []byte) error {
	var raw map[string]int64
	if err := json.Unmarshal(data, &raw); err != nil {
		return fmt.Errorf("stats: parse stall breakdown: %w", err)
	}
	var out StallBreakdown
	for label, n := range raw {
		cause, ok := causeByLabel(label)
		if !ok {
			return fmt.Errorf("stats: unknown stall cause %q", label)
		}
		if n < 0 {
			return fmt.Errorf("stats: stall cause %q has negative cycles %d", label, n)
		}
		out.cycles[cause] = n
	}
	*b = out
	return nil
}

// causeByLabel inverts StallCause.String.
func causeByLabel(label string) (StallCause, bool) {
	for c := StallCause(0); c < NumStallCauses; c++ {
		if c.String() == label {
			return c, true
		}
	}
	return 0, false
}
