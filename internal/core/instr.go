// Package core models the SIMT cores (streaming multiprocessors): warp
// scheduling, scoreboard-style load blocking, the LDST unit with its
// bounded memory pipeline, and the private L1 data cache with MSHRs
// and miss queue.
package core

import "fmt"

// InstrKind classifies warp instructions.
type InstrKind uint8

const (
	// ALU is any non-memory instruction (arithmetic, control);
	// it issues in one cycle and has no structural hazards here.
	ALU InstrKind = iota
	// Mem is a global-memory load or store.
	Mem
)

// String implements fmt.Stringer.
func (k InstrKind) String() string {
	switch k {
	case ALU:
		return "alu"
	case Mem:
		return "mem"
	default:
		return fmt.Sprintf("InstrKind(%d)", uint8(k))
	}
}

// Instr is one warp instruction.
type Instr struct {
	Kind InstrKind
	// Store marks a memory instruction as a global store.
	Store bool
	// Lines holds the distinct line-aligned addresses a memory
	// instruction touches, in first-appearance order: the warp's
	// access after coalescing (the workload generators coalesce as
	// they generate). The backing array is only valid until the next
	// NextInto call.
	Lines []uint64
	// DepDist is, for loads, the number of subsequent instructions
	// that are independent of the loaded value: the warp may run that
	// far ahead before blocking. Larger values model more
	// instruction-level latency tolerance.
	DepDist int
	// Run is the number of consecutive identical instructions this
	// Instr stands for; 0 and 1 both mean a single instruction.
	// Streams batch uniform compute (non-Mem) stretches into one
	// Run>1 Instr so the per-instruction stream call disappears from
	// the issue hot path; the SM still issues the run one
	// instruction per slot, decrementing Run in place, and skips the
	// readiness re-check while the scoreboard cannot block the next
	// one (SM.issue). Memory instructions are never batched (Run <= 1).
	Run int
}

// InstrStream produces a warp's dynamic instruction stream. Streams
// are infinite; the simulator measures IPC over a fixed cycle window.
//
// NextInto writes the next instruction into *in rather than returning
// it: the fetch path runs once per issued instruction and the in-place
// form spares a 48-byte struct copy through the interface boundary.
// For non-Mem kinds only Kind is meaningful — an implementation may
// leave the other fields stale from a previous call, and consumers
// must not read them.
//
// A stream may reuse the Lines backing array: the slice written by one
// NextInto call is only valid until the next call. Consumers (the SM)
// copy Lines into their own storage before fetching again.
type InstrStream interface {
	NextInto(in *Instr)
}

// NextOf is the convenience value form of InstrStream.NextInto, for
// callers outside the per-cycle hot path (tests).
func NextOf(s InstrStream) Instr {
	var in Instr
	s.NextInto(&in)
	return in
}
