// Package mem defines the memory request and packet types exchanged
// between the SIMT cores, the interconnect, the L2 partitions and the
// DRAM channels. It is the shared vocabulary of the memory hierarchy.
package mem

import "fmt"

// AccessKind distinguishes reads from writes throughout the hierarchy.
type AccessKind uint8

const (
	// Load is a read access (L1 fill / L2 read / DRAM read).
	Load AccessKind = iota
	// Store is a write access. L1 is write-through no-allocate for
	// global stores (Fermi), so stores travel to L2 as write packets.
	Store
	// Writeback is a dirty-line eviction from the write-back L2
	// travelling to DRAM. It never generates a response.
	Writeback
)

// String implements fmt.Stringer.
func (k AccessKind) String() string {
	switch k {
	case Load:
		return "load"
	case Store:
		return "store"
	case Writeback:
		return "writeback"
	default:
		return fmt.Sprintf("AccessKind(%d)", uint8(k))
	}
}

// Request is a single line-granular memory transaction below the
// coalescer. A warp-level load coalesces into one or more Requests.
type Request struct {
	// ID labels the request (tests, String); nothing in the timing
	// model reads it. It increases with creation order and is unique
	// per GPU with the full hierarchy, and per SM in Fig. 1
	// (fixed-latency) mode, where each SM has its own counter.
	ID uint64
	// Addr is the byte address of the access. The memory system
	// operates on the enclosing line ([Request.LineAddr]).
	Addr uint64
	// LineSize is the cache-line size the hierarchy operates on.
	LineSize uint64
	// Kind says whether this is a load, store or L2 writeback.
	Kind AccessKind
	// NoFill marks a load whose L1 fill is routed around the cache (a
	// bypassing fill policy declined to allocate the line): no way was
	// reserved, and the response must not install the line. Only the
	// issuing core reads it; the hierarchy below ignores it. It sits
	// beside Kind to share its padding byte rather than widen the
	// pooled struct.
	NoFill bool
	// CoreID is the issuing SM (or -1 for L2-generated traffic such
	// as writebacks).
	CoreID int
	// WarpID is the issuing warp within the SM (or -1).
	WarpID int
	// PartitionID is the destination L2 partition, filled in by the
	// address decoder when the request leaves the core.
	PartitionID int
	// IssueCycle is the core-clock cycle at which the request missed
	// in the L1 and entered the downstream hierarchy. Latency
	// statistics are measured from here.
	IssueCycle int64
	// Meta carries an opaque cookie for the issuing core (e.g. the
	// LDST-unit tracking slot). The memory system never inspects it.
	Meta any
}

// LineAddr returns the address of the cache line containing the access.
func (r *Request) LineAddr() uint64 {
	return r.Addr &^ (r.LineSize - 1)
}

// String implements fmt.Stringer for debugging and trace output.
func (r *Request) String() string {
	return fmt.Sprintf("req{id=%d %s addr=%#x core=%d warp=%d part=%d}",
		r.ID, r.Kind, r.Addr, r.CoreID, r.WarpID, r.PartitionID)
}

// Packet is the unit carried by the interconnect. Requests travel on
// the request network (cores -> partitions) and responses on the
// response network (partitions -> cores).
type Packet struct {
	// Req is the memory transaction this packet carries or answers.
	Req *Request
	// IsResponse is true on the response network.
	IsResponse bool
	// Src and Dst are network port indices: core index on the core
	// side, partition index on the memory side.
	Src, Dst int
	// SizeBytes is the wire size of the packet (header plus payload),
	// which the crossbar serializes into flits.
	SizeBytes int
	// ReadyAt is the earliest cycle (in the receiving domain's clock)
	// at which the packet may be consumed from the destination queue;
	// it models fixed wire/pipeline latency without unbounded buffers.
	ReadyAt int64
}

// ControlBytes is the size of a packet header: address, ids, opcode.
const ControlBytes = 8

// RequestPacketBytes returns the wire size of a request packet: reads
// are header-only; writes carry the store payload.
func RequestPacketBytes(r *Request) int {
	if r.Kind == Load {
		return ControlBytes
	}
	return ControlBytes + int(r.LineSize)
}

// ResponsePacketBytes returns the wire size of a read response, which
// carries a full line of data plus the header.
func ResponsePacketBytes(r *Request) int {
	return ControlBytes + int(r.LineSize)
}
