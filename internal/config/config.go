// Package config defines the simulated GPU's architectural parameters.
// The baseline models an NVIDIA GTX480 (Fermi) as configured in
// GPGPU-Sim, with the queue/MSHR/bank/port values taken verbatim from
// Table I of Dublish et al., IISWC 2016. The Table I design-space
// transforms (≈4× scaling of the L1, L2 and DRAM groups) live in
// scaling.go.
package config

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"reflect"
	"slices"
	"strings"
	"unsafe"

	"repro/internal/policy"
)

// Config is the complete architectural description of one simulation.
type Config struct {
	// Seed drives every pseudo-random choice (workload address
	// streams, random replacement). Identical seeds give bit-identical
	// simulations.
	Seed uint64 `json:"seed"`

	Core  CoreConfig  `json:"core"`
	L1    L1Config    `json:"l1"`
	Icnt  IcntConfig  `json:"icnt"`
	L2    L2Config    `json:"l2"`
	DRAM  DRAMConfig  `json:"dram"`
	Clock ClockConfig `json:"clock"`

	// FixedLatency, when enabled, replaces the entire hierarchy below
	// the L1 with an infinite-bandwidth responder that returns every
	// L1 miss after exactly Cycles core cycles — the Fig. 1 apparatus.
	FixedLatency FixedLatencyConfig `json:"fixed_latency"`

	// Policy selects the pluggable mitigation policies (see
	// internal/policy): the empty string on every field is the
	// baseline, behaviorally identical to the pre-seam simulator.
	Policy PolicyConfig `json:"policy"`
}

// PolicyConfig names the mitigation policy at each of the three
// simulator seams. Names are strictly validated: an unknown name is
// rejected by Validate with the registered list.
type PolicyConfig struct {
	// Issue overrides the warp scheduler seam: "" defers to
	// Core.Scheduler; "gto", "lrr" or "throttle" (MSHR-aware
	// memory-warp throttling) select a policy directly.
	Issue string `json:"issue,omitempty"`
	// L1Fill selects the L1 fill/bypass policy: "" or "always" is the
	// baseline; "bypass-low-reuse" routes first-touch (streaming)
	// fills around the L1.
	L1Fill string `json:"l1_fill,omitempty"`
	// L2Insert selects the L2 insertion/priority policy: "" or
	// "plain" is the baseline; "pin-hot" protects lines with proven
	// reuse from eviction.
	L2Insert string `json:"l2_insert,omitempty"`
}

// FixedLatencyConfig configures the Fig. 1 latency-tolerance mode.
type FixedLatencyConfig struct {
	Enabled bool  `json:"enabled"`
	Cycles  int64 `json:"cycles"`
}

// CoreConfig describes the SIMT cores (SMs).
type CoreConfig struct {
	// NumSMs is the number of streaming multiprocessors (GTX480: 15).
	NumSMs int `json:"num_sms"`
	// WarpSize is the number of threads per warp (32).
	WarpSize int `json:"warp_size"`
	// MaxWarpsPerSM bounds resident warps per SM (Fermi: 48).
	MaxWarpsPerSM int `json:"max_warps_per_sm"`
	// IssueWidth is the number of warps that may issue per cycle.
	IssueWidth int `json:"issue_width"`
	// Scheduler selects the warp scheduler: "gto" (greedy-then-oldest)
	// or "lrr" (loose round-robin).
	Scheduler string `json:"scheduler"`
	// MemPipelineWidth is Table I(c)'s "memory pipeline width": the
	// number of in-flight line transactions the LDST unit buffers
	// between the coalescer and the L1 (baseline 10, scaled 40).
	MemPipelineWidth int `json:"mem_pipeline_width"`
	// ResponseQueue bounds response packets parked at the core's
	// interconnect ejection port awaiting L1 fill.
	ResponseQueue int `json:"response_queue"`
}

// L1Config describes each SM's private L1 data cache.
type L1Config struct {
	// Sets × Ways × LineSize bytes of storage (Fermi 16KB: 32×4×128).
	Sets     int `json:"sets"`
	Ways     int `json:"ways"`
	LineSize int `json:"line_size"`
	// HitLatency is the load-to-use latency of an L1 hit, in core
	// cycles.
	HitLatency int64 `json:"hit_latency" min:"0"`
	// MSHREntries is the number of outstanding distinct line misses
	// (Table I(c): baseline 32, scaled 128).
	MSHREntries int `json:"mshr_entries"`
	// MSHRMaxMerge is the number of requests that can merge on one
	// outstanding line before secondary misses stall.
	MSHRMaxMerge int `json:"mshr_max_merge"`
	// MissQueue is the depth of the L1→interconnect miss queue
	// (Table I(c): baseline 8, scaled 32).
	MissQueue int `json:"miss_queue"`
	// Replacement selects "lru", "fifo" or "random".
	Replacement string `json:"replacement"`
}

// IcntConfig describes the core↔memory crossbar pair.
type IcntConfig struct {
	// FlitSizeBytes is the crossbar transfer granule per lane per
	// cycle (Table I(b): baseline 4, scaled 16). Packet serialization
	// latency is ceil(size/(flit×lanes)).
	FlitSizeBytes int `json:"flit_size_bytes"`
	// LanesPerPort is the number of parallel flit lanes per port — the
	// link's internal speedup, fixed hardware not part of the Table I
	// design space. Effective port bandwidth is FlitSizeBytes×Lanes
	// bytes/cycle.
	LanesPerPort int `json:"lanes_per_port"`
	// InputBuffer is the per-input-port packet buffer depth.
	InputBuffer int `json:"input_buffer"`
	// WireLatency is the fixed traversal latency, in interconnect
	// cycles, added to every packet on top of serialization and
	// queueing. Two traversals plus the L2 pipeline reproduce the
	// paper's ~120-cycle unloaded L2 round trip.
	WireLatency int64 `json:"wire_latency" min:"0"`
}

// L2Config describes the shared, banked L2, one slice per memory
// partition.
type L2Config struct {
	// Partitions is the number of memory partitions, each pairing an
	// L2 slice with a DRAM channel (GTX480: 6).
	Partitions int `json:"partitions"`
	// Sets × Ways × LineSize per partition (GTX480 768KB total:
	// 128KB/partition = 128 sets × 8 ways × 128B).
	Sets     int `json:"sets"`
	Ways     int `json:"ways"`
	LineSize int `json:"line_size"`
	// HitLatency is the L2 array pipeline depth in L2 cycles.
	HitLatency int64 `json:"hit_latency" min:"0"`
	// BanksPerPartition is Table I(b)'s "L2 banks" (baseline 2,
	// scaled 8). Banks serve accesses concurrently; each access
	// occupies its bank for the data-port transfer time.
	BanksPerPartition int `json:"banks_per_partition"`
	// DataPortBytes is Table I(b)'s "L2 data port" (baseline 32,
	// scaled 128): bytes a bank moves per L2 cycle, so a 128B line
	// occupies a bank for ceil(128/32)=4 cycles at baseline.
	DataPortBytes int `json:"data_port_bytes"`
	// AccessQueue is the icnt→L2 queue depth (Table I(b): 8→32); §III
	// measures its full-of-usage occupancy (46% in the paper).
	AccessQueue int `json:"access_queue"`
	// MissQueue is the L2→DRAM queue depth (Table I(b): 8→32).
	MissQueue int `json:"miss_queue"`
	// ResponseQueue is the L2→icnt queue depth (Table I(b): 8→32).
	ResponseQueue int `json:"response_queue"`
	// DRAMReturnQueue is the DRAM→L2 fill-return queue depth (sized
	// with ResponseQueue in Table I's "L2 response queue" row).
	DRAMReturnQueue int `json:"dram_return_queue"`
	// MSHREntries is the L2 MSHR count (Table I(b): 32→128).
	MSHREntries int `json:"mshr_entries"`
	// MSHRMaxMerge bounds merges per outstanding L2 line.
	MSHRMaxMerge int `json:"mshr_max_merge"`
	// Replacement selects "lru", "fifo" or "random".
	Replacement string `json:"replacement"`
}

// DRAMConfig describes each partition's GDDR channel.
type DRAMConfig struct {
	// SchedQueue is the scheduler queue depth per channel
	// (Table I(a): baseline 16, scaled 64); §III measures its
	// occupancy (39% full-of-usage in the paper).
	SchedQueue int `json:"sched_queue"`
	// BanksPerChip is Table I(a)'s DRAM banks (baseline 16, scaled
	// 64). All chips on a channel operate in lockstep, so the channel
	// exposes BanksPerChip independent banks.
	BanksPerChip int `json:"banks_per_chip"`
	// ChipsPerChannel is the number of lockstep chips forming the
	// channel's data bus (GTX480: 2 × 32-bit = 64-bit channel).
	ChipsPerChannel int `json:"chips_per_channel"`
	// BusWidthBits is Table I(a)'s per-chip bus width (baseline 32,
	// scaled 64). Channel bytes/cycle = chips × width/8 × 2 (DDR).
	BusWidthBits int `json:"bus_width_bits"`
	// Scheduler selects "frfcfs" (row hits first, then oldest) or
	// "fcfs".
	Scheduler string `json:"scheduler"`
	// RowBytes is the row-buffer size per bank across the channel.
	RowBytes int `json:"row_bytes"`
	// BankHash selects the bank-interleaving function: "none" uses
	// plain modulo; "xor" folds row bits into the bank index
	// (permutation-based interleaving), spreading pathological strides.
	BankHash string `json:"bank_hash"`
	// Timing gives the core timing constraints in DRAM cycles.
	Timing DRAMTiming `json:"timing"`
}

// DRAMTiming holds the DRAM timing constraints in DRAM-clock cycles.
type DRAMTiming struct {
	CL    int64 `json:"cl"`    // column (CAS) latency
	TRCD  int64 `json:"trcd"`  // activate to column command
	TRP   int64 `json:"trp"`   // precharge period
	TRAS  int64 `json:"tras"`  // activate to precharge
	TCCD  int64 `json:"tccd"`  // column-to-column gap
	TWR   int64 `json:"twr"`   // write recovery
	TRRD  int64 `json:"trrd"`  // activate-to-activate, different banks
	TFAW  int64 `json:"tfaw"`  // window for at most four activates
	TREFI int64 `json:"trefi"` // refresh interval
	TRFC  int64 `json:"trfc"`  // refresh cycle time
}

// ClockConfig gives each domain's frequency in MHz. The simulator
// ticks domains in correct rational proportion.
type ClockConfig struct {
	CoreMHz int `json:"core_mhz"`
	IcntMHz int `json:"icnt_mhz"`
	L2MHz   int `json:"l2_mhz"`
	DRAMMHz int `json:"dram_mhz"`
}

// GTX480Baseline returns the paper's baseline architecture: an NVIDIA
// GTX480 Fermi as modeled by GPGPU-Sim, with Table I baseline values.
func GTX480Baseline() Config {
	return Config{
		Seed: 1,
		Core: CoreConfig{
			NumSMs:           15,
			WarpSize:         32,
			MaxWarpsPerSM:    48,
			IssueWidth:       2,
			Scheduler:        "gto",
			MemPipelineWidth: 10, // Table I(c)
			ResponseQueue:    8,
		},
		L1: L1Config{
			Sets:         32, // 16KB: 32 sets × 4 ways × 128B
			Ways:         4,
			LineSize:     128,
			HitLatency:   4,
			MSHREntries:  32, // Table I(c)
			MSHRMaxMerge: 8,
			MissQueue:    8, // Table I(c)
			Replacement:  "lru",
		},
		Icnt: IcntConfig{
			FlitSizeBytes: 4, // Table I(b)
			LanesPerPort:  3,
			InputBuffer:   2,
			WireLatency:   25,
		},
		L2: L2Config{
			Partitions:        6,
			Sets:              128, // 128KB/partition: 128 × 8 × 128B
			Ways:              8,
			LineSize:          128,
			HitLatency:        30,
			BanksPerPartition: 2,  // Table I(b)
			DataPortBytes:     32, // Table I(b)
			AccessQueue:       8,  // Table I(b)
			MissQueue:         8,  // Table I(b)
			ResponseQueue:     8,  // Table I(b)
			DRAMReturnQueue:   8,
			MSHREntries:       32, // Table I(b)
			MSHRMaxMerge:      8,
			Replacement:       "lru",
		},
		DRAM: DRAMConfig{
			SchedQueue:      16, // Table I(a)
			BanksPerChip:    16, // Table I(a)
			ChipsPerChannel: 2,
			BusWidthBits:    32, // Table I(a)
			Scheduler:       "frfcfs",
			RowBytes:        2048,
			BankHash:        "none",
			Timing: DRAMTiming{
				CL:    12,
				TRCD:  12,
				TRP:   12,
				TRAS:  28,
				TCCD:  2,
				TWR:   12,
				TRRD:  6,
				TFAW:  23,
				TREFI: 3900,
				TRFC:  104,
			},
		},
		Clock: ClockConfig{
			CoreMHz: 700,
			IcntMHz: 700,
			L2MHz:   700,
			DRAMMHz: 924,
		},
	}
}

// ChannelBytesPerCycle returns the DRAM channel's peak transfer rate in
// bytes per DRAM cycle (double data rate across all lockstep chips).
func (d DRAMConfig) ChannelBytesPerCycle() int {
	return d.ChipsPerChannel * d.BusWidthBits / 8 * 2
}

// BurstCycles returns the DRAM cycles the data bus is occupied moving
// one cache line of the given size.
func (d DRAMConfig) BurstCycles(lineSize int) int64 {
	bpc := d.ChannelBytesPerCycle()
	return int64((lineSize + bpc - 1) / bpc)
}

// Field is one integer parameter of Config: an entry of the schema
// that Validate, the scaling sets, Table I and the config reference in
// docs/api.md all read.
type Field struct {
	// Path is the field's dotted JSON path, e.g. "l2.hit_latency".
	Path string
	// Min is the smallest value Validate accepts and Bound words it as
	// Validate's errors do: 0 (">= 0") for the latencies, tagged min:"0"
	// as they may be idealized away, and 1 ("positive") for the rest.
	Min    int64
	Bound  string
	offset uintptr // within Config, so Get and Set are one load or store
	wide   bool    // an int64 field rather than an int
}

// fields is the schema: every int and int64 field of Config in struct
// order, named by its JSON tags. The Fig. 1 mode's
// fixed_latency.cycles is left out: Validate checks it only when the
// mode is enabled.
var fields = schemaFields(reflect.TypeOf(Config{}), "", 0)

func schemaFields(t reflect.Type, prefix string, base uintptr) []Field {
	var out []Field
	for i := range t.NumField() {
		sf := t.Field(i)
		tag, _, _ := strings.Cut(sf.Tag.Get("json"), ",")
		path, off := prefix+tag, base+sf.Offset
		switch kind := sf.Type.Kind(); {
		case path == "fixed_latency":
		case kind == reflect.Struct:
			out = append(out, schemaFields(sf.Type, path+".", off)...)
		case kind == reflect.Int || kind == reflect.Int64:
			f := Field{Path: path, Min: 1, Bound: "positive", offset: off, wide: kind == reflect.Int64}
			if sf.Tag.Get("min") == "0" {
				f.Min, f.Bound = 0, ">= 0"
			}
			out = append(out, f)
		}
	}
	return out
}

// Fields returns the schema: every bounded integer field, in struct order.
func Fields() []Field { return slices.Clone(fields) }

// schema returns the fields at the given JSON paths, in struct order.
func schema(paths ...string) []Field {
	return slices.DeleteFunc(Fields(), func(f Field) bool { return !slices.Contains(paths, f.Path) })
}

// Get returns the field's value in c.
func (f Field) Get(c *Config) int64 {
	p := unsafe.Add(unsafe.Pointer(c), f.offset)
	if f.wide {
		return *(*int64)(p)
	}
	return int64(*(*int)(p))
}

// Set stores v in the field of c.
func (f Field) Set(c *Config, v int64) {
	p := unsafe.Add(unsafe.Pointer(c), f.offset)
	if f.wide {
		*(*int64)(p) = v
	} else {
		*(*int)(p) = int(v)
	}
}

// MaxWarpsPerSM is the largest core.max_warps_per_sm Validate
// accepts: the SM's warp scheduler keeps its ready and memory masks in
// one 64-bit word each.
const MaxWarpsPerSM = 64

// Validate checks each schema field's bound (Fields) in struct order,
// then the cross-field rules, and describes the first violation.
func (c Config) Validate() error {
	for _, f := range fields {
		if v := f.Get(&c); v < f.Min {
			return fmt.Errorf("config: %s must be %s, got %d", f.Path, f.Bound, v)
		}
	}
	if c.Core.MaxWarpsPerSM > MaxWarpsPerSM {
		return fmt.Errorf("config: core.max_warps_per_sm must be <= %d (the warp scheduler's mask width), got %d",
			MaxWarpsPerSM, c.Core.MaxWarpsPerSM)
	}
	if c.L1.LineSize != c.L2.LineSize {
		return fmt.Errorf("config: L1 line size %d != L2 line size %d", c.L1.LineSize, c.L2.LineSize)
	}
	if !isPow2(c.L1.LineSize) || !isPow2(c.L1.Sets) || !isPow2(c.L2.Sets) {
		return fmt.Errorf("config: line size and set counts must be powers of two")
	}
	if !isPow2(c.DRAM.RowBytes) || c.DRAM.RowBytes < c.L2.LineSize {
		return fmt.Errorf("config: dram.row_bytes must be a power of two >= line size, got %d", c.DRAM.RowBytes)
	}
	if c.DRAM.ChipsPerChannel*c.DRAM.BusWidthBits%8 != 0 {
		return fmt.Errorf("config: dram.bus_width_bits × dram.chips_per_channel must be a multiple of 8 (whole bytes per beat), got %d × %d",
			c.DRAM.BusWidthBits, c.DRAM.ChipsPerChannel)
	}
	if !isPow2(c.DRAM.BanksPerChip) {
		return fmt.Errorf("config: dram.banks_per_chip must be a power of two, got %d", c.DRAM.BanksPerChip)
	}
	switch c.Core.Scheduler {
	case "gto", "lrr":
	default:
		return fmt.Errorf("config: unknown warp scheduler %q (want gto or lrr)", c.Core.Scheduler)
	}
	if _, err := c.Policies(); err != nil {
		return err
	}
	switch c.DRAM.Scheduler {
	case "frfcfs", "fcfs":
	default:
		return fmt.Errorf("config: unknown dram scheduler %q (want frfcfs or fcfs)", c.DRAM.Scheduler)
	}
	for _, rp := range []string{c.L1.Replacement, c.L2.Replacement} {
		switch rp {
		case "lru", "fifo", "random":
		default:
			return fmt.Errorf("config: unknown replacement policy %q", rp)
		}
	}
	if c.FixedLatency.Enabled && c.FixedLatency.Cycles < 0 {
		return fmt.Errorf("config: fixed latency cycles must be >= 0, got %d", c.FixedLatency.Cycles)
	}
	switch c.DRAM.BankHash {
	case "none", "xor":
	default:
		return fmt.Errorf("config: unknown bank hash %q (want none or xor)", c.DRAM.BankHash)
	}
	return nil
}

// Policies resolves the Policy names into the values the simulator
// runs: the issue policy (an empty Issue defers to Core.Scheduler),
// whether the L1 bypasses low-reuse fills (false for the baseline),
// and the L2 pin threshold (0 for the baseline). It allocates nothing:
// Validate calls it on every served request. It is the one place the
// names are resolved; an unknown name is rejected listing the
// registered ones, mirroring the api registry's unknown-kind error.
func (c Config) Policies() (policy.Set, error) {
	issue := c.Policy.Issue
	if issue == "" {
		issue = c.Core.Scheduler
	}
	var s policy.Set
	var err error
	if s.Issue, err = policy.NewIssuePolicy(issue); err != nil {
		return s, fmt.Errorf("config: policy.issue: %w", err)
	}
	if s.Bypass, err = policy.ParseFill(c.Policy.L1Fill); err != nil {
		return s, fmt.Errorf("config: policy.l1_fill: %w", err)
	}
	if s.PinHits, err = policy.NewPinHits(c.Policy.L2Insert); err != nil {
		return s, fmt.Errorf("config: policy.l2_insert: %w", err)
	}
	return s, nil
}

func isPow2(v int) bool { return v > 0 && v&(v-1) == 0 }

// ToJSON renders the config as indented JSON. (Deliberately not named
// MarshalText: implementing encoding.TextMarshaler would change how
// encoding/json serializes Config.)
func (c Config) ToJSON() ([]byte, error) {
	return json.MarshalIndent(c, "", "  ")
}

// FromJSON is the one config decoder, for -config files and inline
// request configs alike: it parses one JSON document in ToJSON's
// shape, rejecting unknown fields (a misspelled knob must not
// silently run the baseline value) and trailing data, and validates
// the result.
func FromJSON(data []byte) (Config, error) {
	var c Config
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&c); err != nil {
		return Config{}, fmt.Errorf("config: parse: %w", err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return Config{}, fmt.Errorf("config: parse: trailing data after the JSON document")
	}
	if err := c.Validate(); err != nil {
		return Config{}, err
	}
	return c, nil
}
