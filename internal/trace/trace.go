// Package trace records workload instruction streams to a compact
// text format and replays them as workloads. Traces make synthetic
// kernels inspectable (what addresses does cfd actually touch?) and
// let experiments rerun bit-identical instruction streams without the
// generator.
//
// Format, a metadata header then one instruction per line, in
// per-warp sections:
//
//	H <version> <lineSize> <warps>
//	W <sm> <warp>
//	A                 # ALU instruction
//	L <dep> <line...> # load: dependency distance, hex line addresses
//	S <line...>       # store: hex line addresses
//
// The header pins the recording parameters the instruction lines
// depend on: addresses are coalesced to <lineSize>-byte lines at
// record time, so replaying under a different line size would
// silently mis-model every access — consumers must check the header
// against the replay configuration (Trace.CheckLineSize). Traces
// written before the header existed still parse; they just cannot be
// verified.
package trace

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/workload"
)

// FormatVersion is the trace format version Record writes.
const FormatVersion = 1

// Header is the trace metadata line: the parameters the recorded
// addresses depend on.
type Header struct {
	// Version is the format version (FormatVersion).
	Version int
	// LineSize is the cache-line size, in bytes, the recorded
	// addresses were coalesced to.
	LineSize uint64
	// Warps is the per-SM warp count of the recorded workload.
	Warps int
}

// Record writes n instructions of every warp stream of wl for the
// given number of SMs to w, preceded by the versioned header.
func Record(wl workload.Workload, sms int, n int, seed uint64, lineSize uint64, w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "H %d %d %d\n", FormatVersion, lineSize, wl.WarpsPerSM()); err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	streams := make([]core.InstrStream, wl.WarpsPerSM())
	for sm := 0; sm < sms; sm++ {
		wl.Streams(sm, seed, lineSize, streams)
		for warp, s := range streams {
			if _, err := fmt.Fprintf(bw, "W %d %d\n", sm, warp); err != nil {
				return fmt.Errorf("trace: %w", err)
			}
			for i := 0; i < n; {
				in := core.NextOf(s)
				// A batched compute run stands for Run identical
				// instructions; record each on its own line so the
				// trace format stays one-instruction-per-line.
				k := in.Run
				if k < 1 {
					k = 1
				}
				for ; k > 0 && i < n; k-- {
					if err := writeInstr(bw, in, lineSize); err != nil {
						return err
					}
					i++
				}
			}
		}
	}
	if err := bw.Flush(); err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	return nil
}

func writeInstr(w io.Writer, in core.Instr, lineSize uint64) error {
	var err error
	switch {
	case in.Kind != core.Mem:
		_, err = fmt.Fprintln(w, "A")
	case in.Store:
		_, err = fmt.Fprintf(w, "S%s\n", hexLines(in, lineSize))
	default:
		_, err = fmt.Fprintf(w, "L %d%s\n", in.DepDist, hexLines(in, lineSize))
	}
	if err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	return nil
}

// hexLines renders the instruction's coalesced line addresses: a
// stream that emits pre-coalesced Instr.Lines defines them directly
// (the workload generators), otherwise the lane view reduces exactly
// as the SM's coalescer would. Recorded bytes are identical either
// way, which the record→parse→replay round-trip tests pin.
func hexLines(in core.Instr, lineSize uint64) string {
	var b strings.Builder
	lines := in.Lines
	if lines == nil {
		lines = core.Coalesce(in.Lanes, lineSize)
	}
	for _, l := range lines {
		fmt.Fprintf(&b, " %x", l)
	}
	return b.String()
}

// Trace is a parsed trace, replayable as a workload.
type Trace struct {
	name   string
	warps  int // warps per SM
	hdr    Header
	hasHdr bool
	// instrs[sm][warp] is that warp's recorded stream.
	instrs map[int]map[int][]core.Instr
}

// Parse reads the Record format. It rejects structurally corrupt
// traces that would silently replay wrong: a duplicate `W <sm> <warp>`
// section would overwrite the earlier stream, and a warp id missing
// from an SM's sections would replay as an infinite ALU stream.
func Parse(name string, r io.Reader) (*Trace, error) {
	t := &Trace{name: name, instrs: map[int]map[int][]core.Instr{}}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	var cur []core.Instr
	curSM, curWarp := -1, -1
	// sectionLine remembers where each (sm, warp) section started, for
	// duplicate diagnostics.
	sectionLine := map[[2]int]int{}
	flush := func() {
		if curSM < 0 {
			return
		}
		if t.instrs[curSM] == nil {
			t.instrs[curSM] = map[int][]core.Instr{}
		}
		t.instrs[curSM][curWarp] = cur
		if curWarp+1 > t.warps {
			t.warps = curWarp + 1
		}
	}
	lineNo := 0
	for sc.Scan() {
		lineNo++
		fields := strings.Fields(sc.Text())
		if len(fields) == 0 {
			continue
		}
		switch fields[0] {
		case "H":
			if t.hasHdr || curSM >= 0 {
				return nil, fmt.Errorf("trace: line %d: header must be the first record", lineNo)
			}
			hdr, err := parseHeader(fields)
			if err != nil {
				return nil, fmt.Errorf("trace: line %d: %w", lineNo, err)
			}
			t.hdr, t.hasHdr = hdr, true
		case "W":
			if len(fields) != 3 {
				return nil, fmt.Errorf("trace: line %d: malformed warp header", lineNo)
			}
			flush()
			sm, err1 := strconv.Atoi(fields[1])
			warp, err2 := strconv.Atoi(fields[2])
			if err1 != nil || err2 != nil || sm < 0 || warp < 0 {
				return nil, fmt.Errorf("trace: line %d: bad warp ids", lineNo)
			}
			if first, dup := sectionLine[[2]int{sm, warp}]; dup {
				return nil, fmt.Errorf("trace: line %d: duplicate section W %d %d (first at line %d)",
					lineNo, sm, warp, first)
			}
			sectionLine[[2]int{sm, warp}] = lineNo
			curSM, curWarp, cur = sm, warp, nil
		case "A":
			if curSM < 0 {
				return nil, fmt.Errorf("trace: line %d: instruction before any warp header", lineNo)
			}
			cur = append(cur, core.Instr{Kind: core.ALU})
		case "L":
			if curSM < 0 {
				return nil, fmt.Errorf("trace: line %d: instruction before any warp header", lineNo)
			}
			if len(fields) < 3 {
				return nil, fmt.Errorf("trace: line %d: load needs dep and addresses", lineNo)
			}
			dep, err := strconv.Atoi(fields[1])
			if err != nil || dep < 1 {
				return nil, fmt.Errorf("trace: line %d: bad dep distance", lineNo)
			}
			lanes, err := parseLines(fields[2:])
			if err != nil {
				return nil, fmt.Errorf("trace: line %d: %w", lineNo, err)
			}
			cur = append(cur, core.Instr{Kind: core.Mem, Lanes: lanes, DepDist: dep})
		case "S":
			if curSM < 0 {
				return nil, fmt.Errorf("trace: line %d: instruction before any warp header", lineNo)
			}
			lanes, err := parseLines(fields[1:])
			if err != nil {
				return nil, fmt.Errorf("trace: line %d: %w", lineNo, err)
			}
			cur = append(cur, core.Instr{Kind: core.Mem, Store: true, Lanes: lanes, DepDist: 1})
		default:
			return nil, fmt.Errorf("trace: line %d: unknown record %q", lineNo, fields[0])
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("trace: %w", err)
	}
	flush()
	if len(t.instrs) == 0 {
		return nil, fmt.Errorf("trace: empty trace")
	}
	if t.hasHdr {
		if t.warps > t.hdr.Warps {
			return nil, fmt.Errorf("trace: warp id %d outside the header's %d warps/SM",
				t.warps-1, t.hdr.Warps)
		}
		t.warps = t.hdr.Warps
	}
	if err := t.checkComplete(); err != nil {
		return nil, err
	}
	return t, nil
}

// parseHeader decodes `H <version> <lineSize> <warps>`.
func parseHeader(fields []string) (Header, error) {
	if len(fields) != 4 {
		return Header{}, fmt.Errorf("malformed header (want H <version> <lineSize> <warps>)")
	}
	version, err := strconv.Atoi(fields[1])
	if err != nil || version < 1 {
		return Header{}, fmt.Errorf("bad header version %q", fields[1])
	}
	if version > FormatVersion {
		return Header{}, fmt.Errorf("unsupported trace format version %d (this build reads <= %d)",
			version, FormatVersion)
	}
	lineSize, err := strconv.ParseUint(fields[2], 10, 64)
	if err != nil || lineSize == 0 {
		return Header{}, fmt.Errorf("bad header line size %q", fields[2])
	}
	warps, err := strconv.Atoi(fields[3])
	if err != nil || warps < 1 {
		return Header{}, fmt.Errorf("bad header warp count %q", fields[3])
	}
	return Header{Version: version, LineSize: lineSize, Warps: warps}, nil
}

// checkComplete verifies the recorded SM ids are contiguous from 0
// and every SM has a stream for each warp id 0..warps-1: replay.Next
// pads a nil stream with infinite ALU instructions and Stream replays
// SM 0 for any SM id not in the trace, so either kind of hole would
// silently corrupt the replayed mix.
func (t *Trace) checkComplete() error {
	if _, ok := t.instrs[0]; !ok {
		return fmt.Errorf("trace: no SM 0 sections; unrecorded SMs replay SM 0's streams, so it must exist")
	}
	maxSM := 0
	for sm := range t.instrs {
		if sm > maxSM {
			maxSM = sm
		}
	}
	if maxSM+1 != len(t.instrs) {
		for sm := 0; sm <= maxSM; sm++ {
			if _, ok := t.instrs[sm]; !ok {
				return fmt.Errorf("trace: SM %d has no sections but SM %d does; "+
					"the hole would silently replay SM 0's streams", sm, maxSM)
			}
		}
	}
	for sm, per := range t.instrs {
		for warp := 0; warp < t.warps; warp++ {
			if _, ok := per[warp]; !ok {
				return fmt.Errorf("trace: SM %d is missing warp %d (trace has %d warps/SM); "+
					"a sparse section would replay as an infinite ALU stream", sm, warp, t.warps)
			}
		}
	}
	return nil
}

func parseLines(fields []string) ([]uint64, error) {
	lanes := make([]uint64, 0, len(fields))
	for _, f := range fields {
		v, err := strconv.ParseUint(f, 16, 64)
		if err != nil {
			return nil, fmt.Errorf("bad address %q", f)
		}
		lanes = append(lanes, v)
	}
	return lanes, nil
}

// Header returns the trace's metadata header, and whether the trace
// had one (legacy traces predate it).
func (t *Trace) Header() (Header, bool) { return t.hdr, t.hasHdr }

// CheckLineSize validates the trace against a replay configuration's
// cache-line size. It returns verified=true when the header pins a
// matching line size, verified=false (and no error) for legacy
// headerless traces — the caller should surface an "unverified line
// size" note — and an error when the header contradicts the config.
func (t *Trace) CheckLineSize(lineSize uint64) (verified bool, err error) {
	if !t.hasHdr {
		return false, nil
	}
	if t.hdr.LineSize != lineSize {
		return false, fmt.Errorf("trace: %s was recorded at line size %d, replay config uses %d; "+
			"addresses were coalesced at record time, so the replay would mis-model every access",
			t.name, t.hdr.LineSize, lineSize)
	}
	return true, nil
}

// Name implements workload.Workload.
func (t *Trace) Name() string { return t.name }

// WarpsPerSM implements workload.Workload.
func (t *Trace) WarpsPerSM() int { return t.warps }

// Streams implements workload.Workload: each stream replays its
// warp's recorded instructions and pads with ALU once exhausted. SMs
// beyond the recorded range reuse SM 0's streams. The SM's replay
// cursors share one slab.
func (t *Trace) Streams(sm int, _, _ uint64, dst []core.InstrStream) {
	per, ok := t.instrs[sm]
	if !ok {
		per = t.instrs[0]
	}
	rs := make([]replay, len(dst))
	for w := range dst {
		rs[w].instrs = per[w]
		dst[w] = &rs[w]
	}
}

type replay struct {
	instrs []core.Instr
	pos    int
}

// NextInto implements core.InstrStream.
func (r *replay) NextInto(in *core.Instr) {
	if r.pos < len(r.instrs) {
		*in = r.instrs[r.pos]
		r.pos++
		return
	}
	// Full overwrite (not just Kind): recorded traces are compared
	// instruction-for-instruction in tests.
	*in = core.Instr{Kind: core.ALU}
}
