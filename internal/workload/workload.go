// Package workload provides synthetic models of the paper's benchmark
// suite. The original experiments run CUDA programs (Rodinia's cfd,
// dwt2d, leukocyte, nn, nw, sc; Parboil's lbm; Mars' ss) through
// GPGPU-Sim; here each benchmark is a parameterized kernel model that
// reproduces the properties Fig. 1 and §III-IV depend on: memory
// intensity (compute per load), locality (L1/L2 reuse), coalescing
// degree, store ratio, and memory-level parallelism. DESIGN.md §4
// documents the substitution.
//
// # Access patterns
//
// Each pattern is a targeted probe of one level of the hierarchy, in
// the spirit of GPU microbenchmarking (Mei & Chu):
//
//   - Streaming walks a huge region once with no temporal reuse:
//     pure DRAM-bandwidth pressure, row-buffer friendly.
//   - Strided walks with a fixed line stride, as in column-major 2D
//     traversals: cache-set conflicts and DRAM row-buffer misses.
//   - Stencil slides a small window: high L1 temporal reuse, the L1
//     capacity/associativity probe.
//   - Gather reads pseudo-random lines of a shared region: MSHR and
//     L2-bank pressure from data-dependent neighbor lists.
//   - Thrash repeatedly scans a region larger than L1 but resident in
//     L2: maximal L1↔L2 (interconnect + L2 access queue) traffic.
//   - Hotset skews accesses onto a small hot region with a uniform
//     cold tail (histogram bins, frontier sets): the hot lines stay
//     cache-resident while the tail defeats the LRU, stressing L2
//     replacement and MSHR merging.
//   - Transpose walks a column-major region in row-major order:
//     consecutive elements land whole rows apart, so warp accesses
//     produce pathological coalescing, cache-set aliasing and minimal
//     DRAM row locality — the worst-case probe for every level.
//
// # Phase model
//
// A Spec with a non-empty Phases slice models a kernel whose memory
// behaviour shifts over time (Ausavarungnirun et al.'s motivation for
// holistic hierarchy management): each PhaseSpec carries its own
// access pattern, working set, compute/memory ratio, store fraction
// and coalescing degree, and runs for a fixed number of instructions
// before the stream advances to the next phase, round-robin, forever.
// Phases address disjoint regions unless they share a Region id, so a
// streaming-read phase can hand its data to a store-heavy writeback
// phase. Single-phase specs (empty Phases) are generated by exactly
// the historical code path, byte-for-byte.
package workload

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"sort"

	"repro/internal/core"
)

// Pattern selects the address-stream shape of a kernel model.
type Pattern string

const (
	// Streaming walks a huge region once: no temporal reuse (nn, lbm).
	Streaming Pattern = "streaming"
	// Strided walks a region with a fixed line stride, as in
	// column-major 2D traversals (dwt2d, nw).
	Strided Pattern = "strided"
	// Stencil slides a small window: high L1 temporal reuse
	// (leukocyte).
	Stencil Pattern = "stencil"
	// Gather reads pseudo-random lines of a shared region:
	// data-dependent neighbor lists (cfd, ss).
	Gather Pattern = "gather"
	// Thrash repeatedly scans a shared region larger than L1 but
	// resident in L2: maximal L1↔L2 traffic (sc/streamcluster).
	Thrash Pattern = "thrash"
	// Hotset skews accesses onto a small hot region (Zipf-like: 90%
	// of draws land in 1/64 of the working set) with a uniform cold
	// tail — histogram bins, visited bitmaps, centroid accumulators.
	Hotset Pattern = "hotset"
	// Transpose walks a column-major region in row-major order:
	// consecutive elements are a whole column height apart, producing
	// pathologically uncoalesced warp accesses (matrix transpose,
	// column passes of separable transforms).
	Transpose Pattern = "transpose"
)

// Workload supplies instruction streams to every warp in the GPU.
type Workload interface {
	// Name identifies the workload in reports.
	Name() string
	// WarpsPerSM is the number of resident warps each SM runs.
	WarpsPerSM() int
	// Stream builds the (deterministic) instruction stream for one
	// warp. lineSize is the cache-line size addresses should target.
	Stream(sm, warp int, seed uint64, lineSize uint64) core.InstrStream
}

// PhaseSpec is one phase of a multi-phase kernel model: the same
// knobs as a single-phase Spec, plus a duration. Phases run
// round-robin, each for Instructions instructions, forever.
type PhaseSpec struct {
	// PhaseName optionally labels the phase in docs and errors.
	PhaseName string `json:"name,omitempty"`
	// Instructions is the phase duration: how many instructions (ALU
	// and memory combined) the warp executes before advancing to the
	// next phase.
	Instructions int `json:"instructions"`
	// ComputePerMem, StoreFrac, AccessPattern, WorkingSetLines,
	// LinesPerAccess, StrideLines and HitFrac mirror the Spec fields
	// of the same names, scoped to this phase.
	ComputePerMem   int     `json:"compute_per_mem"`
	StoreFrac       float64 `json:"store_frac"`
	AccessPattern   Pattern `json:"access_pattern"`
	WorkingSetLines int     `json:"working_set_lines"`
	LinesPerAccess  int     `json:"lines_per_access"`
	StrideLines     int     `json:"stride_lines,omitempty"`
	HitFrac         float64 `json:"hit_frac"`
	// DepDist overrides the spec's dependency distance for this
	// phase; 0 inherits it.
	DepDist int `json:"dep_dist,omitempty"`
	// Region places the phase's working set: phases with the same
	// Region id address the same memory (a writeback phase re-storing
	// what a read phase streamed), distinct ids get disjoint regions.
	Region int `json:"region,omitempty"`
}

// maxPhaseRegions bounds PhaseSpec.Region so region offsets stay in
// disjoint address-space slices.
const maxPhaseRegions = 64

// Spec is a declarative kernel model; it implements Workload.
// The zero Phases case is a single-phase kernel shaped by the
// top-level knobs; a non-empty Phases slice switches the stream
// between per-phase knob sets round-robin (see the package doc's
// phase model).
type Spec struct {
	// SpecName identifies the workload.
	SpecName string `json:"name"`
	// Description is a one-line summary for reports.
	Description string `json:"description,omitempty"`
	// Warps is the resident warp count per SM.
	Warps int `json:"warps"`
	// ComputePerMem is the mean number of ALU instructions between
	// memory instructions (memory intensity knob; lower = more
	// memory-bound).
	ComputePerMem int `json:"compute_per_mem"`
	// DepDist is the load's dependency distance: how many subsequent
	// instructions are independent of the loaded value.
	DepDist int `json:"dep_dist"`
	// StoreFrac is the fraction of memory instructions that are
	// global stores.
	StoreFrac float64 `json:"store_frac"`
	// AccessPattern shapes the address stream.
	AccessPattern Pattern `json:"access_pattern"`
	// WorkingSetLines is the region size in cache lines (per warp for
	// private patterns, global when Shared).
	WorkingSetLines int `json:"working_set_lines"`
	// Shared routes all SMs and warps at one global region,
	// producing cross-core L2 reuse and contention.
	Shared bool `json:"shared"`
	// LinesPerAccess is the coalescing degree: distinct cache lines
	// per warp memory instruction (1 = fully coalesced, 32 = fully
	// scattered).
	LinesPerAccess int `json:"lines_per_access"`
	// StrideLines is the line stride for the Strided pattern, and the
	// column height (lines) for Transpose (0 = square matrix).
	StrideLines int `json:"stride_lines,omitempty"`
	// HitFrac is the fraction of memory instructions that re-touch a
	// small warp-private hot window (registers spilled to cache,
	// lookup tables, query points). These accesses stay L1-resident,
	// so 1-HitFrac approximates the kernel's L1 miss ratio.
	HitFrac float64 `json:"hit_frac"`
	// Phases, when non-empty, makes the kernel multi-phase: the
	// stream runs each phase for its Instructions count, round-robin.
	// The top-level pattern knobs (ComputePerMem, StoreFrac,
	// AccessPattern, WorkingSetLines, LinesPerAccess, StrideLines,
	// HitFrac) are then unused; Warps, DepDist and Shared still apply.
	Phases []PhaseSpec `json:"phases,omitempty"`
}

// Name implements Workload.
func (s Spec) Name() string { return s.SpecName }

// WarpsPerSM implements Workload.
func (s Spec) WarpsPerSM() int { return s.Warps }

// knobs is the per-phase view of the pattern parameters; a
// single-phase spec is exactly one knob set.
type knobs struct {
	computePerMem   int
	storeFrac       float64
	pattern         Pattern
	workingSetLines int
	linesPerAccess  int
	strideLines     int
	hitFrac         float64
}

func (s Spec) topKnobs() knobs {
	return knobs{
		computePerMem:   s.ComputePerMem,
		storeFrac:       s.StoreFrac,
		pattern:         s.AccessPattern,
		workingSetLines: s.WorkingSetLines,
		linesPerAccess:  s.LinesPerAccess,
		strideLines:     s.StrideLines,
		hitFrac:         s.HitFrac,
	}
}

func (p PhaseSpec) knobs() knobs {
	return knobs{
		computePerMem:   p.ComputePerMem,
		storeFrac:       p.StoreFrac,
		pattern:         p.AccessPattern,
		workingSetLines: p.WorkingSetLines,
		linesPerAccess:  p.LinesPerAccess,
		strideLines:     p.StrideLines,
		hitFrac:         p.HitFrac,
	}
}

// validate checks one knob set. Its errors do not name the spec: the
// caller prefixes the label, built only on that error path, because
// Validate runs once per warp stream.
func (k knobs) validate() error {
	if k.computePerMem < 0 {
		return errors.New("compute-per-mem must be >= 0")
	}
	if k.storeFrac < 0 || k.storeFrac > 1 {
		return errors.New("store-frac out of [0,1]")
	}
	if k.hitFrac < 0 || k.hitFrac > 1 {
		return errors.New("hit-frac out of [0,1]")
	}
	if k.linesPerAccess < 1 || k.linesPerAccess > 32 {
		return errors.New("lines-per-access out of [1,32]")
	}
	if k.workingSetLines < k.linesPerAccess {
		return errors.New("working set smaller than one access")
	}
	switch k.pattern {
	case Streaming, Strided, Stencil, Gather, Thrash, Hotset, Transpose:
	default:
		return fmt.Errorf("unknown pattern %q", k.pattern)
	}
	if k.pattern == Strided && k.strideLines < 1 {
		return errors.New("strided pattern needs stride >= 1")
	}
	if k.pattern == Transpose && (k.strideLines < 0 || k.strideLines > k.workingSetLines) {
		return fmt.Errorf("transpose column height out of [0,%d]", k.workingSetLines)
	}
	return nil
}

// Validate reports the first structural problem with the spec.
func (s Spec) Validate() error {
	if s.SpecName == "" {
		return fmt.Errorf("workload: spec needs a name")
	}
	if s.Warps <= 0 {
		return fmt.Errorf("workload %s: warps must be positive, got %d", s.SpecName, s.Warps)
	}
	if s.DepDist < 1 {
		return fmt.Errorf("workload %s: dep-dist must be >= 1", s.SpecName)
	}
	if len(s.Phases) == 0 {
		if err := s.topKnobs().validate(); err != nil {
			return fmt.Errorf("workload %s: %w", s.SpecName, err)
		}
		return nil
	}
	for i, p := range s.Phases {
		if err := p.validate(); err != nil {
			label := fmt.Sprintf("%s phase %d", s.SpecName, i)
			if p.PhaseName != "" {
				label = fmt.Sprintf("%s phase %q", s.SpecName, p.PhaseName)
			}
			return fmt.Errorf("workload %s: %w", label, err)
		}
	}
	return nil
}

// validate checks one phase; like knobs.validate, its errors leave the
// label to the caller.
func (p PhaseSpec) validate() error {
	if p.Instructions < 1 {
		return errors.New("instructions must be >= 1")
	}
	if p.DepDist < 0 {
		return errors.New("dep-dist must be >= 0 (0 inherits)")
	}
	if p.Region < 0 || p.Region >= maxPhaseRegions {
		return fmt.Errorf("region out of [0,%d)", maxPhaseRegions)
	}
	return p.knobs().validate()
}

// Flatten collapses a multi-phase spec into its fixed-mix control: a
// single-phase spec with the duration-weighted mean of every scalar
// knob and the longest phase's access pattern. Comparing a scenario
// against its Flatten shows what the phase structure alone costs or
// buys (the scenarios sweep); single-phase specs flatten to
// themselves.
func (s Spec) Flatten() Spec {
	if len(s.Phases) == 0 {
		return s
	}
	out := s
	out.Phases = nil
	out.SpecName = s.SpecName + "-fixed"
	var total, cpm, lpa, dep float64
	var storeFrac, hitFrac float64
	dominant := 0
	for i, p := range s.Phases {
		w := float64(p.Instructions)
		total += w
		cpm += w * float64(p.ComputePerMem)
		lpa += w * float64(p.LinesPerAccess)
		storeFrac += w * p.StoreFrac
		hitFrac += w * p.HitFrac
		// The effective dependency distance honours per-phase
		// overrides (0 inherits the spec value).
		if p.DepDist != 0 {
			dep += w * float64(p.DepDist)
		} else {
			dep += w * float64(s.DepDist)
		}
		if p.WorkingSetLines > out.WorkingSetLines {
			out.WorkingSetLines = p.WorkingSetLines
		}
		if p.Instructions > s.Phases[dominant].Instructions {
			dominant = i
		}
	}
	out.ComputePerMem = int(cpm/total + 0.5)
	out.LinesPerAccess = int(lpa/total + 0.5)
	if out.LinesPerAccess < 1 {
		out.LinesPerAccess = 1
	}
	out.DepDist = int(dep/total + 0.5)
	if out.DepDist < 1 {
		out.DepDist = 1
	}
	out.StoreFrac = storeFrac / total
	out.HitFrac = hitFrac / total
	dom := s.Phases[dominant]
	out.AccessPattern = dom.AccessPattern
	out.StrideLines = dom.StrideLines
	// out.WorkingSetLines was maxed above so every phase's footprint
	// stays representable under the single pattern.
	return out
}

// phaseBase places one phase's region for one warp, reproducing the
// historical single-phase placement for region 0.
func (s Spec) phaseBase(pattern Pattern, sm, warp int, lineSize uint64, region int) uint64 {
	var base uint64
	switch {
	case s.Shared:
		base = 1 << 40 // one global region
	case pattern == Streaming:
		// Streaming kernels assign consecutive data chunks to
		// consecutive warps: one region per SM, walked warp-
		// interleaved, which preserves DRAM row locality like real
		// grid-strided CUDA loops.
		base = (uint64(sm)+1)<<32 + uint64(sm*53)*lineSize
	default:
		// Distinct 256MB region per warp, staggered by an odd number
		// of lines so regions start in different cache sets and DRAM
		// rows instead of all aliasing to set 0.
		id := uint64(sm*128 + warp)
		base = (id+1)<<28 + (id*37)*lineSize
	}
	// Regions sit in disjoint 2^46-byte slices, above every
	// single-region base (shared 2^40, hot window < 2^46).
	return base + uint64(region)<<46
}

// Stream implements Workload.
func (s Spec) Stream(sm, warp int, seed uint64, lineSize uint64) core.InstrStream {
	if err := s.Validate(); err != nil {
		panic(err)
	}
	// The hot window is always warp-private, even for Shared
	// patterns: it models per-thread state, not the shared data set.
	id := uint64(sm*128 + warp)
	hotBase := (id+1)<<27 + 1<<45 + (id*41)*lineSize
	g := &stream{
		spec:     s,
		rng:      rand.New(rand.NewPCG(seed, uint64(sm)<<32|uint64(warp)+0x9e3779b9)),
		hotBase:  hotBase,
		warp:     warp,
		lineSize: lineSize,
	}
	// Interleave warps across the region so Shared patterns cover it
	// instead of marching in lockstep.
	startPos := uint64(sm*s.Warps+warp) * 17
	if len(s.Phases) == 0 {
		g.phases = []phaseState{newPhaseState(s.topKnobs(), s.DepDist, s.phaseBase(s.AccessPattern, sm, warp, lineSize, 0), startPos)}
	} else {
		g.multi = true
		g.phases = make([]phaseState, len(s.Phases))
		for i, p := range s.Phases {
			dep := p.DepDist
			if dep == 0 {
				dep = s.DepDist
			}
			ps := newPhaseState(p.knobs(), dep, s.phaseBase(p.AccessPattern, sm, warp, lineSize, p.Region), startPos)
			ps.instructions = p.Instructions
			g.phases[i] = ps
		}
		g.left = g.phases[0].instructions
	}
	return g
}

// hotWindowLines is the size of the warp-private hot window; small
// enough that every warp's window stays L1-resident.
const hotWindowLines = 2

// Hotset skew: hotsetHotProb of draws land in the leading 1/64 of the
// working set (at least one line).
const hotsetHotProb = 0.9

// phaseState is one phase's knob set plus its private pattern cursors
// and region base. A single-phase stream is exactly one phaseState.
type phaseState struct {
	knobs
	depDist      int
	instructions int // phase length; unused for single-phase streams
	base         uint64
	rows, cols   uint64 // transpose geometry

	pos      uint64 // pattern cursor (line units)
	iter     uint64 // streaming grid-stride iteration
	accesses uint64
}

func newPhaseState(k knobs, depDist int, base uint64, startPos uint64) phaseState {
	ps := phaseState{knobs: k, depDist: depDist, base: base, pos: startPos}
	if k.pattern == Transpose {
		ws := uint64(k.workingSetLines)
		rows := uint64(k.strideLines)
		if rows == 0 {
			rows = isqrt(ws)
		}
		if rows < 1 {
			rows = 1
		}
		cols := ws / rows
		if cols < 1 {
			cols = 1
		}
		ps.rows, ps.cols = rows, cols
	}
	return ps
}

// isqrt returns the integer square root of v.
func isqrt(v uint64) uint64 {
	if v == 0 {
		return 0
	}
	r := uint64(1)
	for r*r <= v {
		r++
	}
	return r - 1
}

// stream generates the instruction sequence for one warp.
type stream struct {
	spec     Spec
	rng      *rand.Rand
	hotBase  uint64
	warp     int
	lineSize uint64

	// phases holds one entry per phase (exactly one for single-phase
	// specs); cur and left drive the round-robin schedule.
	phases []phaseState
	cur    int
	left   int
	multi  bool

	hotCursor   uint64
	computeLeft int

	// linesBuf is reused across Next calls (the InstrStream contract
	// lets a stream invalidate the previous instruction's Lines on
	// the next call), so the steady-state instruction feed allocates
	// nothing.
	linesBuf []uint64
}

// NextInto implements core.InstrStream.
func (g *stream) NextInto(in *core.Instr) {
	if g.multi {
		if g.left == 0 {
			g.cur = (g.cur + 1) % len(g.phases)
			g.left = g.phases[g.cur].instructions
			// A phase boundary cuts the current compute run: the new
			// phase's mix takes over immediately.
			g.computeLeft = 0
		}
		g.left--
	}
	p := &g.phases[g.cur]
	if g.computeLeft > 0 {
		// Single-phase streams emit the whole compute run as one
		// batched Instr (the run draws nothing from the RNG, so the
		// random sequence is unchanged). Multi-phase streams keep
		// per-instruction calls: the phase schedule above accounts
		// instructions one at a time.
		run := g.computeLeft
		if g.multi {
			run = 1
		}
		g.computeLeft -= run
		in.Kind = core.ALU
		in.Run = run
		return
	}
	g.computeLeft = g.nextComputeGap(p.computePerMem)
	store := g.rng.Float64() < p.storeFrac
	var lines []uint64
	if p.hitFrac > 0 && g.rng.Float64() < p.hitFrac {
		g.hotCursor++
		g.linesBuf = append(g.linesBuf[:0], g.hotBase+(g.hotCursor%hotWindowLines)*g.lineSize)
		lines = g.linesBuf
		store = false // hot-window traffic models read-mostly state
	} else {
		lines = dedupLines(g.nextLines(p))
	}
	// The instruction semantically reads lines[i%n] on lane i at byte
	// offset i*4%lineSize, but that expansion is pure bookkeeping: the
	// SM immediately coalesces the 32 lane addresses back to exactly
	// this line list (every region base is line-aligned, so no lane
	// crosses a line boundary). Emitting the pre-coalesced list skips
	// both loops; the lane view is recoverable with ExpandLanes (the
	// pinned stream-hash tests cover the equivalence).
	*in = core.Instr{Kind: core.Mem, Store: store, Lines: lines, DepDist: p.depDist}
}

// dedupLines drops repeated line addresses in place, keeping first-
// appearance order — exactly the reduction core.Coalesce applies to
// the expanded lanes. Patterns can repeat a line within one access
// (a working set smaller than lines-per-access wraps), and Instr.Lines
// promises distinct entries. The scan is quadratic in lines-per-access
// (≤ 32, usually ≤ 8).
func dedupLines(lines []uint64) []uint64 {
	u := 1
	for i := 1; i < len(lines); i++ {
		dup := false
		for j := 0; j < u; j++ {
			if lines[j] == lines[i] {
				dup = true
				break
			}
		}
		if !dup {
			lines[u] = lines[i]
			u++
		}
	}
	return lines[:u]
}

// ExpandLanes reconstructs the per-lane byte addresses a generated
// memory instruction stands for: lane i reads lines[i%n] at byte
// offset i*4%lineSize. The generators emit only the coalesced
// Instr.Lines; tests that pin or record the lane-level view expand it
// with this single definition. Note the expansion distributes lanes
// over the *distinct* line list — for the built-in patterns an access
// repeating a line is a degenerate wrap, and the coalesced transaction
// set (which is all the SM ever consumed) is identical either way.
func ExpandLanes(dst []uint64, lines []uint64, lanesPerWarp int, lineSize uint64) []uint64 {
	dst = dst[:0]
	n := uint64(len(lines))
	li, off := uint64(0), uint64(0)
	for i := 0; i < lanesPerWarp; i++ {
		dst = append(dst, lines[li]+off)
		if li++; li == n {
			li = 0
		}
		off += 4
		for off >= lineSize {
			off -= lineSize
		}
	}
	return dst
}

// nextComputeGap jitters the compute run length by ±1.
func (g *stream) nextComputeGap(c int) int {
	if c == 0 {
		return 0
	}
	gap := c + g.rng.IntN(3) - 1
	if gap < 0 {
		gap = 0
	}
	return gap
}

// nextLines produces the distinct line addresses of one warp access
// into the stream's reused line buffer.
func (g *stream) nextLines(p *phaseState) []uint64 {
	k := p.linesPerAccess
	ws := uint64(p.workingSetLines)
	if cap(g.linesBuf) < k {
		g.linesBuf = make([]uint64, k)
	}
	out := g.linesBuf[:k]
	p.accesses++
	switch p.pattern {
	case Streaming:
		// Grid-stride loop: on iteration t, warp w touches the chunk
		// at (t·W + w)·k, so the SM's warps jointly scan the region
		// densely and in order — DRAM rows see sequential bursts.
		start := (p.iter*uint64(g.spec.Warps) + uint64(g.warp)) * uint64(k)
		for i := range out {
			out[i] = p.lineAddr((start+uint64(i))%ws, g.lineSize)
		}
		p.iter++
	case Thrash:
		// Sequential scan that wraps: the working set exceeds the L1
		// but stays L2-resident.
		for i := range out {
			out[i] = p.lineAddr((p.pos+uint64(i))%ws, g.lineSize)
		}
		p.pos += uint64(k)
	case Strided:
		stride := uint64(p.strideLines)
		for i := range out {
			out[i] = p.lineAddr(((p.pos+uint64(i))*stride)%ws, g.lineSize)
		}
		p.pos += uint64(k)
	case Stencil:
		// The window advances one line every 8 accesses.
		center := (p.accesses / 8) % ws
		for i := range out {
			out[i] = p.lineAddr((center+uint64(i))%ws, g.lineSize)
		}
	case Gather:
		// Rejection-sample distinct line indices. The duplicate check
		// scans the lines already drawn (k <= 32), which consumes the
		// RNG exactly like the historical set-based implementation.
		for i := range out {
		draw:
			for {
				idx := p.lineAddr(g.rng.Uint64N(ws), g.lineSize)
				for _, prev := range out[:i] {
					if prev == idx {
						continue draw
					}
				}
				out[i] = idx
				break
			}
		}
	case Hotset:
		// Two-level skew: most draws land in the leading 1/64 of the
		// region (the cache-resident hot set), the rest sweep the
		// cold tail uniformly. Duplicates within one access are fine;
		// the coalescer merges them, like real conflicting lanes.
		hot := ws / 64
		if hot < 1 {
			hot = 1
		}
		for i := range out {
			var idx uint64
			if g.rng.Float64() < hotsetHotProb {
				idx = g.rng.Uint64N(hot)
			} else {
				idx = g.rng.Uint64N(ws)
			}
			out[i] = p.lineAddr(idx, g.lineSize)
		}
	case Transpose:
		// Walk a rows×cols column-major region in row-major element
		// order: element t sits at line (t%cols)*rows + t/cols, so
		// the k lines of one warp access are whole columns apart —
		// pathological coalescing and no DRAM row locality.
		for i := range out {
			t := p.pos + uint64(i)
			r := (t / p.cols) % p.rows
			c := t % p.cols
			out[i] = p.lineAddr((c*p.rows+r)%ws, g.lineSize)
		}
		p.pos += uint64(k)
	default:
		panic(fmt.Sprintf("workload: unknown pattern %q", p.pattern))
	}
	return out
}

func (p *phaseState) lineAddr(lineIdx uint64, lineSize uint64) uint64 {
	return p.base + lineIdx*lineSize
}

// registry holds the built-in benchmark models.
var registry = map[string]Spec{}

func register(s Spec) {
	if err := s.Validate(); err != nil {
		panic(err)
	}
	if _, dup := registry[s.SpecName]; dup {
		panic(fmt.Sprintf("workload: duplicate registration %q", s.SpecName))
	}
	registry[s.SpecName] = s
}

// ByName returns a built-in benchmark model.
func ByName(name string) (Workload, error) {
	s, ok := registry[name]
	if !ok {
		return nil, fmt.Errorf("workload: unknown benchmark %q (have %v)", name, Names())
	}
	return s, nil
}

// SpecByName returns a built-in benchmark model as its Spec.
func SpecByName(name string) (Spec, error) {
	s, ok := registry[name]
	if !ok {
		return Spec{}, fmt.Errorf("workload: unknown benchmark %q (have %v)", name, Names())
	}
	return s, nil
}

// Names lists the built-in benchmarks in sorted order.
func Names() []string {
	out := make([]string, 0, len(registry))
	for n := range registry {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Suite returns the paper's Fig. 1 benchmark suite in the figure's
// legend order.
func Suite() []Workload {
	names := []string{"cfd", "dwt2d", "leukocyte", "nn", "nw", "sc", "lbm", "ss"}
	out := make([]Workload, len(names))
	for i, n := range names {
		w, err := ByName(n)
		if err != nil {
			panic(err)
		}
		out[i] = w
	}
	return out
}
