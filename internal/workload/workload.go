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
	"slices"
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
	// Streams builds the (deterministic) instruction streams of SM
	// sm's warps: dst[w] becomes warp w's stream. The simulator calls
	// it once per SM with len(dst) == WarpsPerSM(), so an
	// implementation validates once and may carve every warp's state
	// from per-SM slabs. lineSize is the cache-line size addresses
	// should target. The streams stay valid for the GPU's lifetime;
	// dst itself is the caller's, which may reuse it once it has
	// copied the streams out.
	Streams(sm int, seed, lineSize uint64, dst []core.InstrStream)
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

func (s *Spec) topKnobs() knobs {
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
// caller prefixes the label, built only on that error path.
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
func (s *Spec) phaseBase(pattern Pattern, sm, warp int, lineSize uint64, region int) uint64 {
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

// Streams implements Workload: it validates the spec once and builds
// the SM's streams, their phase shapes and cursors and their line
// buffers in four per-SM slabs.
func (s Spec) Streams(sm int, seed, lineSize uint64, dst []core.InstrStream) {
	streams := make([]stream, len(dst))
	s.initStreams(sm, 0, seed, lineSize, streams)
	for w := range dst {
		dst[w] = &streams[w]
	}
}

// Stream builds the stream of one warp alone, through the same
// initializer as Streams; tools and tests that look at a single warp
// use it.
func (s Spec) Stream(sm, warp int, seed uint64, lineSize uint64) core.InstrStream {
	g := make([]stream, 1)
	s.initStreams(sm, warp, seed, lineSize, g)
	return &g[0]
}

// initStreams validates the spec and initializes out[i] as the stream
// of warp first+i of SM sm. The streams share one read-only table of
// phase shapes, and each one's phase cursors and line buffer are
// carved from one slab each; its PCG lives inside it. So n streams
// cost three allocations beside out.
func (s *Spec) initStreams(sm, first int, seed, lineSize uint64, out []stream) {
	if err := s.Validate(); err != nil {
		panic(err)
	}
	shapes := s.phaseShapes()
	nph := len(shapes)
	k := s.maxLinesPerAccess()
	cursors := make([]phaseCursor, len(out)*nph)
	lines := make([]uint64, len(out)*k)
	for i := range out {
		warp := first + i
		g := &out[i]
		// The hot window is always warp-private, even for Shared
		// patterns: it models per-thread state, not the shared data set.
		id := uint64(sm*128 + warp)
		g.pcg.Seed(seed, uint64(sm)<<32|uint64(warp)+0x9e3779b9)
		g.hotBase = (id+1)<<27 + 1<<45 + (id*41)*lineSize
		g.warp = warp
		g.warps = s.Warps
		g.lineSize = lineSize
		g.linesBuf = lines[i*k : i*k : (i+1)*k]
		g.shapes = shapes
		g.cursors = cursors[i*nph : (i+1)*nph : (i+1)*nph]
		// Interleave warps across the region so Shared patterns cover it
		// instead of marching in lockstep.
		startPos := uint64(sm*s.Warps+warp) * 17
		if len(s.Phases) == 0 {
			g.cursors[0] = phaseCursor{base: s.phaseBase(s.AccessPattern, sm, warp, lineSize, 0), pos: startPos}
			continue
		}
		g.multi = true
		for j, p := range s.Phases {
			g.cursors[j] = phaseCursor{base: s.phaseBase(p.AccessPattern, sm, warp, lineSize, p.Region), pos: startPos}
		}
		g.left = shapes[0].instructions
	}
}

// phaseShapes resolves the spec's phases (its top-level knobs when
// single-phase) into generator shapes.
func (s *Spec) phaseShapes() []phaseShape {
	if len(s.Phases) == 0 {
		return []phaseShape{newPhaseShape(s.topKnobs(), s.DepDist, 0)}
	}
	shapes := make([]phaseShape, len(s.Phases))
	for j, p := range s.Phases {
		dep := p.DepDist
		if dep == 0 {
			dep = s.DepDist
		}
		shapes[j] = newPhaseShape(p.knobs(), dep, p.Instructions)
	}
	return shapes
}

// maxLinesPerAccess is the largest coalescing degree over the spec's
// phases: the line buffer a stream needs (the hot window takes one).
func (s *Spec) maxLinesPerAccess() int {
	if len(s.Phases) == 0 {
		return s.LinesPerAccess
	}
	k := 1
	for _, p := range s.Phases {
		k = max(k, p.LinesPerAccess)
	}
	return k
}

// hotWindowLines is the size of the warp-private hot window; small
// enough that every warp's window stays L1-resident.
const hotWindowLines = 2

// Hotset skew: hotsetHotProb of draws land in the leading 1/64 of the
// working set (at least one line).
const hotsetHotProb = 0.9

// phaseShape is one phase's knob set as the generator reads it, with
// the transpose geometry and the phase length resolved once. Shapes
// are read-only once built, so one table serves all of an SM's
// streams; what a warp changes lives in its phaseCursor.
type phaseShape struct {
	knobs
	depDist      int
	instructions int    // phase length; unused for single-phase streams
	rows, cols   uint64 // transpose geometry
}

func newPhaseShape(k knobs, depDist, instructions int) phaseShape {
	sh := phaseShape{knobs: k, depDist: depDist, instructions: instructions}
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
		sh.rows, sh.cols = rows, cols
	}
	return sh
}

// phaseCursor is one warp's place in one phase: the phase's region
// base for this warp and its pattern cursors. A single-phase stream
// has exactly one.
type phaseCursor struct {
	base     uint64
	pos      uint64 // pattern cursor (line units)
	iter     uint64 // streaming grid-stride iteration
	accesses uint64
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

// stream generates the instruction sequence for one warp. It emits
// each compute gap as one batched Instr; a run stops at a phase
// boundary, so every phase runs exactly its instruction count.
type stream struct {
	pcg      rand.PCG // the stream's draws (rand)
	hotBase  uint64
	warp     int
	warps    int // the spec's warps per SM (streaming grid stride)
	lineSize uint64

	// shapes (shared with the SM's other streams) and cursors hold
	// one entry per phase (exactly one for single-phase specs); cur
	// and left drive the round-robin schedule.
	shapes  []phaseShape
	cursors []phaseCursor
	cur     int
	left    int
	multi   bool

	hotCursor   uint64
	computeLeft int

	// linesBuf is reused across Next calls (the InstrStream contract
	// lets a stream invalidate the previous instruction's Lines on
	// the next call). Its capacity is the spec's largest coalescing
	// degree, set at construction, so the instruction feed allocates
	// nothing.
	linesBuf []uint64
}

// rand returns the stream's generator. A Rand holds nothing but its
// source, so a fresh one over the stream's PCG draws exactly what a
// kept one would, and a stream holds no pointer into itself.
func (g *stream) rand() *rand.Rand { return rand.New(&g.pcg) }

// NextInto implements core.InstrStream.
func (g *stream) NextInto(in *core.Instr) {
	if g.multi {
		if g.left == 0 {
			g.cur = (g.cur + 1) % len(g.shapes)
			g.left = g.shapes[g.cur].instructions
			// A phase boundary cuts the current compute run: the new
			// phase's mix takes over immediately.
			g.computeLeft = 0
		}
		g.left--
	}
	p := &g.shapes[g.cur]
	if g.computeLeft > 0 {
		// The compute run is emitted as one batched Instr (it draws
		// nothing from the RNG, so the random sequence is unchanged).
		// In a multi-phase stream it stops at the phase boundary: the
		// call above counted its first instruction, and the rest come
		// out of what is left of the phase.
		run := g.computeLeft
		if g.multi {
			run = min(run, g.left+1)
			g.left -= run - 1
		}
		g.computeLeft -= run
		in.Kind = core.ALU
		in.Run = run
		return
	}
	g.computeLeft = g.nextComputeGap(p.computePerMem)
	store := g.rand().Float64() < p.storeFrac
	var lines []uint64
	if p.hitFrac > 0 && g.rand().Float64() < p.hitFrac {
		g.hotCursor++
		g.linesBuf = append(g.linesBuf[:0], g.hotBase+(g.hotCursor%hotWindowLines)*g.lineSize)
		lines = g.linesBuf
		store = false // hot-window traffic models read-mostly state
	} else {
		lines = dedupLines(g.nextLines(p, &g.cursors[g.cur]))
	}
	// The instruction semantically reads lines[i%n] on lane i; every
	// region base is line-aligned, so no lane crosses a line boundary
	// and the distinct line list is the whole coalesced access.
	*in = core.Instr{Kind: core.Mem, Store: store, Lines: lines, DepDist: p.depDist}
}

// dedupLines is the memory coalescer: it drops repeated line
// addresses in place, keeping first-appearance order. Patterns can
// repeat a line within one access (a working set smaller than
// lines-per-access wraps), and Instr.Lines promises distinct entries.
// The scan is quadratic in lines-per-access (≤ 32, usually ≤ 8).
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

// nextComputeGap jitters the compute run length by ±1.
func (g *stream) nextComputeGap(c int) int {
	if c == 0 {
		return 0
	}
	gap := c + g.rand().IntN(3) - 1
	if gap < 0 {
		gap = 0
	}
	return gap
}

// nextLines produces the distinct line addresses of one warp access
// into the stream's reused line buffer.
func (g *stream) nextLines(p *phaseShape, c *phaseCursor) []uint64 {
	k := p.linesPerAccess
	ws := uint64(p.workingSetLines)
	out := g.linesBuf[:k]
	c.accesses++
	switch p.pattern {
	case Streaming:
		// Grid-stride loop: on iteration t, warp w touches the chunk
		// at (t·W + w)·k, so the SM's warps jointly scan the region
		// densely and in order — DRAM rows see sequential bursts.
		start := (c.iter*uint64(g.warps) + uint64(g.warp)) * uint64(k)
		for i := range out {
			out[i] = c.lineAddr((start+uint64(i))%ws, g.lineSize)
		}
		c.iter++
	case Thrash:
		// Sequential scan that wraps: the working set exceeds the L1
		// but stays L2-resident.
		for i := range out {
			out[i] = c.lineAddr((c.pos+uint64(i))%ws, g.lineSize)
		}
		c.pos += uint64(k)
	case Strided:
		stride := uint64(p.strideLines)
		for i := range out {
			out[i] = c.lineAddr(((c.pos+uint64(i))*stride)%ws, g.lineSize)
		}
		c.pos += uint64(k)
	case Stencil:
		// The window advances one line every 8 accesses.
		center := (c.accesses / 8) % ws
		for i := range out {
			out[i] = c.lineAddr((center+uint64(i))%ws, g.lineSize)
		}
	case Gather:
		// Rejection-sample distinct line indices. The duplicate check
		// scans the lines already drawn (k <= 32), which consumes the
		// RNG exactly like the historical set-based implementation.
		for i := range out {
		draw:
			for {
				idx := c.lineAddr(g.rand().Uint64N(ws), g.lineSize)
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
			if g.rand().Float64() < hotsetHotProb {
				idx = g.rand().Uint64N(hot)
			} else {
				idx = g.rand().Uint64N(ws)
			}
			out[i] = c.lineAddr(idx, g.lineSize)
		}
	case Transpose:
		// Walk a rows×cols column-major region in row-major element
		// order: element t sits at line (t%cols)*rows + t/cols, so
		// the k lines of one warp access are whole columns apart —
		// pathological coalescing and no DRAM row locality.
		for i := range out {
			t := c.pos + uint64(i)
			r := (t / p.cols) % p.rows
			col := t % p.cols
			out[i] = c.lineAddr((col*p.rows+r)%ws, g.lineSize)
		}
		c.pos += uint64(k)
	default:
		panic(fmt.Sprintf("workload: unknown pattern %q", p.pattern))
	}
	return out
}

func (c *phaseCursor) lineAddr(lineIdx uint64, lineSize uint64) uint64 {
	return c.base + lineIdx*lineSize
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

// suiteNames is the paper's Fig. 1 benchmark suite in the figure's
// legend order.
var suiteNames = []string{"cfd", "dwt2d", "leukocyte", "nn", "nw", "sc", "lbm", "ss"}

// SuiteNames lists the Fig. 1 benchmark suite in the figure's legend
// order.
func SuiteNames() []string { return slices.Clone(suiteNames) }

// ScenarioNames lists the built-in multi-phase scenarios in reporting
// order.
func ScenarioNames() []string { return slices.Clone(scenarioNames) }

// Suite returns the paper's Fig. 1 benchmark suite in the figure's
// legend order.
func Suite() []Workload {
	out := make([]Workload, len(suiteNames))
	for i, n := range suiteNames {
		w, err := ByName(n)
		if err != nil {
			panic(err)
		}
		out[i] = w
	}
	return out
}
