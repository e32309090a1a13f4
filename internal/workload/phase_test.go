package workload

import (
	"encoding/binary"
	"hash/fnv"
	"testing"

	"repro/internal/core"
)

// phasedSpec is a two-phase spec whose phases have starkly different
// memory intensity, so tests can see the boundary.
func phasedSpec() Spec {
	return Spec{
		SpecName: "ph", Warps: 2, DepDist: 2, Shared: true,
		Phases: []PhaseSpec{
			{
				PhaseName: "hot", Instructions: 100, ComputePerMem: 0,
				AccessPattern: Streaming, WorkingSetLines: 1 << 16, LinesPerAccess: 1,
			},
			{
				PhaseName: "cold", Instructions: 100, ComputePerMem: 9,
				AccessPattern: Gather, WorkingSetLines: 1024, LinesPerAccess: 2,
				StoreFrac: 0.5, Region: 1,
			},
		},
	}
}

// stepper hands out a stream's instructions one at a time, expanding
// batched compute runs (Instr.Run > 1), so tests can count
// instructions the way the SM issues them.
type stepper struct {
	s    core.InstrStream
	in   core.Instr
	left int // instructions of in not yet handed out
}

func (st *stepper) next() core.Instr {
	if st.left == 0 {
		st.s.NextInto(&st.in)
		st.left = max(st.in.Run, 1)
	}
	st.left--
	return st.in
}

// memCount counts memory instructions among the next n.
func memCount(s *stepper, n int) int {
	mem := 0
	for i := 0; i < n; i++ {
		if s.next().Kind == core.Mem {
			mem++
		}
	}
	return mem
}

func TestPhasesAlternateRoundRobin(t *testing.T) {
	s := &stepper{s: phasedSpec().Stream(0, 0, 1, 128)}
	// Phase 1 is every-instruction memory; phase 2 is ~1 in 10.
	windows := []struct {
		wantMin, wantMax int
	}{
		{95, 100}, // phase "hot", first pass
		{2, 30},   // phase "cold"
		{95, 100}, // phase "hot" again: round-robin repeats
		{2, 30},   // phase "cold" again
	}
	for i, w := range windows {
		got := memCount(s, 100)
		if got < w.wantMin || got > w.wantMax {
			t.Fatalf("window %d: %d mem instrs, want [%d,%d]", i, got, w.wantMin, w.wantMax)
		}
	}
}

func TestPhaseRegionsArePlacedApart(t *testing.T) {
	spec := phasedSpec()
	s := &stepper{s: spec.Stream(0, 0, 1, 128)}
	// Collect the pattern lines touched by each phase (skip nothing:
	// no HitFrac, so every mem access is pattern traffic).
	phaseLines := [2]map[uint64]bool{{}, {}}
	for i := 0; i < 400; i++ {
		in := s.next()
		if in.Kind != core.Mem {
			continue
		}
		phase := (i / 100) % 2
		for _, l := range in.Lines {
			phaseLines[phase][l] = true
		}
	}
	for l := range phaseLines[0] {
		if phaseLines[1][l] {
			t.Fatalf("phases with distinct regions share line %#x", l)
		}
	}
}

func TestPhaseSharedRegionOverlaps(t *testing.T) {
	spec := phasedSpec()
	spec.Phases[1].Region = 0
	spec.Phases[1].AccessPattern = Streaming
	spec.Phases[1].WorkingSetLines = 1 << 16
	spec.Phases[1].LinesPerAccess = 1
	s := &stepper{s: spec.Stream(0, 0, 1, 128)}
	seen := [2]map[uint64]bool{{}, {}}
	for i := 0; i < 4000; i++ {
		in := s.next()
		if in.Kind != core.Mem {
			continue
		}
		phase := (i / 100) % 2
		for _, l := range in.Lines {
			seen[phase][l] = true
		}
	}
	overlap := 0
	for l := range seen[0] {
		if seen[1][l] {
			overlap++
		}
	}
	if overlap == 0 {
		t.Fatalf("phases with the same region touched disjoint lines")
	}
}

func TestPhaseDepDistInheritance(t *testing.T) {
	spec := phasedSpec()
	spec.DepDist = 3
	spec.Phases[0].DepDist = 0 // inherit
	spec.Phases[1].DepDist = 7 // override
	s := &stepper{s: spec.Stream(0, 0, 1, 128)}
	for i := 0; i < 200; i++ {
		in := s.next()
		if in.Kind != core.Mem {
			continue
		}
		want := 3
		if i >= 100 {
			want = 7
		}
		if in.DepDist != want {
			t.Fatalf("instr %d: dep dist %d, want %d", i, in.DepDist, want)
		}
	}
}

func TestHotsetSkewsOntoHotRegion(t *testing.T) {
	spec := Spec{
		SpecName: "hs", Warps: 1, ComputePerMem: 0, DepDist: 1,
		AccessPattern: Hotset, WorkingSetLines: 4096, LinesPerAccess: 2, Shared: true,
	}
	s := spec.Stream(0, 0, 1, 128)
	const base = uint64(1) << 40
	hotLimit := base + 64*128 // leading 1/64 of 4096 lines
	hot, total := 0, 0
	for i := 0; i < 5000; i++ {
		in := core.NextOf(s)
		for _, l := range in.Lines {
			if l >= base+4096*128 {
				t.Fatalf("hotset escaped working set: %#x", l)
			}
			total++
			if l < hotLimit {
				hot++
			}
		}
	}
	frac := float64(hot) / float64(total)
	// 90% of draws are hot; coalescing merges hot duplicates, so the
	// line-level fraction sits a bit lower.
	if frac < 0.7 || frac > 0.98 {
		t.Fatalf("hot-region fraction %.2f, want ~0.9 of draws", frac)
	}
}

func TestTransposeScattersWarpAccesses(t *testing.T) {
	const rows = 128
	spec := Spec{
		SpecName: "tr", Warps: 1, ComputePerMem: 0, DepDist: 1,
		AccessPattern: Transpose, WorkingSetLines: 16384,
		LinesPerAccess: 8, StrideLines: rows, Shared: true,
	}
	s := spec.Stream(0, 0, 1, 128)
	for i := 0; i < 500; i++ {
		in := core.NextOf(s)
		lines := in.Lines
		if len(lines) != 8 {
			t.Fatalf("access %d: %d distinct lines, want 8 (fully uncoalesced)", i, len(lines))
		}
		for j := 1; j < len(lines); j++ {
			d := int64(lines[j]) - int64(lines[j-1])
			if d < 0 {
				d = -d
			}
			// Consecutive row-major elements are a column height (or a
			// wrap) apart — never adjacent lines.
			if d < rows*128 {
				t.Fatalf("access %d: lines %d apart, want >= %d", i, d/128, rows)
			}
		}
	}
}

func TestTransposeDefaultSquareCoversWorkingSet(t *testing.T) {
	spec := Spec{
		SpecName: "trsq", Warps: 1, ComputePerMem: 0, DepDist: 1,
		AccessPattern: Transpose, WorkingSetLines: 1024,
		LinesPerAccess: 4, Shared: true, // StrideLines 0: 32x32 square
	}
	_, _, lines := instrMix(spec.Stream(0, 0, 1, 128), 2000, 128)
	if len(lines) != 1024 {
		t.Fatalf("transpose covered %d of 1024 lines", len(lines))
	}
}

func TestFlatten(t *testing.T) {
	spec := phasedSpec()
	flat := spec.Flatten()
	if flat.SpecName != "ph-fixed" || len(flat.Phases) != 0 {
		t.Fatalf("flatten metadata wrong: %+v", flat)
	}
	// Equal 100-instruction phases: plain means, rounded.
	if flat.ComputePerMem != 5 { // (0+9)/2 rounded up
		t.Errorf("flat compute-per-mem %d, want 5", flat.ComputePerMem)
	}
	if flat.StoreFrac != 0.25 {
		t.Errorf("flat store-frac %.3f, want 0.25", flat.StoreFrac)
	}
	if flat.WorkingSetLines != 1<<16 {
		t.Errorf("flat working set %d, want %d", flat.WorkingSetLines, 1<<16)
	}
	// Tie on Instructions: the first phase dominates.
	if flat.AccessPattern != Streaming {
		t.Errorf("flat pattern %q, want streaming", flat.AccessPattern)
	}
	// No phase overrides DepDist, so the control inherits the spec's.
	if flat.DepDist != spec.DepDist {
		t.Errorf("flat dep-dist %d, want %d", flat.DepDist, spec.DepDist)
	}
	if err := flat.Validate(); err != nil {
		t.Fatalf("flattened spec invalid: %v", err)
	}
	// Per-phase DepDist overrides are duration-weighted into the
	// control, so the scenarios sweep's comparison isolates the phase
	// structure, not a dependency-distance difference.
	over := phasedSpec()
	over.DepDist = 1
	over.Phases[0].DepDist = 8                   // 100 instrs
	over.Phases[1].DepDist = 0                   // 100 instrs, inherits 1
	if got := over.Flatten().DepDist; got != 5 { // (8+1)/2 rounded up
		t.Errorf("flat dep-dist with overrides %d, want 5", got)
	}
	// Single-phase specs flatten to themselves.
	sc, _ := SpecByName("sc")
	if got := sc.Flatten(); got.SpecName != "sc" {
		t.Errorf("single-phase flatten changed the spec: %+v", got)
	}
	// Every built-in scenario must flatten to a valid control spec.
	for _, s := range Scenarios() {
		if err := s.Flatten().Validate(); err != nil {
			t.Errorf("%s: flatten invalid: %v", s.SpecName, err)
		}
	}
}

func TestPhaseValidation(t *testing.T) {
	good := phasedSpec()
	if err := good.Validate(); err != nil {
		t.Fatalf("good phased spec rejected: %v", err)
	}
	bads := []func(*Spec){
		func(s *Spec) { s.Phases[0].Instructions = 0 },
		func(s *Spec) { s.Phases[1].Region = -1 },
		func(s *Spec) { s.Phases[1].Region = maxPhaseRegions },
		func(s *Spec) { s.Phases[0].DepDist = -1 },
		func(s *Spec) { s.Phases[0].AccessPattern = "zigzag" },
		func(s *Spec) { s.Phases[0].LinesPerAccess = 0 },
		func(s *Spec) { s.Phases[0].WorkingSetLines = 0 },
		func(s *Spec) { s.Phases[1].StoreFrac = 2 },
		func(s *Spec) {
			s.Phases[1].AccessPattern = Transpose
			s.Phases[1].StrideLines = s.Phases[1].WorkingSetLines + 1
		},
	}
	for i, mut := range bads {
		s := phasedSpec()
		mut(&s)
		if err := s.Validate(); err == nil {
			t.Errorf("mutation %d: expected validation error", i)
		}
	}
	// A phased spec does not need the top-level pattern knobs.
	minimal := Spec{
		SpecName: "min", Warps: 1, DepDist: 1,
		Phases: []PhaseSpec{{
			Instructions: 10, AccessPattern: Streaming,
			WorkingSetLines: 8, LinesPerAccess: 1,
		}},
	}
	if err := minimal.Validate(); err != nil {
		t.Fatalf("minimal phased spec rejected: %v", err)
	}
}

// streamHash fingerprints the first n instructions of a stream:
// kind, store flag, dep distance and coalesced line addresses. A
// batched compute Instr (Run > 1) is hashed once per instruction it
// stands for, so the pinned hashes are invariant to batching.
func streamHash(t *testing.T, name string, sm, warp int, n int) uint64 {
	t.Helper()
	wl, err := ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	s := warpStream(wl, sm, warp, 1, 128)
	h := fnv.New64a()
	var buf [8]byte
	for i := 0; i < n; i++ {
		in := core.NextOf(s)
		for r := in.Run; r > 1 && i < n-1; r-- {
			// One ALU record per batched instruction (an ALU Instr
			// contributes kind+store+dep, all zero but the kind).
			buf[0], buf[1] = byte(core.ALU), 0
			h.Write(buf[:2])
			binary.LittleEndian.PutUint64(buf[:], 0)
			h.Write(buf[:])
			i++
		}
		buf[0] = byte(in.Kind)
		if in.Store {
			buf[1] = 1
		} else {
			buf[1] = 0
		}
		h.Write(buf[:2])
		binary.LittleEndian.PutUint64(buf[:], uint64(in.DepDist))
		h.Write(buf[:])
		// The pinned values were computed when streams emitted 32-lane
		// views that were coalesced here; hashing Lines against them
		// proves the list is byte-for-byte the reduction the lanes
		// produced.
		for _, l := range in.Lines {
			binary.LittleEndian.PutUint64(buf[:], l)
			h.Write(buf[:])
		}
	}
	return h.Sum64()
}

// TestStreamBytesPinned pins the exact instruction streams behind the
// golden reports. The per-warp seed mix is
// uint64(sm)<<32|uint64(warp)+0x9e3779b9, which by Go operator
// precedence (| and + share a level, left-associative) groups as
// (uint64(sm)<<32 | uint64(warp)) + 0x9e3779b9 — any "cleanup" that
// regroups it, or any drift in the generator, moves these hashes and
// therefore every golden file.
func TestStreamBytesPinned(t *testing.T) {
	cases := []struct {
		name     string
		sm, warp int
		want     uint64
	}{
		{"cfd", 0, 0, 0xc0959044f9ea0028},
		{"cfd", 3, 5, 0x4275cfff17ba04a},
		{"sc", 1, 2, 0xa62510612474cbf4},
		{"nn", 2, 9, 0x10667587257de281},
		{"kmeans", 0, 1, 0x7dc490bc8fe53724},
		{"bfs", 1, 0, 0x204fe0f179be8234},
		{"histo", 2, 3, 0xc7a2ff89c4e4da9d},
		{"dct8x8", 0, 7, 0xd859b6302b1f9482},
	}
	for _, c := range cases {
		if got := streamHash(t, c.name, c.sm, c.warp, 1000); got != c.want {
			t.Errorf("%s sm=%d warp=%d: stream hash %#x, want %#x (generator bytes drifted)",
				c.name, c.sm, c.warp, got, c.want)
		}
	}
}

// TestSeedMixDecorrelatesWarps pins that distinct (sm, warp) pairs
// seed distinct RNG streams — including pairs that would collide if
// the seed mix ever collapsed to sm+warp or warp-only.
func TestSeedMixDecorrelatesWarps(t *testing.T) {
	pairs := []struct{ sm, warp int }{
		{0, 0}, {0, 1}, {1, 0}, {1, 1}, {2, 7}, {7, 2}, {0, 9}, {9, 0}, {3, 5}, {5, 3},
	}
	seen := map[uint64][2]int{}
	for _, p := range pairs {
		h := streamHash(t, "cfd", p.sm, p.warp, 300)
		if prev, dup := seen[h]; dup {
			t.Errorf("(sm=%d,warp=%d) and (sm=%d,warp=%d) produced identical streams",
				p.sm, p.warp, prev[0], prev[1])
		}
		seen[h] = [2]int{p.sm, p.warp}
	}
}

// TestMultiPhaseRunsStopAtPhaseBoundary: multi-phase streams batch
// their compute gaps into runs, but no run crosses a phase boundary,
// so the expanded runs give every phase exactly its configured
// instruction count. Each memory instruction must also have the shape
// of the phase it lands in (no more lines than that phase's
// coalescing degree), which a schedule shifted by a run would break.
func TestMultiPhaseRunsStopAtPhaseBoundary(t *testing.T) {
	for _, spec := range Scenarios() {
		s := spec.Stream(1, 3, 1, 128)
		batched := false
		for pass := 0; pass < 3; pass++ {
			for j, p := range spec.Phases {
				for got := 0; got < p.Instructions; {
					in := core.NextOf(s)
					n := max(in.Run, 1)
					if in.Kind == core.Mem && len(in.Lines) > p.LinesPerAccess {
						t.Fatalf("%s pass %d phase %d: memory instruction with %d lines, phase allows %d",
							spec.SpecName, pass, j, len(in.Lines), p.LinesPerAccess)
					}
					if got+n > p.Instructions {
						t.Fatalf("%s pass %d phase %d: run of %d at instruction %d crosses the boundary at %d",
							spec.SpecName, pass, j, n, got, p.Instructions)
					}
					batched = batched || n > 1
					got += n
				}
			}
		}
		if !batched {
			t.Errorf("%s: the stream never emitted a batched run", spec.SpecName)
		}
	}
}
