package workload

import (
	"slices"
	"testing"

	"repro/internal/core"
)

// warpStream returns warp's stream on SM sm, built the way the
// simulator builds it: one Streams call for the whole SM.
func warpStream(wl Workload, sm, warp int, seed, lineSize uint64) core.InstrStream {
	dst := make([]core.InstrStream, wl.WarpsPerSM())
	wl.Streams(sm, seed, lineSize, dst)
	return dst[warp]
}

// TestStreamsMatchStream pins the per-SM slab construction to the
// one-warp convenience: every warp's stream out of Streams emits the
// same instructions as Stream builds for that warp alone.
func TestStreamsMatchStream(t *testing.T) {
	for _, name := range Names() {
		spec, _ := SpecByName(name)
		for _, sm := range []int{0, 7} {
			dst := make([]core.InstrStream, spec.Warps)
			spec.Streams(sm, 3, 128, dst)
			for w, got := range dst {
				want := spec.Stream(sm, w, 3, 128)
				for i := 0; i < 300; i++ {
					x, y := core.NextOf(want), core.NextOf(got)
					if x.Kind != y.Kind || x.Run != y.Run || x.Store != y.Store ||
						x.DepDist != y.DepDist || !slices.Equal(x.Lines, y.Lines) {
						t.Fatalf("%s sm %d warp %d: instr %d differs: %+v vs %+v", name, sm, w, i, x, y)
					}
				}
			}
		}
	}
}

// TestStreamsAllocations holds Streams to its four per-SM slabs
// (streams, phase shapes, phase cursors, line buffers), whatever the
// warp count, with the priming fetch included: the line buffers start
// at their final capacity.
func TestStreamsAllocations(t *testing.T) {
	for _, name := range []string{"cfd", "kmeans"} {
		spec, _ := SpecByName(name)
		dst := make([]core.InstrStream, spec.Warps)
		var in core.Instr
		allocs := testing.AllocsPerRun(20, func() {
			spec.Streams(2, 1, 128, dst)
			for _, s := range dst {
				for k := 0; k < 8; k++ {
					s.NextInto(&in)
				}
			}
		})
		if allocs != 4 {
			t.Errorf("%s: Streams allocates %.0f times per SM, want 4", name, allocs)
		}
	}
}

func TestRegistryHasPaperSuite(t *testing.T) {
	paper := []string{"cfd", "dwt2d", "leukocyte", "nn", "nw", "sc", "lbm", "ss"}
	scenarios := []string{"kmeans", "bfs", "histo", "dct8x8"}
	for _, n := range append(append([]string{}, paper...), scenarios...) {
		if _, err := ByName(n); err != nil {
			t.Errorf("missing benchmark %q: %v", n, err)
		}
	}
	if want := len(paper) + len(scenarios); len(Names()) != want {
		t.Errorf("registry has %d entries, want %d: %v", len(Names()), want, Names())
	}
	suite := Suite()
	if len(suite) != 8 || suite[0].Name() != "cfd" || suite[7].Name() != "ss" {
		t.Errorf("suite order wrong: %v", suiteNames(suite))
	}
	if got := Scenarios(); len(got) != len(scenarios) || len(got[0].Phases) == 0 {
		t.Errorf("scenarios wrong: %v", got)
	}
}

func suiteNames(ws []Workload) []string {
	out := make([]string, len(ws))
	for i, w := range ws {
		out[i] = w.Name()
	}
	return out
}

func TestByNameUnknown(t *testing.T) {
	if _, err := ByName("doom3"); err == nil {
		t.Fatalf("expected error for unknown benchmark")
	}
}

func TestStreamsAreDeterministic(t *testing.T) {
	for _, name := range Names() {
		wl, _ := ByName(name)
		a := warpStream(wl, 3, 5, 42, 128)
		b := warpStream(wl, 3, 5, 42, 128)
		for i := 0; i < 500; i++ {
			x, y := core.NextOf(a), core.NextOf(b)
			if x.Kind != y.Kind || x.Store != y.Store || len(x.Lines) != len(y.Lines) {
				t.Fatalf("%s: streams diverge at instr %d", name, i)
			}
			for l := range x.Lines {
				if x.Lines[l] != y.Lines[l] {
					t.Fatalf("%s: line addresses diverge at instr %d", name, i)
				}
			}
		}
	}
}

func TestStreamsDifferAcrossWarps(t *testing.T) {
	wl, _ := ByName("cfd")
	a := warpStream(wl, 0, 0, 1, 128)
	b := warpStream(wl, 0, 1, 1, 128)
	same := true
	for i := 0; i < 200 && same; i++ {
		x, y := core.NextOf(a), core.NextOf(b)
		if x.Kind != y.Kind || len(x.Lines) != len(y.Lines) {
			same = false
			break
		}
		for l := range x.Lines {
			if x.Lines[l] != y.Lines[l] {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatalf("two warps produced identical 200-instruction streams")
	}
}

// instrMix runs n instructions and returns (mem, store, distinct lines).
// A batched compute Instr (Run > 1) counts as Run instructions.
func instrMix(s core.InstrStream, n int, lineSize uint64) (memN, storeN int, lines map[uint64]bool) {
	lines = map[uint64]bool{}
	for i := 0; i < n; {
		in := core.NextOf(s)
		if r := in.Run; r > 1 {
			i += r
		} else {
			i++
		}
		if in.Kind != core.Mem {
			continue
		}
		memN++
		if in.Store {
			storeN++
		}
		for _, l := range in.Lines {
			lines[l] = true
		}
	}
	return
}

// expectedMemFrac is the fraction of instructions that are memory
// instructions a spec should produce: 1/(cpm+1) for a single phase,
// the duration-weighted mean of that over the phases otherwise.
func expectedMemFrac(spec Spec) float64 {
	if len(spec.Phases) == 0 {
		return 1.0 / float64(spec.ComputePerMem+1)
	}
	var total, frac float64
	for _, p := range spec.Phases {
		w := float64(p.Instructions)
		total += w
		frac += w / float64(p.ComputePerMem+1)
	}
	return frac / total
}

// expectedStoreFrac is the store fraction among memory instructions:
// phases contribute in proportion to the memory instructions they
// issue, not their total instruction count.
func expectedStoreFrac(spec Spec) float64 {
	if len(spec.Phases) == 0 {
		return spec.StoreFrac
	}
	var mem, stores float64
	for _, p := range spec.Phases {
		m := float64(p.Instructions) / float64(p.ComputePerMem+1)
		mem += m
		stores += m * p.StoreFrac
	}
	return stores / mem
}

func TestMemoryIntensityMatchesSpec(t *testing.T) {
	for _, name := range Names() {
		wl, _ := ByName(name)
		spec := wl.(Spec)
		memN, storeN, _ := instrMix(warpStream(wl, 0, 0, 1, 128), 20000, 128)
		wantFrac := expectedMemFrac(spec)
		gotFrac := float64(memN) / 20000
		if gotFrac < wantFrac*0.7 || gotFrac > wantFrac*1.3 {
			t.Errorf("%s: mem fraction %.3f, want ~%.3f", name, gotFrac, wantFrac)
		}
		if storeCeil := expectedStoreFrac(spec); storeCeil > 0 {
			gotStore := float64(storeN) / float64(memN)
			// The hot-window reuse fraction never stores, so the
			// observed ratio is below the spec value.
			ceiling := storeCeil * 1.4
			if gotStore > ceiling {
				t.Errorf("%s: store fraction %.3f above ceiling %.3f", name, gotStore, ceiling)
			}
		}
	}
}

func TestWorkingSetBounded(t *testing.T) {
	wl, _ := ByName("sc") // shared 3072-line thrash set
	spec := wl.(Spec)
	_, _, lines := instrMix(warpStream(wl, 0, 0, 1, 128), 50000, 128)
	// Pattern lines plus the warp-private hot window.
	limit := spec.WorkingSetLines + hotWindowLines
	if len(lines) > limit {
		t.Fatalf("sc touched %d distinct lines, working set is %d", len(lines), limit)
	}
}

func TestStreamingCoversNewLines(t *testing.T) {
	wl, _ := ByName("lbm")
	_, _, a := instrMix(warpStream(wl, 0, 0, 1, 128), 10000, 128)
	if len(a) < 100 {
		t.Fatalf("streaming workload touched only %d lines", len(a))
	}
}

func TestSpecValidation(t *testing.T) {
	good := Spec{
		SpecName: "ok", Warps: 4, ComputePerMem: 2, DepDist: 1,
		AccessPattern: Streaming, WorkingSetLines: 64, LinesPerAccess: 1,
	}
	if err := good.Validate(); err != nil {
		t.Fatalf("good spec rejected: %v", err)
	}
	bads := []func(*Spec){
		func(s *Spec) { s.SpecName = "" },
		func(s *Spec) { s.Warps = 0 },
		func(s *Spec) { s.ComputePerMem = -1 },
		func(s *Spec) { s.DepDist = 0 },
		func(s *Spec) { s.StoreFrac = 1.5 },
		func(s *Spec) { s.HitFrac = -0.1 },
		func(s *Spec) { s.LinesPerAccess = 0 },
		func(s *Spec) { s.LinesPerAccess = 64 },
		func(s *Spec) { s.WorkingSetLines = 0 },
		func(s *Spec) { s.AccessPattern = "zigzag" },
		func(s *Spec) { s.AccessPattern = Strided; s.StrideLines = 0 },
	}
	for i, mut := range bads {
		s := good
		mut(&s)
		if err := s.Validate(); err == nil {
			t.Errorf("mutation %d: expected validation error", i)
		}
	}
}

// TestLanesStayWithinLines checks the Instr.Lines contract on every
// built-in benchmark and scenario: each memory instruction's entries
// are line-aligned and distinct, and there are at most lines-per-access
// of them (the largest of the spec's phases).
func TestLanesStayWithinLines(t *testing.T) {
	for _, name := range Names() {
		spec, _ := SpecByName(name)
		lpa := spec.LinesPerAccess
		for _, p := range spec.Phases {
			lpa = max(lpa, p.LinesPerAccess)
		}
		s := warpStream(spec, 1, 2, 7, 128)
		for i := 0; i < 2000; {
			in := core.NextOf(s)
			i += max(in.Run, 1)
			if in.Kind != core.Mem {
				continue
			}
			if len(in.Lines) == 0 || len(in.Lines) > lpa {
				t.Fatalf("%s: %d lines, want 1..%d", name, len(in.Lines), lpa)
			}
			for j, l := range in.Lines {
				if l%128 != 0 {
					t.Fatalf("%s: line %#x not 128B-aligned", name, l)
				}
				if slices.Contains(in.Lines[:j], l) {
					t.Fatalf("%s: line %#x repeated in %#x", name, l, in.Lines)
				}
			}
		}
	}
}

func TestHitFracProducesReuse(t *testing.T) {
	spec := Spec{
		SpecName: "hf", Warps: 1, ComputePerMem: 0, DepDist: 1,
		AccessPattern: Streaming, WorkingSetLines: 1 << 16,
		LinesPerAccess: 1, HitFrac: 0.5,
	}
	s := spec.Stream(0, 0, 1, 128)
	counts := map[uint64]int{}
	memN := 0
	for i := 0; i < 4000; {
		in := core.NextOf(s)
		if r := in.Run; r > 1 {
			i += r
		} else {
			i++
		}
		if in.Kind != core.Mem {
			continue
		}
		memN++
		counts[in.Lines[0]]++
	}
	reused := 0
	for _, c := range counts {
		if c > 10 {
			reused += c
		}
	}
	frac := float64(reused) / float64(memN)
	if frac < 0.35 || frac > 0.65 {
		t.Fatalf("hot-window fraction = %.2f, want ~0.5", frac)
	}
}

func TestStencilHasTemporalReuse(t *testing.T) {
	spec := Spec{
		SpecName: "st", Warps: 1, ComputePerMem: 0, DepDist: 1,
		AccessPattern: Stencil, WorkingSetLines: 1024, LinesPerAccess: 2,
	}
	_, _, lines := instrMix(spec.Stream(0, 0, 1, 128), 800, 128)
	// 800 accesses sliding one line per 8 accesses touch ~100+2 lines.
	if len(lines) > 150 {
		t.Fatalf("stencil touched %d lines in 800 instrs; expected strong reuse", len(lines))
	}
}

func TestGatherStaysInWorkingSet(t *testing.T) {
	spec := Spec{
		SpecName: "ga", Warps: 1, ComputePerMem: 0, DepDist: 1,
		AccessPattern: Gather, WorkingSetLines: 256, LinesPerAccess: 4, Shared: true,
	}
	_, _, lines := instrMix(spec.Stream(0, 0, 1, 128), 5000, 128)
	if len(lines) > 256 {
		t.Fatalf("gather escaped its working set: %d lines", len(lines))
	}
	if len(lines) < 200 {
		t.Fatalf("gather covered only %d of 256 lines", len(lines))
	}
}

func TestRegisterPanicsOnDuplicate(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatalf("expected panic for duplicate registration")
		}
	}()
	register(Spec{
		SpecName: "cfd", Warps: 1, ComputePerMem: 1, DepDist: 1,
		AccessPattern: Streaming, WorkingSetLines: 8, LinesPerAccess: 1,
	})
}
