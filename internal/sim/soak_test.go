package sim

import (
	"os"
	"strconv"
	"testing"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/workload"
)

// finiteWorkload wraps a workload so every warp issues exactly n
// instructions and then pure ALU forever — after the burst, all
// memory traffic must drain completely if the system is deadlock-free.
type finiteWorkload struct {
	inner workload.Workload
	n     int
}

func (f finiteWorkload) Name() string    { return f.inner.Name() + "-finite" }
func (f finiteWorkload) WarpsPerSM() int { return f.inner.WarpsPerSM() }

func (f finiteWorkload) Streams(sm int, seed, lineSize uint64, dst []core.InstrStream) {
	f.inner.Streams(sm, seed, lineSize, dst)
	for w, s := range dst {
		dst[w] = &finiteStream{inner: s, left: f.n}
	}
}

type finiteStream struct {
	inner core.InstrStream
	left  int
}

func (s *finiteStream) NextInto(in *core.Instr) {
	if s.left <= 0 {
		*in = core.Instr{Kind: core.ALU}
		return
	}
	s.inner.NextInto(in)
	k := in.Run
	if k < 1 {
		k = 1
	}
	if k > s.left {
		in.Run = s.left // clamp a batched run to the budget
		k = s.left
	}
	s.left -= k
}

// soakScale reads the SOAK_SCALE env knob (default 1): the nightly
// soak workflow sets it to stretch the saturation burst and the drain
// budget by that factor, giving the long-window runs per-PR CI cannot
// afford without forking the test.
func soakScale(t *testing.T) int {
	s := os.Getenv("SOAK_SCALE")
	if s == "" {
		return 1
	}
	n, err := strconv.Atoi(s)
	if err != nil || n < 1 {
		t.Fatalf("invalid SOAK_SCALE %q", s)
	}
	return n
}

// TestNoDeadlockUnderSaturation is the soak test: drive every
// benchmark hard enough to saturate all queues, stop the memory
// traffic, and require the entire hierarchy to drain. A lost request
// or a back-pressure cycle would leave Pending() non-zero forever.
func TestNoDeadlockUnderSaturation(t *testing.T) {
	scale := soakScale(t)
	cfg := config.GTX480Baseline()
	cfg.Core.NumSMs = 6
	cfg.L2.Partitions = 3
	for _, name := range workload.Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			wl, err := workload.ByName(name)
			if err != nil {
				t.Fatal(err)
			}
			g, err := New(cfg, finiteWorkload{inner: wl, n: 400 * scale})
			if err != nil {
				t.Fatal(err)
			}
			// Saturate, then drain in bounded chunks. Heavier workloads
			// (bfs pushes 240 warps of 8-line gathers through 3
			// partitions) legitimately need several chunks, and while
			// the burst is still issuing, queue occupancy sits at a
			// constant saturation plateau — so lack of progress means
			// a chunk in which neither the pending count dropped nor
			// any instruction issued. The chunk length scales with the
			// burst so the total drain budget keeps pace.
			pending, prev := -1, -1
			var instrs, prevInstrs int64 = 0, -1
			for i := 0; i < 10 && pending != 0; i++ {
				g.Run(int64(30000 * scale))
				prev, pending = pending, 0
				prevInstrs, instrs = instrs, g.Results().Instructions
				for _, sm := range g.SMs() {
					pending += sm.Pending()
				}
				for _, p := range g.Partitions() {
					pending += p.Pending()
				}
				if i > 0 && pending >= prev && instrs <= prevInstrs {
					t.Fatalf("%d items stuck in the hierarchy (no drain progress in %d cycles)", pending, 30000*scale)
				}
			}
			if pending != 0 {
				t.Fatalf("%d items still in the hierarchy after %d cycles", pending, 300000*scale)
			}
			// And the work actually happened.
			if g.Results().Instructions == 0 {
				t.Fatalf("no instructions executed")
			}
		})
	}
}

// TestNoDeadlockTinyQueues shrinks every bounded structure to its
// minimum, maximizing back-pressure interactions, and still requires
// a full drain.
func TestNoDeadlockTinyQueues(t *testing.T) {
	cfg := config.GTX480Baseline()
	cfg.Core.NumSMs = 4
	cfg.L2.Partitions = 2
	cfg.L1.MissQueue = 1
	cfg.L1.MSHREntries = 2
	cfg.L1.MSHRMaxMerge = 1
	cfg.Core.MemPipelineWidth = 1
	cfg.Core.ResponseQueue = 1
	cfg.Icnt.InputBuffer = 1
	cfg.L2.AccessQueue = 1
	cfg.L2.MissQueue = 2 // must hold a fetch plus a writeback
	cfg.L2.ResponseQueue = 1
	cfg.L2.DRAMReturnQueue = 1
	cfg.L2.MSHREntries = 2
	cfg.L2.MSHRMaxMerge = 1
	cfg.DRAM.SchedQueue = 1

	wl := workload.Spec{
		SpecName: "tiny-q", Warps: 8, ComputePerMem: 1, DepDist: 1,
		StoreFrac: 0.3, AccessPattern: workload.Gather,
		WorkingSetLines: 256, Shared: true, LinesPerAccess: 2,
	}
	g, err := New(cfg, finiteWorkload{inner: wl, n: 200})
	if err != nil {
		t.Fatal(err)
	}
	g.Run(120000)
	pending := 0
	for _, sm := range g.SMs() {
		pending += sm.Pending()
	}
	for _, p := range g.Partitions() {
		pending += p.Pending()
	}
	if pending != 0 {
		t.Fatalf("%d items stuck with minimum queues", pending)
	}
}
