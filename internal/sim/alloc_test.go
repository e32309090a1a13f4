package sim

import (
	"testing"

	"repro/internal/config"
	"repro/internal/workload"
)

// TestSteadyStateAllocations guards the allocation-free hot path: once
// a simulation reaches steady state (free lists populated, rings and
// scratch buffers at their high-water marks), the per-cycle loop must
// allocate almost nothing. The budgets below are deliberately tight —
// roughly 3 allocations per 1000 cycles, against ~2000/1k cycles
// before the free-list work — so a single forgotten recycle point or
// a new per-instruction allocation fails the test immediately.
func TestSteadyStateAllocations(t *testing.T) {
	const (
		warmup = 6000 // cycles to reach steady state
		window = 1000 // measured span
		// A window usually allocates <= 3 times, but a late
		// high-water-mark growth (a ring or tracker reaching a new
		// maximum after warmup) occasionally adds one more; 5 keeps the
		// gate deterministic while still failing instantly on any
		// per-instruction allocation (~2000 per window before the
		// free-list work).
		budget = 5.0
	)
	cases := []struct {
		name  string
		fixed bool
	}{
		{"full-hierarchy", false},
		{"fixed-latency", true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			wl, err := workload.ByName("sc")
			if err != nil {
				t.Fatal(err)
			}
			cfg := config.GTX480Baseline()
			if tc.fixed {
				cfg.FixedLatency = config.FixedLatencyConfig{Enabled: true, Cycles: 200}
			}
			g, err := New(cfg, wl)
			if err != nil {
				t.Fatal(err)
			}
			g.Run(warmup)
			avg := testing.AllocsPerRun(5, func() { g.Run(window) })
			if avg > budget {
				t.Errorf("steady-state allocations: %.1f per %d cycles, budget %.1f", avg, window, budget)
			}
		})
	}
}

// TestConstructionAllocations gates what building and warming up a GPU
// costs in allocations: New, and New plus a 6000-cycle warm-up, for a
// single-phase (cfd) and a multi-phase (kmeans) workload on the full
// hierarchy and in Fig. 1 mode. Construction is a few allocations per
// component — the streams in four per-SM slabs, queues, caches, MSHR
// tables and samplers held by value — and the warm-up adds only ring
// growth and chunked free-list growth, so a per-warp or per-object
// allocation creeping back in (a stream built alone, a pool growing
// one object at a time) fails it. The budgets sit a few percent above
// the counts (314 and ~406 on the hierarchy, 229 and 379 in Fig. 1 mode;
// 3452 and 7062 before the slabs). testing.AllocsPerRun runs at
// GOMAXPROCS 1, so the Fig. 1 worker count is fixed too.
func TestConstructionAllocations(t *testing.T) {
	const warmup = 6000
	cases := []struct {
		name       string
		fixed      bool
		newBudget  float64
		warmBudget float64
	}{
		{"hierarchy", false, 330, 430},
		{"fig1", true, 240, 400},
	}
	for _, tc := range cases {
		for _, name := range []string{"cfd", "kmeans"} {
			t.Run(tc.name+"/"+name, func(t *testing.T) {
				wl, err := workload.ByName(name)
				if err != nil {
					t.Fatal(err)
				}
				cfg := config.GTX480Baseline()
				if tc.fixed {
					cfg.FixedLatency = config.FixedLatencyConfig{Enabled: true, Cycles: 200}
				}
				newAllocs := testing.AllocsPerRun(3, func() {
					if _, err := New(cfg, wl); err != nil {
						t.Fatal(err)
					}
				})
				warmAllocs := testing.AllocsPerRun(3, func() {
					g, err := New(cfg, wl)
					if err != nil {
						t.Fatal(err)
					}
					g.Run(warmup)
				})
				if newAllocs > tc.newBudget {
					t.Errorf("New: %.0f allocations, budget %.0f", newAllocs, tc.newBudget)
				}
				if warmAllocs > tc.warmBudget {
					t.Errorf("New + Run(%d): %.0f allocations, budget %.0f", warmup, warmAllocs, tc.warmBudget)
				}
			})
		}
	}
}
