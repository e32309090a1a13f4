package sim

import (
	"testing"

	"repro/internal/config"
	"repro/internal/workload"
)

// Clock domains, in domainTicks order.
const (
	domSM = iota
	domL2
	domDRAM
	domIcnt
	numDomains
)

// domainTicks sums the host-work counters (full ticks, cycles advanced)
// of each clock domain's components: SMs, L2 partitions, DRAM channels
// and both crossbars.
func (g *GPU) domainTicks() (d [numDomains][2]int64) {
	add := func(dom int, c interface{ HostTicks() (int64, int64) }) {
		full, cycles := c.HostTicks()
		d[dom][0] += full
		d[dom][1] += cycles
	}
	for _, sm := range g.sms {
		add(domSM, sm)
	}
	for _, p := range g.parts {
		add(domL2, p)
		add(domDRAM, p.Channel())
	}
	if g.reqX != nil {
		add(domIcnt, g.reqX)
		add(domIcnt, g.respX)
	}
	return d
}

func newHierarchy(t *testing.T, name string) *GPU {
	t.Helper()
	wl, err := workload.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	g, err := New(config.GTX480Baseline(), wl)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestHostTicksRepeat: the per-domain host-work counters are a
// deterministic function of the run, so they repeat exactly, and every
// domain both ticks and skips on the congested hierarchy.
func TestHostTicksRepeat(t *testing.T) {
	var runs [2][numDomains][2]int64
	for i := range runs {
		g := newHierarchy(t, "cfd")
		g.Run(4000)
		g.ResetStats() // host counters are not statistics
		g.Run(4000)
		runs[i] = g.domainTicks()
	}
	if runs[0] != runs[1] {
		t.Fatalf("host ticks differ between identical runs: %v vs %v", runs[0], runs[1])
	}
	for dom, c := range runs[0] {
		if c[0] <= 0 || c[0] > c[1] {
			t.Errorf("domain %d: %d full ticks over %d cycles", dom, c[0], c[1])
		}
	}
}

// TestSkippedSpanAddsNoFullTicks: a span the event engine skips
// advances every component's cycle count by its domain's ticks in the
// span and adds no full tick anywhere. One SM running one warp whose
// every instruction is a dependent streaming load leaves the whole GPU
// waiting on one access at a time, so such spans come early.
func TestSkippedSpanAddsNoFullTicks(t *testing.T) {
	cfg := config.GTX480Baseline()
	cfg.Core.NumSMs = 1
	g, err := New(cfg, workload.Spec{
		SpecName: "chase", Warps: 1, DepDist: 1,
		AccessPattern: workload.Streaming, WorkingSetLines: 1 << 16, LinesPerAccess: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Find a span in which every domain ticks at least once; each
	// derived domain ticks as its phase accumulator says, so advance
	// copies to learn how often.
	const limit = 20000
	var k int64
	var steps [numDomains]int64
	for g.coreCycle < limit {
		if k = g.idleSpan(limit); k > 0 {
			l2, dr, ic := g.l2Dom, g.dramDom, g.icntDom
			steps = [numDomains]int64{k, l2.Advance(k), dr.Advance(k), ic.Advance(k)}
			if min(steps[domL2], steps[domDRAM], steps[domIcnt]) > 0 {
				break
			}
		}
		g.Step()
	}
	if g.coreCycle >= limit {
		t.Fatalf("no span skipping every domain within %d cycles", limit)
	}
	per := [numDomains]int64{int64(len(g.sms)), int64(len(g.parts)), int64(len(g.parts)), 2}
	before := g.domainTicks()
	g.skipSpan(k)
	after := g.domainTicks()
	for dom := range after {
		if after[dom][0] != before[dom][0] {
			t.Errorf("domain %d: skipping %d core cycles added %d full ticks", dom, k, after[dom][0]-before[dom][0])
		}
		if got, want := after[dom][1]-before[dom][1], steps[dom]*per[dom]; got != want {
			t.Errorf("domain %d: cycles advanced %d, want %d", dom, got, want)
		}
	}
}
