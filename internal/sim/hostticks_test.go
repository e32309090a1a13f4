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
// deterministic function of the run, so they repeat exactly. On the
// congested hierarchy only the SMs skip ticks, by sleeping; the
// memory-side domains run a full tick every cycle of their clocks.
// The full-tick counts of a cfd window are pinned as upper bounds:
// a change that steps any domain more often fails here, and one that
// lets a domain sleep may lower its bound.
func TestHostTicksRepeat(t *testing.T) {
	const fill, window = 5000, 20000
	maxFull := [numDomains]int64{domSM: 154409, domL2: 120000, domDRAM: 158400, domIcnt: 40000}
	var runs [2][numDomains][2]int64
	for i := range runs {
		g := newHierarchy(t, "cfd")
		g.Run(fill)
		g.ResetStats() // host counters are not statistics
		before := g.domainTicks()
		g.Run(window)
		after := g.domainTicks()
		for dom := range after {
			runs[i][dom] = [2]int64{after[dom][0] - before[dom][0], after[dom][1] - before[dom][1]}
		}
	}
	if runs[0] != runs[1] {
		t.Fatalf("host ticks differ between identical runs: %v vs %v", runs[0], runs[1])
	}
	for dom, c := range runs[0] {
		t.Logf("domain %d: %d full ticks over %d cycles", dom, c[0], c[1])
		if c[0] <= 0 || c[0] > c[1] {
			t.Errorf("domain %d: %d full ticks over %d cycles", dom, c[0], c[1])
		}
		if c[0] > maxFull[dom] {
			t.Errorf("domain %d: %d full ticks, above the pinned %d", dom, c[0], maxFull[dom])
		}
	}
}
