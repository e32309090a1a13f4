package sched

import (
	"math/rand"
	"testing"
)

// refDomain is the historical per-cycle accumulator loop the Domain
// must reproduce exactly.
type refDomain struct {
	mhz, coreMHz int
	acc          int
	cycle        int64
}

func (r *refDomain) step() int64 {
	ticks := int64(0)
	for r.acc += r.mhz; r.acc >= r.coreMHz; r.acc -= r.coreMHz {
		r.cycle++
		ticks++
	}
	return ticks
}

// TestDomainAdvanceMatchesPerCycleLoop: any partition of n core steps
// into Advance calls yields the same cumulative tick count and phase
// as stepping the historical loop n times.
func TestDomainAdvanceMatchesPerCycleLoop(t *testing.T) {
	cases := []struct{ mhz, core int }{
		{924, 700}, {700, 700}, {350, 700}, {1, 700}, {699, 700}, {1400, 700},
	}
	rng := rand.New(rand.NewSource(1))
	for _, tc := range cases {
		d := NewDomain(tc.mhz, tc.core)
		ref := refDomain{mhz: tc.mhz, coreMHz: tc.core}
		var steps int64
		for steps < 10000 {
			k := int64(rng.Intn(37) + 1)
			got := d.Advance(k)
			var want int64
			for i := int64(0); i < k; i++ {
				want += ref.step()
			}
			steps += k
			if got != want || d.Cycle() != ref.cycle {
				t.Fatalf("%d/%d MHz after %d steps: Advance(%d)=%d ticks (cycle %d), per-cycle loop %d (cycle %d)",
					tc.mhz, tc.core, steps, k, got, d.Cycle(), want, ref.cycle)
			}
		}
		// Cumulative identity: floor(n·mhz/core).
		if want := steps * int64(tc.mhz) / int64(tc.core); d.Cycle() != want {
			t.Fatalf("%d/%d MHz: %d steps produced %d ticks, want floor %d", tc.mhz, tc.core, steps, d.Cycle(), want)
		}
	}
}

// TestDomainStepsUntil: StepsUntil(ev) is the exact largest skip that
// keeps the tick at domain cycle ev in the future — advancing by it
// stays short of ev, advancing by one more reaches it.
func TestDomainStepsUntil(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, tc := range []struct{ mhz, core int }{{924, 700}, {700, 700}, {350, 700}, {3, 700}} {
		d := NewDomain(tc.mhz, tc.core)
		for i := 0; i < 2000; i++ {
			d.Advance(int64(rng.Intn(5)))
			ev := d.Cycle() + int64(rng.Intn(50))
			k := d.StepsUntil(ev)
			probe := *&d // copy
			probe.Advance(k)
			if probe.Cycle() > ev {
				t.Fatalf("%d/%d MHz: StepsUntil(%d)=%d overshoots to cycle %d", tc.mhz, tc.core, ev, k, probe.Cycle())
			}
			probe.Advance(1)
			if probe.Cycle() <= ev {
				t.Fatalf("%d/%d MHz: StepsUntil(%d)=%d not maximal (k+1 reaches only cycle %d)",
					tc.mhz, tc.core, ev, k, probe.Cycle())
			}
		}
		// Past events are due now.
		if got := d.StepsUntil(d.Cycle() - 1); got != 0 {
			t.Fatalf("past event: StepsUntil = %d, want 0", got)
		}
	}
}
