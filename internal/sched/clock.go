// Package sched holds the exact rational clock-domain arithmetic
// (Domain) behind the simulator's next-event engine. The sim package
// uses it to convert each derived domain's next interesting tick into
// a core-cycle bound and to advance the domains across a skipped span
// while keeping every statistic byte-identical to stepping each cycle
// — the arithmetic here is the part of that guarantee that must be
// exact, not approximately right.
package sched

// Domain tracks one derived clock domain advanced in rational
// proportion to the core clock via a phase accumulator, exactly as
// the historical per-cycle loop did:
//
//	acc += mhz; for acc >= coreMHz { tick; acc -= coreMHz }
//
// so the cumulative tick count after n core steps is always
// floor(n·mhz/coreMHz), no matter how the n steps are partitioned
// into Advance calls. That identity is what the back-pressure
// denominator tests pin, and it is why a batch-skipped span produces
// the same per-domain sample counts as stepping through it.
type Domain struct {
	mhz, coreMHz int64
	acc          int64 // phase accumulator, 0 <= acc < coreMHz
	cycle        int64 // completed domain ticks = index of the next tick
}

// NewDomain returns a domain running at mhz against a core clock of
// coreMHz. Both must be positive (config.Validate enforces it).
func NewDomain(mhz, coreMHz int) Domain {
	return Domain{mhz: int64(mhz), coreMHz: int64(coreMHz)}
}

// Advance moves the domain forward by k core steps and returns how
// many domain ticks elapse. The ticks carry consecutive domain cycle
// numbers starting at Cycle()-n (capture Cycle() before the call to
// drive a component's Tick loop).
func (d *Domain) Advance(k int64) int64 {
	ticks := (d.acc + k*d.mhz) / d.coreMHz
	d.acc += k*d.mhz - ticks*d.coreMHz
	d.cycle += ticks
	return ticks
}

// Cycle returns the index of the next domain tick (equivalently, the
// number of ticks executed so far).
func (d *Domain) Cycle() int64 { return d.cycle }

// maxBudget caps the tick budget in StepsUntil so the arithmetic
// cannot overflow for far-future (or MaxInt64 sentinel) events; the
// resulting step count is still astronomically larger than any span
// the caller would skip.
const maxBudget = int64(1) << 32

// StepsUntil returns the largest number of core steps k such that
// advancing by k does not execute the domain tick at domain cycle ev:
// the event stays strictly in the future. It returns 0 when the tick
// at ev is due on the very next core step (or already past), i.e. the
// caller must step rather than skip.
func (d *Domain) StepsUntil(ev int64) int64 {
	budget := ev - d.cycle // ticks that may elapse without reaching ev
	if budget < 0 {
		return 0 // the event tick is already due
	}
	if budget > maxBudget {
		budget = maxBudget
	}
	// ticks(k) = floor((acc + k·mhz)/coreMHz) must stay <= budget:
	// acc + k·mhz <= (budget+1)·coreMHz - 1.
	return ((budget+1)*d.coreMHz - 1 - d.acc) / d.mhz
}
