// Package sched holds the exact rational clock-domain arithmetic
// (Domain) that derives the interconnect, L2 and DRAM clocks from the
// core clock. The sim package advances each derived domain once per
// core step and ticks the domain's components as often as it says;
// every per-domain tick count feeds queue-occupancy samples and
// back-pressure denominators, so the arithmetic must be exact.
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
// denominator tests pin.
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
