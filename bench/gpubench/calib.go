package main

import (
	"math"
	"math/rand/v2"
	"time"
)

// The benchmark runs on shared machines whose speed drifts by tens of
// percent over minutes under other tenants' load. Every time a run
// reports is therefore scaled toward a reference speed. Throughout the
// run a calibrator times dependent pointer chases through a 32 KiB and
// a 256 KiB ring, which run no repo code, and the run's times are
// multiplied by the square root of calibNominal over the median chase
// time. A change to the repo cannot move the chases; a slower or faster
// machine moves both, though not in step.
//
// On a 2-vCPU Intel Xeon at 2.0 GHz, this pair of rings tracked the
// simulator better than either ring alone, an arithmetic loop, or rings
// of 2 KiB or 8 MiB. Scaling by the full chase ratio cut the quartile
// spread of a simulation job's time across one-minute windows from
// 19-33% to 8-16%. But in some stretches the chases slowed while one
// workload did not, and full scaling then tripled that workload's
// spread. Over five sets of ten runs per workload, the square root
// gave the lowest worst-case spread of a timing metric (25%, against
// 34% unscaled and 35% fully scaled) and the lowest median spread (8%,
// against 12% and 9%). It narrows the drift; it does not remove it.
const (
	// calibReps chases are timed at each calibration point, at most one
	// point per calibEvery.
	calibReps  = 5
	calibEvery = time.Second
	// calibNominal is a typical chase time on that machine when quiet.
	calibNominal = 9 * time.Millisecond
)

// calibRings are the chased rings and the steps taken through each.
var calibRings = []struct {
	ring  []uint32
	steps int
}{
	{newRing(8 << 10), 2_500_000},
	{newRing(64 << 10), 800_000},
}

// newRing returns one cycle through n slots in a fixed random order
// (Sattolo's algorithm).
func newRing(n int) []uint32 {
	r := make([]uint32, n)
	for i := range r {
		r[i] = uint32(i)
	}
	rng := rand.New(rand.NewPCG(1, 2))
	for i := len(r) - 1; i > 0; i-- {
		j := rng.IntN(i)
		r[i], r[j] = r[j], r[i]
	}
	return r
}

var calibSink uint32

//go:noinline
func calibChase(ring []uint32, steps int) uint32 {
	p := uint32(0)
	for range steps {
		p = ring[p]
	}
	return p
}

// calibrator collects the chase times of one run.
type calibrator struct {
	times []float64
	last  time.Time
}

// sample times calibReps chases.
func (c *calibrator) sample() {
	for range calibReps {
		t := time.Now()
		for _, r := range calibRings {
			calibSink += calibChase(r.ring, r.steps)
		}
		c.times = append(c.times, float64(time.Since(t)))
	}
	c.last = time.Now()
}

// maybe samples unless the last sample is less than calibEvery old.
func (c *calibrator) maybe() {
	if time.Since(c.last) >= calibEvery {
		c.sample()
	}
}

// factor scales the run's times toward the reference speed.
func (c *calibrator) factor() float64 {
	return math.Sqrt(float64(calibNominal) / median(c.times))
}
