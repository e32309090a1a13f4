package cache

import (
	"math/rand/v2"
	"testing"

	"repro/internal/config"
	"repro/internal/mem"
)

// BenchmarkL1MSHR drives one GTX480 L1 tag array and its MSHRs alone
// at a fixed access mix drawn from a seeded RNG: three accesses in
// four go to 32 hot lines that stay resident, one in eight streams
// to a fresh line, and one in eight goes to a line still in flight. A
// miss reserves a way and allocates an MSHR entry, an access to an
// in-flight line merges into its entry, and once 16 misses are
// outstanding the oldest one's fill returns (Release, then Fill). An
// op is one access; the metrics are host nanoseconds per access and
// the mix's miss fraction (misses and in-flight hits).
func BenchmarkL1MSHR(b *testing.B) {
	cfg := config.GTX480Baseline().L1
	l1 := New(Config{Sets: cfg.Sets, Ways: cfg.Ways, LineSize: cfg.LineSize, Replacement: cfg.Replacement})
	mshr := NewMSHR(cfg.MSHREntries, cfg.MSHRMaxMerge)
	const hot, depth = 32, 16
	lineSize := uint64(cfg.LineSize)
	inflight := make([]uint64, 0, depth) // outstanding lines, oldest first
	req := &mem.Request{}
	rng := rand.New(rand.NewPCG(1, 1))
	fresh := uint64(1 << 20) // next streaming line address
	var now int64
	for b.Loop() {
		now++
		var addr uint64
		switch r := rng.IntN(8); {
		case r < 6:
			addr = uint64(rng.IntN(hot)) * lineSize
		case r == 7 && len(inflight) > 0:
			addr = inflight[rng.IntN(len(inflight))]
		default:
			addr, fresh = fresh, fresh+lineSize
		}
		switch l1.Lookup(addr, false, now) {
		case HitReserved:
			mshr.Allocate(addr, req, now)
		case Miss:
			if len(inflight) == depth {
				mshr.Release(inflight[0])
				l1.Fill(inflight[0], now, false)
				inflight = inflight[:copy(inflight, inflight[1:])]
			}
			if _, _, ok := l1.Reserve(addr, now); ok && mshr.Allocate(addr, req, now) == AllocNew {
				inflight = append(inflight, addr)
			}
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/access")
	b.ReportMetric(l1.Stats().MissRate(), "miss_frac")
}
