package l2

import (
	"math/rand/v2"
	"testing"

	"repro/internal/config"
	"repro/internal/mem"
)

// retireInjector stands in for the response crossbar: it takes every
// response and retires it to the pool, so a benchmark loop allocates
// nothing.
type retireInjector struct{ pool *mem.Pool }

func (r retireInjector) Push(_ int, pkt *mem.Packet) bool {
	r.pool.PutRequest(pkt.Req)
	r.pool.PutPacket(pkt)
	return true
}

// BenchmarkL2Partition drives one GTX480 memory partition alone (its
// L2 slice, MSHRs, four queues and DRAM channel, the channel ticked at
// its 924/700 clock ratio) with the access queue refilled to capacity
// every L2 cycle from a fixed mix drawn from a seeded RNG: three
// accesses in four load one of 512 hot lines, half of each set, one in
// eight loads a fresh streaming line, and one in eight stores to a hot
// line. Each op ticks until the partition consumes at least one more
// access; the metrics are host nanoseconds per consumed access and the
// mix's miss fraction.
func BenchmarkL2Partition(b *testing.B) {
	cfg := config.GTX480Baseline()
	pool := mem.NewPool()
	var nextID uint64
	p := New(0, cfg, retireInjector{pool}, &nextID)
	p.UsePool(pool)
	const hot = 512
	lineSize := uint64(cfg.L2.LineSize)
	rng := rand.New(rand.NewPCG(1, 1))
	fresh := uint64(1 << 24) // next streaming line address
	var cycle, dramCycle, dramDebt int64
	tick := func() {
		for !p.AccessFull() {
			req := pool.GetRequest()
			*req = mem.Request{LineSize: lineSize, Kind: mem.Load}
			switch r := rng.IntN(8); {
			case r < 6:
				req.Addr = uint64(rng.IntN(hot)) * lineSize
			case r == 6:
				req.Addr, fresh = fresh, fresh+lineSize
			default:
				req.Addr, req.Kind = uint64(rng.IntN(hot))*lineSize, mem.Store
			}
			pkt := pool.GetPacket()
			*pkt = mem.Packet{Req: req, SizeBytes: mem.RequestPacketBytes(req)}
			p.Accept(pkt)
		}
		p.Tick(cycle)
		cycle++
		for dramDebt += int64(cfg.Clock.DRAMMHz); dramDebt >= int64(cfg.Clock.L2MHz); dramDebt -= int64(cfg.Clock.L2MHz) {
			p.Channel().Tick(dramCycle)
			dramCycle++
		}
	}
	for range 20000 { // fill the tags, MSHRs, queues and the pool
		tick()
	}
	start := p.Stats()
	b.ReportAllocs()
	for b.Loop() {
		for want := p.Stats().Accesses + 1; p.Stats().Accesses < want; {
			tick()
		}
	}
	st := p.Stats()
	accesses := st.Accesses - start.Accesses
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(accesses), "ns/access")
	b.ReportMetric(float64(st.Misses+st.MSHRMerges-start.Misses-start.MSHRMerges)/float64(accesses), "miss_frac")
}
