package dram

import (
	"math/rand/v2"
	"testing"

	"repro/internal/config"
	"repro/internal/mem"
)

// recycleSink accepts every completed read and hands the request back
// for reissue, so a benchmark loop allocates nothing.
type recycleSink struct {
	free      []*mem.Request
	completed int
}

func (s *recycleSink) Accept(r *mem.Request) bool {
	s.free = append(s.free, r)
	s.completed++
	return true
}

// BenchmarkChannelSaturated runs one GTX480 DRAM channel alone with its
// scheduler queue refilled to capacity every tick by reads to random
// lines of a 64 MiB footprint — the congested FR-FCFS scan of the
// paper's §III. Each op ticks until at least one more access
// completes; the metric is host nanoseconds per completed access.
func BenchmarkChannelSaturated(b *testing.B) {
	cfg := config.GTX480Baseline().DRAM
	sink := &recycleSink{}
	ch := NewChannel(cfg, 128, 6, sink)
	for i := 0; i < 4*cfg.SchedQueue; i++ {
		sink.free = append(sink.free, &mem.Request{LineSize: 128, Kind: mem.Load})
	}
	rng := rand.New(rand.NewPCG(1, 1))
	var cycle int64
	for b.Loop() {
		for want := sink.completed + 1; sink.completed < want; cycle++ {
			for ch.QueueFree() > 0 && len(sink.free) > 0 {
				req := sink.free[len(sink.free)-1]
				sink.free = sink.free[:len(sink.free)-1]
				req.Addr = uint64(rng.IntN(1<<19)) * 128
				ch.Push(req)
			}
			ch.Tick(cycle)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(sink.completed), "ns/access")
}
