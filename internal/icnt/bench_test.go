package icnt

import (
	"math/rand/v2"
	"testing"

	"repro/internal/mem"
)

// recycleSink accepts every packet and hands it back for reinjection,
// so a benchmark loop allocates nothing.
type recycleSink struct {
	free      []*mem.Packet
	delivered int
}

func (s *recycleSink) Accept(dst int, pkt *mem.Packet) bool {
	s.free = append(s.free, pkt)
	s.delivered++
	return true
}

// BenchmarkCrossbarSaturated runs one crossbar alone at GTX480's
// request-network shape (15 SM inputs, 6 partition outputs, 32-byte
// flits) with every input refilled each tick, toward uniformly random
// outputs, and a sink that never blocks. Each op ticks until at least
// one more packet is delivered; the metric is host nanoseconds per
// delivered packet.
func BenchmarkCrossbarSaturated(b *testing.B) {
	const ins, outs = 15, 6
	sink := &recycleSink{}
	x := New(Config{Inputs: ins, Outputs: outs, FlitBytes: 32, InputBuffer: 8, Name: "bench"}, sink)
	for i := 0; i < ins*8+outs; i++ {
		sink.free = append(sink.free, &mem.Packet{Req: &mem.Request{}})
	}
	rng := rand.New(rand.NewPCG(1, 1))
	var cycle int64
	for b.Loop() {
		for want := sink.delivered + 1; sink.delivered < want; cycle++ {
			for src := 0; src < ins && len(sink.free) > 0; src++ {
				if x.InputFree(src) == 0 {
					continue
				}
				pkt := sink.free[len(sink.free)-1]
				sink.free = sink.free[:len(sink.free)-1]
				pkt.Src, pkt.Dst, pkt.SizeBytes = src, rng.IntN(outs), 8+128*rng.IntN(2)
				x.Push(src, pkt)
			}
			x.Tick(cycle)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(sink.delivered), "ns/packet")
}
