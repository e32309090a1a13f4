package workload

import (
	"testing"

	"repro/internal/core"
)

// BenchmarkStreamNextInto drives the instruction streams of one SM
// alone, per suite benchmark: the SM's warps from one Streams call,
// read round-robin with NextInto as the warp scheduler reads them. An
// op is one NextInto, and a batched compute run counts as its Run
// instructions; the metric is host nanoseconds per warp instruction.
func BenchmarkStreamNextInto(b *testing.B) {
	for _, wl := range Suite() {
		b.Run(wl.Name(), func(b *testing.B) {
			streams := make([]core.InstrStream, wl.WarpsPerSM())
			wl.Streams(0, 1, 128, streams)
			var in core.Instr
			var insts int64
			w := 0
			for b.Loop() {
				streams[w].NextInto(&in)
				insts += int64(max(in.Run, 1))
				if w++; w == len(streams) {
					w = 0
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(insts), "ns/inst")
		})
	}
}
