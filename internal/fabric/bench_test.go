package fabric

import (
	"context"
	"testing"

	"repro/internal/api"
	"repro/internal/serve"
)

// BenchmarkFabricSweep is one coordinator over three in-process
// gpusimd workers running a cold designspace grid at a tiny window:
// sc, cfd and nn under the baseline and the five Table I sets, 18
// jobs. Each op is one sweep under a seed no earlier op used, so
// every job simulates and the op ends when the busiest worker is
// done. It reports host ns per sweep and busiest_share, the busiest
// worker's share of a sweep's jobs averaged over the sweeps (1/3 is
// an even split), the imbalance that bounds a cold sweep's makespan.
// Workers listen on fresh ports, and rendezvous routing ranks workers
// by URL, so busiest_share moves a little from run to run.
func BenchmarkFabricSweep(b *testing.B) {
	_, urls := newFleet(b, 3, serve.Options{})
	coord := newCoordinator(b, urls, Options{})
	req, err := api.DecodeJobBody([]byte(`{"workloads":["sc","cfd","nn"],"warmup_cycles":50,"window_cycles":150}`))
	if err != nil {
		b.Fatal(err)
	}
	jobs := func() []int64 {
		ws := coord.Workers()
		out := make([]int64, len(ws))
		for i, w := range ws {
			out[i] = w.Jobs
		}
		return out
	}
	var seed uint64
	var shares float64
	for b.Loop() {
		seed++
		req.Seed = &seed
		before := jobs()
		if _, err := coord.RunSweep(context.Background(), "designspace", req, nil); err != nil {
			b.Fatal(err)
		}
		var total, busiest int64
		for i, n := range jobs() {
			d := n - before[i]
			total += d
			busiest = max(busiest, d)
		}
		shares += float64(busiest) / float64(total)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/sweep")
	b.ReportMetric(shares/float64(b.N), "busiest_share")
}
