package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestSamplerBasics(t *testing.T) {
	s := NewSampler(100, 10)
	for _, v := range []float64{10, 20, 30} {
		s.Add(v)
	}
	if s.Count() != 3 {
		t.Fatalf("count = %d", s.Count())
	}
	if s.Mean() != 20 {
		t.Fatalf("mean = %v, want 20", s.Mean())
	}
}

func TestSamplerEmpty(t *testing.T) {
	s := NewSampler(10, 2)
	if s.Mean() != 0 {
		t.Fatalf("empty sampler should report zeros")
	}
	if !math.IsNaN(s.Percentile(50)) {
		t.Fatalf("empty percentile should be NaN")
	}
}

func TestHistogramPercentile(t *testing.T) {
	h := makeHistogram(100, 10)
	for i := 0; i < 100; i++ {
		h.add(float64(i))
	}
	if p := h.percentile(50); p != 50 {
		t.Fatalf("p50 = %v, want 50", p)
	}
	if p := h.percentile(100); p != 100 {
		t.Fatalf("p100 = %v, want 100", p)
	}
}

func TestHistogramOverflow(t *testing.T) {
	h := makeHistogram(10, 2)
	h.add(2)
	h.add(10)
	h.add(100)
	// Two of three observations overflow: only the p33 rank lands in
	// a bin, and every higher rank reports the limit.
	if p := h.percentile(33); p != 5 {
		t.Fatalf("in-range percentile = %v, want bin edge 5", p)
	}
	if p := h.percentile(34); p != 10 {
		t.Fatalf("overflow percentile = %v, want limit 10", p)
	}
}

func TestHistogramNegativeClamps(t *testing.T) {
	h := makeHistogram(10, 2)
	h.add(-5)
	if h.bins[0] != 1 {
		t.Fatalf("negative value should land in bucket 0")
	}
}

func TestHistogramPanicsOnBadArgs(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatalf("expected panic for invalid histogram args")
		}
	}()
	makeHistogram(0, 3)
}

func TestQueueUsageFullOfUsage(t *testing.T) {
	q := NewQueueUsage("q", 4)
	// 2 empty cycles, 3 non-empty of which 2 full.
	q.SampleN(0, 1)
	q.SampleN(0, 1)
	q.SampleN(2, 1)
	q.SampleN(4, 1)
	q.SampleN(4, 1)
	if q.SampledCycles() != 5 {
		t.Fatalf("sampled = %d", q.SampledCycles())
	}
	if q.UsageCycles() != 3 {
		t.Fatalf("usage = %d, want 3", q.UsageCycles())
	}
	if q.FullCycles() != 2 {
		t.Fatalf("full = %d, want 2", q.FullCycles())
	}
	if got, want := q.FullOfUsage(), 2.0/3.0; math.Abs(got-want) > 1e-12 {
		t.Fatalf("fullOfUsage = %v, want %v", got, want)
	}
	if got, want := q.MeanOccupancy(), 2.0; got != want {
		t.Fatalf("mean occupancy = %v, want %v", got, want)
	}
}

func TestQueueUsageNeverUsed(t *testing.T) {
	q := NewQueueUsage("q", 4)
	q.SampleN(0, 1)
	if q.FullOfUsage() != 0 {
		t.Fatalf("unused queue FullOfUsage should be 0")
	}
}

func TestQueueUsageMerge(t *testing.T) {
	a := NewQueueUsage("a", 4)
	b := NewQueueUsage("b", 4)
	a.SampleN(4, 1)
	b.SampleN(0, 1)
	b.SampleN(2, 1)
	a.Merge(b)
	if a.SampledCycles() != 3 || a.UsageCycles() != 2 || a.FullCycles() != 1 {
		t.Fatalf("merge wrong: sampled=%d usage=%d full=%d", a.SampledCycles(), a.UsageCycles(), a.FullCycles())
	}
}

func TestMeans(t *testing.T) {
	if m := Mean([]float64{1, 2, 3}); m != 2 {
		t.Fatalf("mean = %v", m)
	}
	if m := Mean(nil); m != 0 {
		t.Fatalf("empty mean = %v", m)
	}
}

func TestQueueUsageProperty(t *testing.T) {
	// full <= nonEmpty <= sampled for any sample sequence.
	prop := func(lengths []uint8) bool {
		q := NewQueueUsage("p", 8)
		for _, l := range lengths {
			q.SampleN(int(l%12), 1)
		}
		return q.FullCycles() <= q.UsageCycles() && q.UsageCycles() <= q.SampledCycles()
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

func TestTableRendering(t *testing.T) {
	var tb Table
	tb.Row("ipc", "%.2f", 1.5)
	tb.Row("long-name", "%d", 7)
	out := tb.String()
	if out == "" {
		t.Fatalf("empty table output")
	}
}
