package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestCounter(t *testing.T) {
	var c Counter
	if c.Value() != 0 {
		t.Fatalf("zero value not zero: %d", c.Value())
	}
	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Fatalf("counter = %d, want 5", c.Value())
	}
	var d Counter
	d.Add(10)
	if got := c.Ratio(&d); got != 0.5 {
		t.Fatalf("ratio = %v, want 0.5", got)
	}
	var zero Counter
	if got := c.Ratio(&zero); got != 0 {
		t.Fatalf("ratio with zero denominator = %v, want 0", got)
	}
}

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
	if s.Min() != 10 || s.Max() != 30 {
		t.Fatalf("min/max = %v/%v, want 10/30", s.Min(), s.Max())
	}
}

func TestSamplerEmpty(t *testing.T) {
	s := NewSampler(10, 2)
	if s.Mean() != 0 || s.Min() != 0 || s.Max() != 0 {
		t.Fatalf("empty sampler should report zeros")
	}
	if !math.IsNaN(s.Percentile(50)) {
		t.Fatalf("empty percentile should be NaN")
	}
}

func TestHistogramPercentile(t *testing.T) {
	h := NewHistogram(100, 10)
	for i := 0; i < 100; i++ {
		h.Add(float64(i))
	}
	if p := h.Percentile(50); p != 50 {
		t.Fatalf("p50 = %v, want 50", p)
	}
	if p := h.Percentile(100); p != 100 {
		t.Fatalf("p100 = %v, want 100", p)
	}
}

func TestHistogramOverflow(t *testing.T) {
	h := NewHistogram(10, 2)
	h.Add(5)
	h.Add(10)
	h.Add(100)
	if h.Overflow() != 2 {
		t.Fatalf("overflow = %d, want 2", h.Overflow())
	}
	if h.Total() != 3 {
		t.Fatalf("total = %d, want 3", h.Total())
	}
	if p := h.Percentile(100); p != 10 {
		t.Fatalf("overflow percentile = %v, want limit 10", p)
	}
}

func TestHistogramNegativeClamps(t *testing.T) {
	h := NewHistogram(10, 2)
	h.Add(-5)
	if h.Bucket(0) != 1 {
		t.Fatalf("negative value should land in bucket 0")
	}
}

func TestHistogramPanicsOnBadArgs(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatalf("expected panic for invalid histogram args")
		}
	}()
	NewHistogram(0, 3)
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
	if g := GeoMean([]float64{1, 4}); g != 2 {
		t.Fatalf("geomean = %v", g)
	}
	if g := GeoMean([]float64{1, -1}); g != 0 {
		t.Fatalf("geomean with negative should be 0, got %v", g)
	}
	if m := Median([]float64{3, 1, 2}); m != 2 {
		t.Fatalf("median odd = %v", m)
	}
	if m := Median([]float64{4, 1, 2, 3}); m != 2.5 {
		t.Fatalf("median even = %v", m)
	}
	if m := Median(nil); m != 0 {
		t.Fatalf("empty median = %v", m)
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
