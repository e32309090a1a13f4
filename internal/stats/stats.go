// Package stats provides the measurement substrate for the simulator:
// scalar counters, latency samplers with histograms, and queue-usage
// trackers that implement the paper's "full for X% of usage lifetime"
// metric (§III).
package stats

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Counter is a monotonically increasing event count. The zero value is
// ready to use.
type Counter struct {
	n int64
}

// Inc adds one to the counter.
func (c *Counter) Inc() { c.n++ }

// Add adds delta to the counter.
func (c *Counter) Add(delta int64) { c.n += delta }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.n }

// Ratio returns c/other, or 0 if other is zero. It is a convenience
// for hit-rate style derived metrics.
func (c *Counter) Ratio(other *Counter) float64 {
	if other.n == 0 {
		return 0
	}
	return float64(c.n) / float64(other.n)
}

// Sampler accumulates a stream of values (typically latencies) and
// reports mean, min, max and a coarse histogram. The zero value is
// ready to use, without a histogram. The histogram lives inside the
// Sampler, so owners that hold one by value pay a single allocation,
// its bins; a Sampler must not be copied once in use.
type Sampler struct {
	count int64
	sum   float64
	min   float64
	max   float64
	hist  Histogram // attached when hist.bins is non-nil
}

// NewSampler returns a Sampler with an attached histogram covering
// [0, limit) in the given number of bins; values >= limit land in an
// overflow bin.
func NewSampler(limit float64, bins int) Sampler {
	return Sampler{hist: makeHistogram(limit, bins)}
}

// Add records one observation.
func (s *Sampler) Add(v float64) {
	if s.count == 0 || v < s.min {
		s.min = v
	}
	if s.count == 0 || v > s.max {
		s.max = v
	}
	s.count++
	s.sum += v
	if s.hist.bins != nil {
		s.hist.Add(v)
	}
}

// Count returns the number of observations.
func (s *Sampler) Count() int64 { return s.count }

// Mean returns the arithmetic mean, or 0 with no observations.
func (s *Sampler) Mean() float64 {
	if s.count == 0 {
		return 0
	}
	return s.sum / float64(s.count)
}

// Min returns the smallest observation, or 0 with no observations.
func (s *Sampler) Min() float64 { return s.min }

// Max returns the largest observation, or 0 with no observations.
func (s *Sampler) Max() float64 { return s.max }

// Percentile returns the p-th percentile (0 < p <= 100) estimated from
// the histogram, or NaN if the sampler has no histogram or no data.
func (s *Sampler) Percentile(p float64) float64 {
	if s.hist.bins == nil || s.count == 0 {
		return math.NaN()
	}
	return s.hist.Percentile(p)
}

// Histogram returns the attached histogram (may be nil).
func (s *Sampler) Histogram() *Histogram {
	if s.hist.bins == nil {
		return nil
	}
	return &s.hist
}

// Histogram is a fixed-range linear histogram with an overflow bin.
type Histogram struct {
	limit float64
	width float64
	bins  []int64
	over  int64
	total int64
}

// NewHistogram builds a histogram over [0, limit) with bins equal-width
// buckets. limit must be positive and bins at least 1.
func NewHistogram(limit float64, bins int) *Histogram {
	h := makeHistogram(limit, bins)
	return &h
}

func makeHistogram(limit float64, bins int) Histogram {
	if limit <= 0 || bins < 1 {
		panic(fmt.Sprintf("stats: invalid histogram limit=%v bins=%d", limit, bins))
	}
	return Histogram{limit: limit, width: limit / float64(bins), bins: make([]int64, bins)}
}

// Add records one observation.
func (h *Histogram) Add(v float64) {
	h.total++
	if v >= h.limit {
		h.over++
		return
	}
	if v < 0 {
		v = 0
	}
	idx := int(v / h.width)
	if idx >= len(h.bins) {
		idx = len(h.bins) - 1
	}
	h.bins[idx]++
}

// Total returns the number of observations.
func (h *Histogram) Total() int64 { return h.total }

// Percentile returns the p-th percentile (0 < p <= 100) using the
// upper edge of the bucket containing the rank; overflow observations
// report the histogram limit.
func (h *Histogram) Percentile(p float64) float64 {
	if h.total == 0 {
		return math.NaN()
	}
	rank := int64(math.Ceil(p / 100 * float64(h.total)))
	if rank < 1 {
		rank = 1
	}
	var cum int64
	for i, b := range h.bins {
		cum += b
		if cum >= rank {
			return float64(i+1) * h.width
		}
	}
	return h.limit
}

// Bucket returns the count in bin i.
func (h *Histogram) Bucket(i int) int64 { return h.bins[i] }

// NumBuckets returns the number of non-overflow bins.
func (h *Histogram) NumBuckets() int { return len(h.bins) }

// Overflow returns the number of observations at or above the limit.
func (h *Histogram) Overflow() int64 { return h.over }

// QueueUsage tracks a bounded queue's occupancy over time, one sample
// per clock cycle of the owning component's domain, charged in runs of
// equal length by the queue (queue.Queue). The paper's §III metric is
// FullOfUsage: the fraction of non-empty ("usage lifetime") cycles
// during which the queue was full.
type QueueUsage struct {
	Name string

	sampled  int64
	nonEmpty int64
	full     int64
	occSum   int64
	capacity int
}

// NewQueueUsage returns a tracker for a queue with the given capacity.
func NewQueueUsage(name string, capacity int) *QueueUsage {
	return &QueueUsage{Name: name, capacity: capacity}
}

// SampleN records the same queue length for n consecutive cycles in
// one call; every derived metric is identical to n single-cycle
// samples.
func (q *QueueUsage) SampleN(length int, n int64) {
	if n <= 0 {
		return
	}
	q.sampled += n
	q.occSum += int64(length) * n
	if length > 0 {
		q.nonEmpty += n
	}
	if length >= q.capacity {
		q.full += n
	}
}

// Capacity returns the tracked queue's capacity.
func (q *QueueUsage) Capacity() int { return q.capacity }

// SampledCycles returns how many cycles were observed.
func (q *QueueUsage) SampledCycles() int64 { return q.sampled }

// UsageCycles returns the number of cycles the queue was non-empty.
func (q *QueueUsage) UsageCycles() int64 { return q.nonEmpty }

// FullCycles returns the number of cycles the queue was at capacity.
func (q *QueueUsage) FullCycles() int64 { return q.full }

// FullOfUsage returns full-cycles divided by non-empty cycles — the
// paper's "full for X% of usage lifetime" metric — or 0 if the queue
// was never used.
func (q *QueueUsage) FullOfUsage() float64 {
	if q.nonEmpty == 0 {
		return 0
	}
	return float64(q.full) / float64(q.nonEmpty)
}

// MeanOccupancy returns the average queue length over all sampled
// cycles, or 0 if nothing was sampled.
func (q *QueueUsage) MeanOccupancy() float64 {
	if q.sampled == 0 {
		return 0
	}
	return float64(q.occSum) / float64(q.sampled)
}

// Merge folds other into q (used to aggregate per-partition trackers
// into a suite-level view). Capacities must match.
func (q *QueueUsage) Merge(other *QueueUsage) {
	q.sampled += other.sampled
	q.nonEmpty += other.nonEmpty
	q.full += other.full
	q.occSum += other.occSum
}

// Table renders name/value rows as aligned text, for CLI reports.
type Table struct {
	rows [][2]string
}

// Row appends a formatted row.
func (t *Table) Row(name, format string, args ...any) {
	t.rows = append(t.rows, [2]string{name, fmt.Sprintf(format, args...)})
}

// String renders the table with aligned columns.
func (t *Table) String() string {
	w := 0
	for _, r := range t.rows {
		if len(r[0]) > w {
			w = len(r[0])
		}
	}
	var b strings.Builder
	for _, r := range t.rows {
		fmt.Fprintf(&b, "  %-*s  %s\n", w, r[0], r[1])
	}
	return b.String()
}

// GeoMean returns the geometric mean of xs; it returns 0 when xs is
// empty or contains a non-positive value. Speedup aggregation in the
// paper-style reports uses arithmetic mean (the paper reports "average
// speedup"), but geomean is provided for robustness comparisons.
func GeoMean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		if x <= 0 {
			return 0
		}
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

// Mean returns the arithmetic mean of xs, or 0 when empty.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Median returns the median of xs, or 0 when empty.
func Median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	cp := append([]float64(nil), xs...)
	sort.Float64s(cp)
	n := len(cp)
	if n%2 == 1 {
		return cp[n/2]
	}
	return (cp[n/2-1] + cp[n/2]) / 2
}

// Reset zeroes the tracker for a new measurement window.
func (q *QueueUsage) Reset() {
	q.sampled, q.nonEmpty, q.full, q.occSum = 0, 0, 0, 0
}

// Reset zeroes the sampler (and its histogram) for a new window.
func (s *Sampler) Reset() {
	clear(s.hist.bins)
	*s = Sampler{hist: Histogram{limit: s.hist.limit, width: s.hist.width, bins: s.hist.bins}}
}
