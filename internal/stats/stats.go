// Package stats provides the measurement substrate for the simulator:
// latency samplers with histograms, stall breakdowns, and queue-usage
// trackers that implement the paper's "full for X% of usage lifetime"
// metric (§III).
package stats

import (
	"fmt"
	"math"
	"strings"
)

// Sampler accumulates a stream of values (typically latencies) and
// reports their mean and histogram percentiles. The zero value is
// ready to use, without a histogram. The histogram lives inside the
// Sampler, so owners that hold one by value pay a single allocation,
// its bins; a Sampler must not be copied once in use.
type Sampler struct {
	count int64
	sum   float64
	hist  histogram // attached when hist.bins is non-nil
}

// NewSampler returns a Sampler with an attached histogram covering
// [0, limit) in the given number of bins; values >= limit count as
// the limit in its percentiles.
func NewSampler(limit float64, bins int) Sampler {
	return Sampler{hist: makeHistogram(limit, bins)}
}

// Add records one observation.
func (s *Sampler) Add(v float64) {
	s.count++
	s.sum += v
	if s.hist.bins != nil {
		s.hist.add(v)
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

// Percentile returns the p-th percentile (0 < p <= 100) estimated from
// the histogram, or NaN if the sampler has no histogram or no data.
func (s *Sampler) Percentile(p float64) float64 {
	if s.hist.bins == nil || s.count == 0 {
		return math.NaN()
	}
	return s.hist.percentile(p)
}

// histogram is a fixed-range linear histogram; observations at or
// above its limit count toward the total but land in no bin.
type histogram struct {
	limit float64
	width float64
	bins  []int64
	total int64
}

// makeHistogram builds a histogram over [0, limit) with bins
// equal-width buckets. limit must be positive and bins at least 1.
func makeHistogram(limit float64, bins int) histogram {
	if limit <= 0 || bins < 1 {
		panic(fmt.Sprintf("stats: invalid histogram limit=%v bins=%d", limit, bins))
	}
	return histogram{limit: limit, width: limit / float64(bins), bins: make([]int64, bins)}
}

// add records one observation.
func (h *histogram) add(v float64) {
	h.total++
	if v >= h.limit {
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

// percentile returns the p-th percentile (0 < p <= 100) using the
// upper edge of the bucket containing the rank; overflow observations
// report the histogram limit.
func (h *histogram) percentile(p float64) float64 {
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

// Reset zeroes the tracker for a new measurement window.
func (q *QueueUsage) Reset() {
	q.sampled, q.nonEmpty, q.full, q.occSum = 0, 0, 0, 0
}

// Reset zeroes the sampler (and its histogram) for a new window.
func (s *Sampler) Reset() {
	clear(s.hist.bins)
	*s = Sampler{hist: histogram{limit: s.hist.limit, width: s.hist.width, bins: s.hist.bins}}
}
