package sim

import (
	"fmt"
	"strings"

	"repro/internal/stats"
)

// QueueOcc summarizes a queue family's occupancy over the measurement
// window, aggregated across its instances (per-partition or per-SM).
type QueueOcc struct {
	// FullOfUsage is the paper's §III metric: fraction of non-empty
	// cycles during which the queue was full.
	FullOfUsage float64
	// MeanOccupancy is the average length over all cycles.
	MeanOccupancy float64
	// Capacity is the per-instance capacity.
	Capacity int
}

// CacheSummary aggregates tag-array behaviour across instances.
type CacheSummary struct {
	Accesses         int64
	Hits             int64
	Misses           int64
	HitsReserved     int64
	ReservationFails int64
	MissRate         float64
}

// Results is the measurement snapshot of one run window.
type Results struct {
	// Cycles is the window length in core cycles.
	Cycles int64
	// Instructions is warp instructions issued GPU-wide.
	Instructions int64
	// IPC is Instructions / Cycles (GPU-wide warp IPC).
	IPC float64
	// MemInstrs and Transactions describe the memory traffic issued.
	MemInstrs    int64
	Transactions int64

	L1 CacheSummary
	L2 CacheSummary
	// AvgMissLatency is the mean L1-miss round trip in core cycles —
	// the §II "baseline memory latency".
	AvgMissLatency float64
	// P95MissLatency is its 95th percentile.
	P95MissLatency float64

	// Queue occupancancies (§III): the paper reports L2AccessQueue
	// (46%) and DRAMSchedQueue (39%).
	L2AccessQueue  QueueOcc
	L2MissQueue    QueueOcc
	L2RespQueue    QueueOcc
	DRAMRetQueue   QueueOcc
	DRAMSchedQueue QueueOcc
	L1MissQueue    QueueOcc

	// DRAM behaviour.
	DRAMReads      int64
	DRAMWrites     int64
	DRAMRowHitRate float64
	// DRAMBusUtil is data-bus busy cycles over DRAM cycles (0..1).
	DRAMBusUtil float64

	// Interconnect behaviour.
	ReqPackets      int64
	RespPackets     int64
	ReqOutputStall  int64
	RespOutputStall int64

	// Core stall accounting (cycles summed across SMs).
	StallNoWarp   int64
	StallMSHR     int64
	StallMissQ    int64
	StallResFail  int64
	StallLDSTFull int64

	// Stalls is the per-cycle issue-slot attribution merged across
	// SMs: every SM cycle charged to exactly one cause, so its Total
	// equals Cycles × SMs (the window's issue slots). See the package
	// doc's stall taxonomy.
	Stalls stats.StallBreakdown
	// BackPressure summarizes each level's upstream-stall counters.
	BackPressure BackPressure
}

// BackPressure reports, per hierarchy level, the fraction of that
// level's input-queue cycles spent at capacity — i.e. how long each
// level stalled its upstream, averaged over the level's queue
// instances so the fractions are comparable across levels. These are
// the counters the hierarchical stall attribution composes with: a
// level that is rarely full cannot be the root cause of upstream
// waits.
type BackPressure struct {
	// ReqIcntInFull: fraction of request-crossbar input-queue cycles
	// at capacity, averaged over inputs (SM miss paths blocked).
	ReqIcntInFull float64
	// RespIcntInFull: fraction of response-crossbar input-queue cycles
	// at capacity, averaged over inputs (L2 response paths blocked).
	RespIcntInFull float64
	// L2AccessInFull: fraction of L2 cycles an access queue was full,
	// aggregated across partitions (request-crossbar outputs blocked).
	L2AccessInFull float64
	// DRAMSchedInFull: fraction of DRAM cycles a scheduler queue was
	// full, aggregated across channels (L2 miss paths blocked).
	DRAMSchedInFull float64
}

// Results computes the snapshot since the last ResetStats (or since
// construction).
func (g *GPU) Results() Results {
	var r Results
	var missLatSum float64
	var missLatN int64
	var p95Max float64

	for _, sm := range g.sms {
		st := sm.Stats()
		if st.Cycles > r.Cycles {
			r.Cycles = st.Cycles
		}
		r.Instructions += st.Instructions
		r.MemInstrs += st.MemInstrs
		r.Transactions += st.Transactions
		r.StallNoWarp += st.StallNoWarp
		r.StallMSHR += st.StallMSHR
		r.StallMissQ += st.StallMissQ
		r.StallResFail += st.StallResFail
		r.StallLDSTFull += st.StallLDSTFull
		r.Stalls.Merge(sm.StallStack())

		cs := sm.CacheStats()
		r.L1.Accesses += cs.Accesses
		r.L1.Hits += cs.Hits
		r.L1.Misses += cs.Misses
		r.L1.HitsReserved += cs.HitsReserved
		r.L1.ReservationFails += cs.ReservationFails

		ml := sm.MissLatency()
		missLatSum += ml.Mean() * float64(ml.Count())
		missLatN += ml.Count()
		if p := ml.Percentile(95); !isNaN(p) && p > p95Max {
			p95Max = p
		}
	}
	if r.Cycles > 0 {
		r.IPC = float64(r.Instructions) / float64(r.Cycles)
	}
	if r.L1.Accesses > 0 {
		r.L1.MissRate = float64(r.L1.Misses+r.L1.HitsReserved) / float64(r.L1.Accesses)
	}
	if missLatN > 0 {
		r.AvgMissLatency = missLatSum / float64(missLatN)
	}
	r.P95MissLatency = p95Max

	l1Miss := newAgg()
	for _, sm := range g.sms {
		l1Miss.add(sm.MissQueueUsage())
	}
	r.L1MissQueue = l1Miss.occ()

	if len(g.parts) > 0 {
		accessU := newAgg()
		missU := newAgg()
		respU := newAgg()
		retU := newAgg()
		schedU := newAgg()
		var dramTicks, busBusy int64
		var rowHits, rowTotal int64
		var l2Ticks, l2InFull, dramInFull int64
		for _, p := range g.parts {
			cs := p.CacheStats()
			r.L2.Accesses += cs.Accesses
			r.L2.Hits += cs.Hits
			r.L2.Misses += cs.Misses
			r.L2.HitsReserved += cs.HitsReserved
			r.L2.ReservationFails += cs.ReservationFails

			accessU.add(p.AccessUsage())
			missU.add(p.MissUsage())
			respU.add(p.RespUsage())
			retU.add(p.ReturnUsage())
			schedU.add(p.Channel().SchedUsage())

			ds := p.Channel().Stats()
			r.DRAMReads += ds.Reads
			r.DRAMWrites += ds.Writes
			rowHits += ds.RowHits
			rowTotal += ds.RowHits + ds.RowMisses + ds.RowConflicts
			busBusy += ds.BusBusyCycles
			dramTicks += p.Channel().SchedUsage().SampledCycles()
			l2Ticks += p.AccessUsage().SampledCycles()
			l2InFull += p.Stats().InFullCycles
			dramInFull += ds.InFullCycles
		}
		if r.L2.Accesses > 0 {
			r.L2.MissRate = float64(r.L2.Misses+r.L2.HitsReserved) / float64(r.L2.Accesses)
		}
		r.L2AccessQueue = accessU.occ()
		r.L2MissQueue = missU.occ()
		r.L2RespQueue = respU.occ()
		r.DRAMRetQueue = retU.occ()
		r.DRAMSchedQueue = schedU.occ()
		if rowTotal > 0 {
			r.DRAMRowHitRate = float64(rowHits) / float64(rowTotal)
		}
		if dramTicks > 0 {
			r.DRAMBusUtil = float64(busBusy) / float64(dramTicks)
		}
		rs := g.reqX.Stats()
		ps := g.respX.Stats()
		r.ReqPackets = rs.Packets
		r.RespPackets = ps.Packets
		r.ReqOutputStall = rs.OutputStalls
		r.RespOutputStall = ps.OutputStalls
		if l2Ticks > 0 {
			r.BackPressure.L2AccessInFull = float64(l2InFull) / float64(l2Ticks)
		}
		if dramTicks > 0 {
			r.BackPressure.DRAMSchedInFull = float64(dramInFull) / float64(dramTicks)
		}
		// Every input queue of a crossbar samples once per tick, so
		// the summed sampled-cycle count over inputs is the
		// denominator of the per-queue full-cycle average.
		if qc := sumSampled(g.reqX.InputUsages()); qc > 0 {
			r.BackPressure.ReqIcntInFull = float64(rs.InFullCycles) / float64(qc)
		}
		if qc := sumSampled(g.respX.InputUsages()); qc > 0 {
			r.BackPressure.RespIcntInFull = float64(ps.InFullCycles) / float64(qc)
		}
	}
	return r
}

func isNaN(f float64) bool { return f != f }

// sumSampled totals the sampled queue-cycles of a tracker family.
func sumSampled(us []*stats.QueueUsage) int64 {
	var n int64
	for _, u := range us {
		n += u.SampledCycles()
	}
	return n
}

// agg folds queue trackers of the same family together.
type agg struct {
	merged *stats.QueueUsage
	cap    int
}

func newAgg() *agg { return &agg{} }

func (a *agg) add(u *stats.QueueUsage) {
	if a.merged == nil {
		a.merged = stats.NewQueueUsage(u.Name, u.Capacity())
		a.cap = u.Capacity()
	}
	a.merged.Merge(u)
}

func (a *agg) occ() QueueOcc {
	if a.merged == nil {
		return QueueOcc{}
	}
	return QueueOcc{
		FullOfUsage:   a.merged.FullOfUsage(),
		MeanOccupancy: a.merged.MeanOccupancy(),
		Capacity:      a.cap,
	}
}

// String renders a human-readable report.
func (r Results) String() string {
	var b strings.Builder
	var t stats.Table
	t.Row("cycles", "%d", r.Cycles)
	t.Row("instructions", "%d", r.Instructions)
	t.Row("IPC", "%.3f", r.IPC)
	t.Row("mem instrs", "%d (%.1f%% of instrs)", r.MemInstrs, pct(r.MemInstrs, r.Instructions))
	t.Row("L1 miss rate", "%.1f%%", r.L1.MissRate*100)
	t.Row("avg L1 miss latency", "%.0f cycles (p95 %.0f)", r.AvgMissLatency, r.P95MissLatency)
	t.Row("L2 miss rate", "%.1f%%", r.L2.MissRate*100)
	t.Row("L2 access queue", "full %.0f%% of usage (mean occ %.1f/%d)",
		r.L2AccessQueue.FullOfUsage*100, r.L2AccessQueue.MeanOccupancy, r.L2AccessQueue.Capacity)
	t.Row("DRAM sched queue", "full %.0f%% of usage (mean occ %.1f/%d)",
		r.DRAMSchedQueue.FullOfUsage*100, r.DRAMSchedQueue.MeanOccupancy, r.DRAMSchedQueue.Capacity)
	t.Row("DRAM row-hit rate", "%.1f%%", r.DRAMRowHitRate*100)
	t.Row("DRAM bus utilization", "%.1f%%", r.DRAMBusUtil*100)
	fmt.Fprint(&b, t.String())
	return b.String()
}

// StallString renders the stall stack: every issue slot of the window
// (cycles × SMs) attributed to one cause, with each level's
// back-pressure fraction alongside. It is a separate section from
// String so the pinned golden reports are untouched unless a CLI asks
// for stalls explicitly.
func (r Results) StallString() string {
	var b strings.Builder
	total := r.Stalls.Total()
	var t stats.Table
	t.Row("issue slots", "%d", total)
	for c := stats.StallCause(0); c < stats.NumStallCauses; c++ {
		t.Row(c.String(), "%10d  %5.1f%%", r.Stalls.Cycles(c), r.Stalls.Frac(c)*100)
	}
	t.Row("bound by", "%s", r.Stalls.Dominant())
	t.Row("back pressure", "icnt-req %.0f%%  icnt-resp %.0f%%  l2-access %.0f%%  dram-sched %.0f%%",
		r.BackPressure.ReqIcntInFull*100, r.BackPressure.RespIcntInFull*100,
		r.BackPressure.L2AccessInFull*100, r.BackPressure.DRAMSchedInFull*100)
	b.WriteString("where do the cycles go (one cause per SM-cycle)\n")
	b.WriteString(t.String())
	return b.String()
}

func pct(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return 100 * float64(a) / float64(b)
}
