package config

import "fmt"

// ScalingSet names one of the paper's §IV design-space configurations:
// Table I parameter groups scaled to ~4× their baseline values, alone
// or in combination.
type ScalingSet int

const (
	// ScaleNone is the unmodified baseline.
	ScaleNone ScalingSet = iota
	// ScaleL1 applies Table I(c): L1 miss queue 8→32, L1 MSHR 32→128,
	// memory pipeline width 10→40.
	ScaleL1
	// ScaleL2 applies Table I(b): access/miss/response queues 8→32,
	// MSHR 32→128, data port 32→128B, flit 4→16B, banks 2→8.
	ScaleL2
	// ScaleDRAM applies Table I(a): scheduler queue 16→64, banks
	// 16→64/chip, bus width 32→64 bits/chip.
	ScaleDRAM
	// ScaleL1L2 combines ScaleL1 and ScaleL2 (§IV "L1-L2", +69%).
	ScaleL1L2
	// ScaleL2DRAM combines ScaleL2 and ScaleDRAM (§IV "L2-DRAM", +76%).
	ScaleL2DRAM
	// ScaleAll combines all three groups (beyond-paper reference point).
	ScaleAll
)

// AllScalingSets lists the §IV configurations in presentation order.
var AllScalingSets = []ScalingSet{ScaleNone, ScaleL1, ScaleL2, ScaleDRAM, ScaleL1L2, ScaleL2DRAM}

// String implements fmt.Stringer.
func (s ScalingSet) String() string {
	switch s {
	case ScaleNone:
		return "baseline"
	case ScaleL1:
		return "L1"
	case ScaleL2:
		return "L2"
	case ScaleDRAM:
		return "DRAM"
	case ScaleL1L2:
		return "L1+L2"
	case ScaleL2DRAM:
		return "L2+DRAM"
	case ScaleAll:
		return "L1+L2+DRAM"
	default:
		return fmt.Sprintf("ScalingSet(%d)", int(s))
	}
}

// scalingSetNames is each set's canonical spelling: what
// ParseScalingSet accepts and MarshalText writes.
var scalingSetNames = [...]string{
	ScaleNone: "baseline", ScaleL1: "l1", ScaleL2: "l2", ScaleDRAM: "dram",
	ScaleL1L2: "l1l2", ScaleL2DRAM: "l2dram", ScaleAll: "all",
}

// ParseScalingSet converts a CLI string ("baseline", "l1", "l2",
// "dram", "l1l2", "l2dram", "all") into a ScalingSet.
func ParseScalingSet(s string) (ScalingSet, error) {
	switch s {
	case "none":
		return ScaleNone, nil
	case "l1+l2":
		return ScaleL1L2, nil
	case "l2+dram":
		return ScaleL2DRAM, nil
	}
	for set, name := range scalingSetNames {
		if name == s {
			return ScalingSet(set), nil
		}
	}
	return ScaleNone, fmt.Errorf("config: unknown scaling set %q", s)
}

// MarshalText encodes the set in its canonical spelling, so served
// reports name sets the way requests do.
func (s ScalingSet) MarshalText() ([]byte, error) {
	if s < 0 || int(s) >= len(scalingSetNames) {
		return nil, fmt.Errorf("config: unknown scaling set %d", int(s))
	}
	return []byte(scalingSetNames[s]), nil
}

// Apply returns a copy of base with the scaling set's Table I
// transforms applied. The baseline is not modified.
func (s ScalingSet) Apply(base Config) Config {
	c := base
	if s == ScaleL1 || s == ScaleL1L2 || s == ScaleAll {
		applyL1Scaling(&c)
	}
	if s == ScaleL2 || s == ScaleL1L2 || s == ScaleL2DRAM || s == ScaleAll {
		applyL2Scaling(&c)
	}
	if s == ScaleDRAM || s == ScaleL2DRAM || s == ScaleAll {
		applyDRAMScaling(&c)
	}
	return c
}

// applyL1Scaling applies Table I(c) to c in place.
func applyL1Scaling(c *Config) {
	c.L1.MissQueue *= 4          // 8 → 32 entries
	c.L1.MSHREntries *= 4        // 32 → 128 entries
	c.Core.MemPipelineWidth *= 4 // 10 → 40
}

// applyL2Scaling applies Table I(b) to c in place.
func applyL2Scaling(c *Config) {
	c.L2.MissQueue *= 4         // 8 → 32 entries
	c.L2.ResponseQueue *= 4     // 8 → 32 entries
	c.L2.DRAMReturnQueue *= 4   // sized with the response queue
	c.L2.MSHREntries *= 4       // 32 → 128 entries
	c.L2.AccessQueue *= 4       // 8 → 32 entries
	c.L2.DataPortBytes *= 4     // 32 → 128 bytes
	c.Icnt.FlitSizeBytes *= 4   // 4 → 16 bytes (crossbar)
	c.L2.BanksPerPartition *= 4 // 2 → 8 banks/partition
}

// applyDRAMScaling applies Table I(a) to c in place.
func applyDRAMScaling(c *Config) {
	c.DRAM.SchedQueue *= 4   // 16 → 64 entries
	c.DRAM.BanksPerChip *= 4 // 16 → 64 banks/chip
	c.DRAM.BusWidthBits *= 2 // 32 → 64 bits/chip (Table I scales to 2×;
	// the paper notes scaling stops where it saturates)
}

// TableIRow describes one Table I design parameter for report output.
type TableIRow struct {
	Group     string // "DRAM", "L2 Cache", "L1 Cache"
	Parameter string
	Type      string // "+" increases peak throughput, "=" enables reaching it
	Baseline  string
	Scaled    string
}

// TableI returns the paper's Table I, computed from the actual baseline
// and scaled configs so the report can never drift from the code.
func TableI() []TableIRow {
	base := GTX480Baseline()
	l1 := ScaleL1.Apply(base)
	l2 := ScaleL2.Apply(base)
	dr := ScaleDRAM.Apply(base)
	return []TableIRow{
		{"DRAM", "Scheduler queue", "=", fmt.Sprintf("%d entries", base.DRAM.SchedQueue), fmt.Sprintf("%d entries", dr.DRAM.SchedQueue)},
		{"DRAM", "DRAM Banks", "=", fmt.Sprintf("%d banks/chip", base.DRAM.BanksPerChip), fmt.Sprintf("%d banks/chip", dr.DRAM.BanksPerChip)},
		{"DRAM", "Bus width", "+", fmt.Sprintf("%d-bits/chip", base.DRAM.BusWidthBits), fmt.Sprintf("%d-bits/chip", dr.DRAM.BusWidthBits)},
		{"L2 Cache", "L2 miss queue", "=", fmt.Sprintf("%d entries", base.L2.MissQueue), fmt.Sprintf("%d entries", l2.L2.MissQueue)},
		{"L2 Cache", "L2 response queue", "=", fmt.Sprintf("%d entries", base.L2.ResponseQueue), fmt.Sprintf("%d entries", l2.L2.ResponseQueue)},
		{"L2 Cache", "MSHR", "=", fmt.Sprintf("%d entries", base.L2.MSHREntries), fmt.Sprintf("%d entries", l2.L2.MSHREntries)},
		{"L2 Cache", "L2 access queue", "=", fmt.Sprintf("%d entries", base.L2.AccessQueue), fmt.Sprintf("%d entries", l2.L2.AccessQueue)},
		{"L2 Cache", "L2 data port", "+", fmt.Sprintf("%d bytes", base.L2.DataPortBytes), fmt.Sprintf("%d bytes", l2.L2.DataPortBytes)},
		{"L2 Cache", "Flit size (crossbar)", "+", fmt.Sprintf("%d bytes", base.Icnt.FlitSizeBytes), fmt.Sprintf("%d bytes", l2.Icnt.FlitSizeBytes)},
		{"L2 Cache", "L2 banks", "+", fmt.Sprintf("%d banks/partition", base.L2.BanksPerPartition), fmt.Sprintf("%d banks/partition", l2.L2.BanksPerPartition)},
		{"L1 Cache", "L1 miss queue", "=", fmt.Sprintf("%d entries", base.L1.MissQueue), fmt.Sprintf("%d entries", l1.L1.MissQueue)},
		{"L1 Cache", "MSHR (L1D)", "=", fmt.Sprintf("%d entries", base.L1.MSHREntries), fmt.Sprintf("%d entries", l1.L1.MSHREntries)},
		{"L1 Cache", "Memory pipeline width", "=", fmt.Sprintf("%d", base.Core.MemPipelineWidth), fmt.Sprintf("%d", l1.Core.MemPipelineWidth)},
	}
}
