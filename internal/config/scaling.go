package config

import (
	"fmt"
	"slices"
)

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

// scalingSets gives each set its spellings (the canonical one first,
// which MarshalText writes; ParseScalingSet accepts all of them), its
// String label, and the Table I groups its Apply scales.
var scalingSets = [...]struct {
	names  []string
	label  string
	groups []string
}{
	ScaleNone:   {[]string{"baseline", "none"}, "baseline", nil},
	ScaleL1:     {[]string{"l1"}, "L1", []string{"L1 Cache"}},
	ScaleL2:     {[]string{"l2"}, "L2", []string{"L2 Cache"}},
	ScaleDRAM:   {[]string{"dram"}, "DRAM", []string{"DRAM"}},
	ScaleL1L2:   {[]string{"l1l2", "l1+l2"}, "L1+L2", []string{"L1 Cache", "L2 Cache"}},
	ScaleL2DRAM: {[]string{"l2dram", "l2+dram"}, "L2+DRAM", []string{"L2 Cache", "DRAM"}},
	ScaleAll:    {[]string{"all"}, "L1+L2+DRAM", []string{"L1 Cache", "L2 Cache", "DRAM"}},
}

func (s ScalingSet) known() bool { return s >= 0 && int(s) < len(scalingSets) }

// String implements fmt.Stringer.
func (s ScalingSet) String() string {
	if !s.known() {
		return fmt.Sprintf("ScalingSet(%d)", int(s))
	}
	return scalingSets[s].label
}

// ParseScalingSet converts a CLI string ("baseline", "l1", "l2",
// "dram", "l1l2", "l2dram", "all", or the aliases "none", "l1+l2",
// "l2+dram") into a ScalingSet.
func ParseScalingSet(s string) (ScalingSet, error) {
	for set, def := range scalingSets {
		if slices.Contains(def.names, s) {
			return ScalingSet(set), nil
		}
	}
	return ScaleNone, fmt.Errorf("config: unknown scaling set %q", s)
}

// MarshalText encodes the set in its canonical spelling, so served
// reports name sets the way requests do.
func (s ScalingSet) MarshalText() ([]byte, error) {
	if !s.known() {
		return nil, fmt.Errorf("config: unknown scaling set %d", int(s))
	}
	return []byte(scalingSets[s].names[0]), nil
}

// UnmarshalText decodes any spelling ParseScalingSet accepts, so a
// served report decodes back into its sets.
func (s *ScalingSet) UnmarshalText(text []byte) error {
	set, err := ParseScalingSet(string(text))
	if err != nil {
		return err
	}
	*s = set
	return nil
}

// Apply returns a copy of base with the Table I parameters of the
// set's groups multiplied by their factors. The base is not modified,
// and an unknown set applies nothing.
func (s ScalingSet) Apply(base Config) Config {
	for _, p := range tableI {
		if s.known() && slices.Contains(scalingSets[s].groups, p.group) {
			for _, f := range p.fields {
				f.Set(&base, f.Get(&base)*p.factor)
			}
		}
	}
	return base
}

// Architecture names cfg relative to the GTX480 baseline, seed aside:
// "baseline", the label of the scaling set whose Apply on the
// baseline gives cfg (such as "L2+DRAM"), or "custom".
func Architecture(cfg Config) string {
	base := GTX480Baseline()
	cfg.Seed = base.Seed
	for s, def := range scalingSets {
		if ScalingSet(s).Apply(base) == cfg {
			return def.label
		}
	}
	return "custom"
}

// tableIParam is one row of the paper's Table I: a design parameter,
// the config fields that realize it (Table I shows the first), and
// the factor its group's scaling multiplies them by.
type tableIParam struct {
	group, param, typ string
	format            string // renders one value, e.g. "%d entries"
	factor            int64
	fields            []Field
}

// tableI is the paper's Table I, in its row order. The response-queue
// row also sizes the DRAM fill-return queue.
var tableI = []tableIParam{
	{"DRAM", "Scheduler queue", "=", "%d entries", 4, schema("dram.sched_queue")},
	{"DRAM", "DRAM Banks", "=", "%d banks/chip", 4, schema("dram.banks_per_chip")},
	// Table I scales the bus to 2×; the paper notes scaling stops
	// where it saturates.
	{"DRAM", "Bus width", "+", "%d-bits/chip", 2, schema("dram.bus_width_bits")},
	{"L2 Cache", "L2 miss queue", "=", "%d entries", 4, schema("l2.miss_queue")},
	{"L2 Cache", "L2 response queue", "=", "%d entries", 4, schema("l2.response_queue", "l2.dram_return_queue")},
	{"L2 Cache", "MSHR", "=", "%d entries", 4, schema("l2.mshr_entries")},
	{"L2 Cache", "L2 access queue", "=", "%d entries", 4, schema("l2.access_queue")},
	{"L2 Cache", "L2 data port", "+", "%d bytes", 4, schema("l2.data_port_bytes")},
	{"L2 Cache", "Flit size (crossbar)", "+", "%d bytes", 4, schema("icnt.flit_size_bytes")},
	{"L2 Cache", "L2 banks", "+", "%d banks/partition", 4, schema("l2.banks_per_partition")},
	{"L1 Cache", "L1 miss queue", "=", "%d entries", 4, schema("l1.miss_queue")},
	{"L1 Cache", "MSHR (L1D)", "=", "%d entries", 4, schema("l1.mshr_entries")},
	{"L1 Cache", "Memory pipeline width", "=", "%d", 4, schema("core.mem_pipeline_width")},
}

// TableIRow describes one Table I design parameter for report output.
type TableIRow struct {
	Group     string // "DRAM", "L2 Cache", "L1 Cache"
	Parameter string
	Type      string // "+" increases peak throughput, "=" enables reaching it
	Baseline  string // the value in the config the table was built from
	Scaled    string // that value after its group's scaling
}

// TableI returns the paper's Table I for cfg: each parameter's value
// in cfg and after its group's ~4× scaling, read from the same table
// ScalingSet.Apply scales, so the report cannot drift from the code.
func TableI(cfg Config) []TableIRow {
	rows := make([]TableIRow, len(tableI))
	for i, p := range tableI {
		v := p.fields[0].Get(&cfg)
		rows[i] = TableIRow{p.group, p.param, p.typ, fmt.Sprintf(p.format, v), fmt.Sprintf(p.format, v*p.factor)}
	}
	return rows
}
