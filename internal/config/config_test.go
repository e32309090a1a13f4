package config

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

func TestBaselineIsValid(t *testing.T) {
	if err := GTX480Baseline().Validate(); err != nil {
		t.Fatalf("baseline invalid: %v", err)
	}
}

func TestBaselineMatchesTableI(t *testing.T) {
	c := GTX480Baseline()
	// Table I baseline values, verbatim from the paper.
	checks := []struct {
		name string
		got  int
		want int
	}{
		{"dram sched queue", c.DRAM.SchedQueue, 16},
		{"dram banks/chip", c.DRAM.BanksPerChip, 16},
		{"dram bus width", c.DRAM.BusWidthBits, 32},
		{"l2 miss queue", c.L2.MissQueue, 8},
		{"l2 response queue", c.L2.ResponseQueue, 8},
		{"l2 mshr", c.L2.MSHREntries, 32},
		{"l2 access queue", c.L2.AccessQueue, 8},
		{"l2 data port", c.L2.DataPortBytes, 32},
		{"flit size", c.Icnt.FlitSizeBytes, 4},
		{"l2 banks", c.L2.BanksPerPartition, 2},
		{"l1 miss queue", c.L1.MissQueue, 8},
		{"l1 mshr", c.L1.MSHREntries, 32},
		{"mem pipeline width", c.Core.MemPipelineWidth, 10},
	}
	for _, ch := range checks {
		if ch.got != ch.want {
			t.Errorf("%s = %d, want %d", ch.name, ch.got, ch.want)
		}
	}
}

func TestScalingMatchesTableI(t *testing.T) {
	base := GTX480Baseline()
	l1 := ScaleL1.Apply(base)
	l2 := ScaleL2.Apply(base)
	dr := ScaleDRAM.Apply(base)

	if l1.L1.MissQueue != 32 || l1.L1.MSHREntries != 128 || l1.Core.MemPipelineWidth != 40 {
		t.Errorf("L1 scaling wrong: %+v", l1.L1)
	}
	if l2.L2.MissQueue != 32 || l2.L2.ResponseQueue != 32 || l2.L2.MSHREntries != 128 ||
		l2.L2.AccessQueue != 32 || l2.L2.DataPortBytes != 128 ||
		l2.Icnt.FlitSizeBytes != 16 || l2.L2.BanksPerPartition != 8 {
		t.Errorf("L2 scaling wrong: %+v flit=%d", l2.L2, l2.Icnt.FlitSizeBytes)
	}
	if dr.DRAM.SchedQueue != 64 || dr.DRAM.BanksPerChip != 64 || dr.DRAM.BusWidthBits != 64 {
		t.Errorf("DRAM scaling wrong: %+v", dr.DRAM)
	}
}

func TestScalingDoesNotMutateBase(t *testing.T) {
	base := GTX480Baseline()
	_ = ScaleAll.Apply(base)
	if base.L2.AccessQueue != 8 || base.Icnt.FlitSizeBytes != 4 {
		t.Fatalf("Apply mutated the base config")
	}
}

func TestCombinedScalings(t *testing.T) {
	base := GTX480Baseline()
	c := ScaleL1L2.Apply(base)
	if c.L1.MSHREntries != 128 || c.L2.BanksPerPartition != 8 || c.DRAM.SchedQueue != 16 {
		t.Errorf("L1+L2 should scale L1 and L2 only")
	}
	c = ScaleL2DRAM.Apply(base)
	if c.L1.MSHREntries != 32 || c.L2.BanksPerPartition != 8 || c.DRAM.SchedQueue != 64 {
		t.Errorf("L2+DRAM should scale L2 and DRAM only")
	}
	c = ScaleAll.Apply(base)
	if c.L1.MSHREntries != 128 || c.L2.BanksPerPartition != 8 || c.DRAM.SchedQueue != 64 {
		t.Errorf("All should scale everything")
	}
	scaled := AllScalingSets
	if len(scaled) != 6 || scaled[0] != ScaleNone {
		t.Errorf("AllScalingSets = %v", scaled)
	}
}

func TestScaledConfigsStillValid(t *testing.T) {
	base := GTX480Baseline()
	for _, s := range []ScalingSet{ScaleL1, ScaleL2, ScaleDRAM, ScaleL1L2, ScaleL2DRAM, ScaleAll} {
		if err := s.Apply(base).Validate(); err != nil {
			t.Errorf("%v: %v", s, err)
		}
	}
}

func TestParseScalingSet(t *testing.T) {
	for in, want := range map[string]ScalingSet{
		"baseline": ScaleNone, "none": ScaleNone, "l1": ScaleL1, "l2": ScaleL2,
		"dram": ScaleDRAM, "l1l2": ScaleL1L2, "l1+l2": ScaleL1L2,
		"l2dram": ScaleL2DRAM, "l2+dram": ScaleL2DRAM, "all": ScaleAll,
	} {
		got, err := ParseScalingSet(in)
		if err != nil || got != want {
			t.Errorf("ParseScalingSet(%q) = %v,%v want %v", in, got, err, want)
		}
	}
	if _, err := ParseScalingSet("bogus"); err == nil {
		t.Errorf("expected error for bogus set")
	}
}

func TestScalingSetString(t *testing.T) {
	for s, want := range map[ScalingSet]string{
		ScaleNone: "baseline", ScaleL1: "L1", ScaleL2: "L2", ScaleDRAM: "DRAM",
		ScaleL1L2: "L1+L2", ScaleL2DRAM: "L2+DRAM", ScaleAll: "L1+L2+DRAM",
	} {
		if s.String() != want {
			t.Errorf("%d.String() = %q, want %q", int(s), s.String(), want)
		}
	}
	if !strings.Contains(ScalingSet(42).String(), "42") {
		t.Errorf("unknown set string: %q", ScalingSet(42).String())
	}
}

// TestScalingSetTextRoundTrip: every set marshals to a spelling
// ParseScalingSet accepts and parses back to itself, JSON uses that
// spelling, and an unknown set refuses to marshal.
func TestScalingSetTextRoundTrip(t *testing.T) {
	for _, s := range append(AllScalingSets, ScaleAll) {
		text, err := s.MarshalText()
		if err != nil {
			t.Fatalf("%v: %v", s, err)
		}
		got, err := ParseScalingSet(string(text))
		if err != nil || got != s {
			t.Errorf("%v marshals to %q, which parses to %v, %v", s, text, got, err)
		}
	}
	data, err := json.Marshal([]ScalingSet{ScaleL1, ScaleL2DRAM})
	if err != nil || string(data) != `["l1","l2dram"]` {
		t.Errorf("json = %s, %v", data, err)
	}
	if _, err := ScalingSet(42).MarshalText(); err == nil {
		t.Error("an unknown set marshaled")
	}
}

func TestValidationCatchesBadValues(t *testing.T) {
	mutations := []struct {
		name string
		mut  func(*Config)
	}{
		{"zero sms", func(c *Config) { c.Core.NumSMs = 0 }},
		{"negative mshr", func(c *Config) { c.L1.MSHREntries = -1 }},
		{"line size mismatch", func(c *Config) { c.L1.LineSize = 64 }},
		{"non-pow2 sets", func(c *Config) { c.L1.Sets = 3; c.L2.Sets = 3 }},
		{"bad warp scheduler", func(c *Config) { c.Core.Scheduler = "magic" }},
		{"bad dram scheduler", func(c *Config) { c.DRAM.Scheduler = "magic" }},
		{"bad replacement", func(c *Config) { c.L1.Replacement = "mru" }},
		{"row smaller than line", func(c *Config) { c.DRAM.RowBytes = 64 }},
		{"non-pow2 banks", func(c *Config) { c.DRAM.BanksPerChip = 10 }},
		{"zero timing", func(c *Config) { c.DRAM.Timing.CL = 0 }},
		{"negative fixed latency", func(c *Config) { c.FixedLatency.Enabled = true; c.FixedLatency.Cycles = -5 }},
		{"zero clock", func(c *Config) { c.Clock.DRAMMHz = 0 }},
		{"negative l1 hit latency", func(c *Config) { c.L1.HitLatency = -1 }},
		{"negative wire latency", func(c *Config) { c.Icnt.WireLatency = -40 }},
		{"negative l2 hit latency", func(c *Config) { c.L2.HitLatency = -1_000_000 }},
	}
	for _, m := range mutations {
		c := GTX480Baseline()
		m.mut(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("%s: expected validation error", m.name)
		}
	}
}

// TestValidateErrorStrings pins the error of a config with one
// violation: daemons return these strings verbatim in their 400s.
func TestValidateErrorStrings(t *testing.T) {
	for want, mut := range map[string]func(*Config){
		"config: core.num_sms must be positive, got 0":           func(c *Config) { c.Core.NumSMs = 0 },
		"config: l1.mshr_entries must be positive, got -1":       func(c *Config) { c.L1.MSHREntries = -1 },
		"config: dram.timing.cl must be positive, got 0":         func(c *Config) { c.DRAM.Timing.CL = 0 },
		"config: clock.dram_mhz must be positive, got 0":         func(c *Config) { c.Clock.DRAMMHz = 0 },
		"config: l2.hit_latency must be >= 0, got -1":            func(c *Config) { c.L2.HitLatency = -1 },
		"config: icnt.wire_latency must be >= 0, got -40":        func(c *Config) { c.Icnt.WireLatency = -40 },
		"config: L1 line size 64 != L2 line size 128":            func(c *Config) { c.L1.LineSize = 64 },
		"config: line size and set counts must be powers of two": func(c *Config) { c.L1.Sets = 3 },
		"config: fixed latency cycles must be >= 0, got -5": func(c *Config) {
			c.FixedLatency = FixedLatencyConfig{Enabled: true, Cycles: -5}
		},
	} {
		c := GTX480Baseline()
		mut(&c)
		if err := c.Validate(); err == nil || err.Error() != want {
			t.Errorf("got %v, want %q", err, want)
		}
	}
	// A latency of 0 is an idealized but valid architecture.
	c := GTX480Baseline()
	c.L1.HitLatency, c.Icnt.WireLatency, c.L2.HitLatency = 0, 0, 0
	if err := c.Validate(); err != nil {
		t.Errorf("zero latencies rejected: %v", err)
	}
}

func TestJSONRoundTrip(t *testing.T) {
	c := GTX480Baseline()
	c.FixedLatency = FixedLatencyConfig{Enabled: true, Cycles: 250}
	data, err := c.ToJSON()
	if err != nil {
		t.Fatal(err)
	}
	back, err := FromJSON(data)
	if err != nil {
		t.Fatal(err)
	}
	if back != c {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", back, c)
	}
}

func TestFromJSONRejectsInvalid(t *testing.T) {
	if _, err := FromJSON([]byte("{not json")); err == nil {
		t.Errorf("expected parse error")
	}
	// A misspelled knob must fail loudly, not run the baseline value,
	// and so must a second document after the first.
	good, err := GTX480Baseline().ToJSON()
	if err != nil {
		t.Fatal(err)
	}
	typo := bytes.Replace(good, []byte("{"), []byte(`{"l2_sets_typo": 999,`), 1)
	for name, tc := range map[string]struct {
		data []byte
		want string
	}{
		"unknown field": {typo, `unknown field "l2_sets_typo"`},
		"trailing data": {append(append([]byte{}, good...), "{}"...), "trailing data"},
	} {
		if _, err := FromJSON(tc.data); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want one mentioning %q", name, err, tc.want)
		}
	}
	if _, err := FromJSON(append(good, " \n"...)); err != nil {
		t.Errorf("trailing whitespace rejected: %v", err)
	}
	c := GTX480Baseline()
	c.Core.NumSMs = 0
	data, _ := c.ToJSON()
	if _, err := FromJSON(data); err == nil {
		t.Errorf("expected validation error")
	}
}

func TestDRAMDerived(t *testing.T) {
	d := GTX480Baseline().DRAM
	// 2 chips × 32 bits = 8 bytes per edge × 2 (DDR) = 16 B/cycle.
	if got := d.ChannelBytesPerCycle(); got != 16 {
		t.Errorf("ChannelBytesPerCycle = %d, want 16", got)
	}
	if got := d.BurstCycles(128); got != 8 {
		t.Errorf("BurstCycles(128) = %d, want 8", got)
	}
	scaled := ScaleDRAM.Apply(GTX480Baseline()).DRAM
	if got := scaled.BurstCycles(128); got != 4 {
		t.Errorf("scaled BurstCycles(128) = %d, want 4", got)
	}
}

func TestTableIHasThirteenRows(t *testing.T) {
	rows := TableI(GTX480Baseline())
	if len(rows) != 13 {
		t.Fatalf("Table I rows = %d, want 13", len(rows))
	}
	groups := map[string]int{}
	for _, r := range rows {
		groups[r.Group]++
		if r.Type != "+" && r.Type != "=" {
			t.Errorf("row %q bad type %q", r.Parameter, r.Type)
		}
	}
	if groups["DRAM"] != 3 || groups["L2 Cache"] != 7 || groups["L1 Cache"] != 3 {
		t.Errorf("group counts = %v", groups)
	}
}

// TestValidateMaxWarpsBound rejects warp limits the SM's warp
// scheduler cannot hold, so such a config fails here instead of
// panicking when the simulator is built.
func TestValidateMaxWarpsBound(t *testing.T) {
	c := GTX480Baseline()
	c.Core.MaxWarpsPerSM = MaxWarpsPerSM
	if err := c.Validate(); err != nil {
		t.Fatalf("max_warps_per_sm %d rejected: %v", MaxWarpsPerSM, err)
	}
	c.Core.MaxWarpsPerSM = MaxWarpsPerSM + 1
	err := c.Validate()
	if err == nil || !strings.Contains(err.Error(), "core.max_warps_per_sm") {
		t.Fatalf("max_warps_per_sm %d: got %v, want an error naming the field", MaxWarpsPerSM+1, err)
	}
}

// TestValidateDRAMBusWholeBytes: the channel moves whole bytes per
// beat, so chips_per_channel × bus_width_bits must be a positive
// multiple of 8. A narrower bus used to pass validation and divide by
// zero when the DRAM channel was built; a ragged one rounded down.
func TestValidateDRAMBusWholeBytes(t *testing.T) {
	for _, c := range []struct {
		chips, bits int
		ok          bool
	}{
		{2, 32, true}, {2, 4, true}, {1, 8, true}, {4, 2, true},
		{2, 1, false}, {2, 2, false}, {2, 3, false}, {2, 14, false}, {1, 4, false},
	} {
		cfg := GTX480Baseline()
		cfg.DRAM.ChipsPerChannel, cfg.DRAM.BusWidthBits = c.chips, c.bits
		err := cfg.Validate()
		if c.ok {
			if err != nil {
				t.Errorf("%d chips × %d bits rejected: %v", c.chips, c.bits, err)
			} else if cfg.DRAM.ChannelBytesPerCycle() <= 0 {
				t.Errorf("%d chips × %d bits accepted with %d bytes per cycle", c.chips, c.bits, cfg.DRAM.ChannelBytesPerCycle())
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), "dram.bus_width_bits") {
			t.Errorf("%d chips × %d bits: got %v, want an error naming dram.bus_width_bits", c.chips, c.bits, err)
		}
	}
}
