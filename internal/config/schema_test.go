package config

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestSchemaFields: the schema holds every integer parameter in
// struct order — the 46 positive ones and the three latencies that
// may be 0 — and leaves out the seed and the Fig. 1 mode.
func TestSchemaFields(t *testing.T) {
	fs := Fields()
	if len(fs) != 49 || fs[0].Path != "core.num_sms" || fs[len(fs)-1].Path != "clock.dram_mhz" {
		t.Fatalf("schema has %d fields, %v ... %v", len(fs), fs[0], fs[len(fs)-1])
	}
	var zero []string
	for _, f := range fs {
		if f.Min == 0 {
			zero = append(zero, f.Path)
		}
		if f.Path == "seed" || strings.HasPrefix(f.Path, "fixed_latency") {
			t.Errorf("schema holds %s", f.Path)
		}
	}
	if got := strings.Join(zero, ","); got != "l1.hit_latency,icnt.wire_latency,l2.hit_latency" {
		t.Errorf("fields bounded at 0: %s", got)
	}
	c := GTX480Baseline()
	f := schema("dram.timing.trfc")[0]
	if f.Get(&c) != 104 {
		t.Errorf("%s = %d", f.Path, f.Get(&c))
	}
	f.Set(&c, 7)
	if c.DRAM.Timing.TRFC != 7 {
		t.Errorf("Set wrote %+v", c.DRAM.Timing)
	}
}

// TestTableIFollowsConfig: Table I shows the config it is given, so a
// report over an L2-scaled base shows that base's queues and their 4×.
func TestTableIFollowsConfig(t *testing.T) {
	for _, r := range TableI(ScaleL2.Apply(GTX480Baseline())) {
		if r.Parameter == "L2 access queue" {
			if r.Baseline != "32 entries" || r.Scaled != "128 entries" {
				t.Errorf("L2 access queue %q -> %q, want 32 -> 128 entries", r.Baseline, r.Scaled)
			}
			return
		}
	}
	t.Fatal("no L2 access queue row")
}

// TestScalingSetUnknown: Apply stays total and String names the value.
func TestScalingSetUnknown(t *testing.T) {
	base := GTX480Baseline()
	for _, s := range []ScalingSet{-1, ScaleAll + 1, 42} {
		if s.Apply(base) != base {
			t.Errorf("%v applied something", s)
		}
		if want := fmt.Sprintf("ScalingSet(%d)", int(s)); s.String() != want {
			t.Errorf("String = %q, want %q", s.String(), want)
		}
	}
}

// TestScalingSetText: every spelling ParseScalingSet accepts decodes
// to its set, the set re-encodes to its canonical spelling, and an
// unknown spelling is an error.
func TestScalingSetText(t *testing.T) {
	for set, def := range scalingSets {
		for _, name := range def.names {
			var got ScalingSet
			if err := got.UnmarshalText([]byte(name)); err != nil || got != ScalingSet(set) {
				t.Errorf("UnmarshalText(%q) = %v, %v; want %v", name, got, err, ScalingSet(set))
			}
			if text, _ := got.MarshalText(); string(text) != def.names[0] {
				t.Errorf("%q re-encodes as %q, want %q", name, text, def.names[0])
			}
		}
	}
	var s ScalingSet
	if err := s.UnmarshalText([]byte("l3")); err == nil {
		t.Errorf("unknown spelling decoded to %v", s)
	}
}

// TestArchitecture: a config is named by the scaling set that gives
// it from the baseline, seed aside, and is "custom" otherwise.
func TestArchitecture(t *testing.T) {
	base := GTX480Baseline()
	reseeded := ScaleL2DRAM.Apply(base)
	reseeded.Seed = 9
	custom := base
	custom.L2.HitLatency++
	policy := base
	policy.Policy.Issue = "throttle"
	for _, tc := range []struct {
		cfg  Config
		want string
	}{
		{base, "baseline"}, {reseeded, "L2+DRAM"}, {ScaleAll.Apply(base), "L1+L2+DRAM"},
		{custom, "custom"}, {policy, "custom"}, {ScaleL2.Apply(ScaleL2.Apply(base)), "custom"},
	} {
		if got := Architecture(tc.cfg); got != tc.want {
			t.Errorf("Architecture = %q, want %q", got, tc.want)
		}
	}
}

// TestSchemaAllocationFree: Validate runs on every served request,
// cache hits included, and Apply on every scaled one; reading and
// writing fields through the schema must not allocate.
func TestSchemaAllocationFree(t *testing.T) {
	base := GTX480Baseline()
	if n := testing.AllocsPerRun(100, func() { _ = base.Validate() }); n != 0 {
		t.Errorf("Validate allocates %.0f times", n)
	}
	if n := testing.AllocsPerRun(100, func() { base = ScaleNone.Apply(ScaleAll.Apply(base)) }); n != 0 {
		t.Errorf("Apply allocates %.0f times", n)
	}
}

// TestValidateMitigationAllocationFree: resolving the policy names
// checks them without building the per-SM bypass table, so Validate
// stays allocation-free under every mitigation.
func TestValidateMitigationAllocationFree(t *testing.T) {
	c := GTX480Baseline()
	c.Policy = PolicyConfig{Issue: "throttle", L1Fill: "bypass-low-reuse", L2Insert: "pin-hot"}
	if n := testing.AllocsPerRun(100, func() { _ = c.Validate() }); n != 0 {
		t.Errorf("Validate allocates %.0f times", n)
	}
}

func BenchmarkValidate(b *testing.B) {
	c := GTX480Baseline()
	for b.Loop() {
		if err := c.Validate(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkApplyL2DRAM(b *testing.B) {
	c := GTX480Baseline()
	for b.Loop() {
		_ = ScaleL2DRAM.Apply(c)
	}
}

// tableIColumn is a field's cell in the config reference's Table I
// column: its group and factor, or "—" outside Table I.
func tableIColumn(f Field) string {
	for _, p := range tableI {
		for _, pf := range p.fields {
			if pf.Path == f.Path {
				return fmt.Sprintf("%s ×%d", p.group, p.factor)
			}
		}
	}
	return "—"
}

// TestDocsConfigReference keeps docs/api.md's config reference in
// step with the schema: one row per field, in schema order, with the
// GTX480 default, the bound and the Table I group × factor.
func TestDocsConfigReference(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "..", "docs", "api.md"))
	if err != nil {
		t.Fatal(err)
	}
	_, section, ok := strings.Cut(string(data), "\n## Config reference\n")
	if !ok {
		t.Fatal("docs/api.md has no \"## Config reference\" section")
	}
	section, _, _ = strings.Cut(section, "\n## ")
	var got []string
	for _, line := range strings.Split(section, "\n") {
		if strings.HasPrefix(line, "| `") {
			got = append(got, line)
		}
	}
	base := GTX480Baseline()
	var want []string
	for _, f := range Fields() {
		want = append(want, fmt.Sprintf("| `%s` | %d | %s | %s |", f.Path, f.Get(&base), f.Bound, tableIColumn(f)))
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("docs/api.md config reference rows:\n%s\nwant, in schema order:\n%s",
			strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}

// FuzzConfigJSON: every config FromJSON accepts has each schema field
// within its bound, re-encodes to the bytes it decodes from, and
// survives every scaling set (the result validates or is rejected,
// without a panic). The seeds are the baseline, each scaling set
// applied to it, and each field at its bound.
func FuzzConfigJSON(f *testing.F) {
	base := GTX480Baseline()
	var seeds []Config
	for s := range scalingSets {
		seeds = append(seeds, ScalingSet(s).Apply(base))
	}
	for _, fd := range fields {
		c := base
		fd.Set(&c, fd.Min)
		seeds = append(seeds, c)
	}
	for _, c := range seeds {
		data, err := c.ToJSON()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		c, err := FromJSON(data)
		if err != nil {
			return
		}
		for _, fd := range Fields() {
			if v := fd.Get(&c); v < fd.Min {
				t.Fatalf("accepted %s = %d, below %d", fd.Path, v, fd.Min)
			}
		}
		enc, err := c.ToJSON()
		if err != nil {
			t.Fatal(err)
		}
		back, err := FromJSON(enc)
		if err != nil {
			t.Fatalf("re-encoded config rejected: %v", err)
		}
		if enc2, _ := back.ToJSON(); !bytes.Equal(enc, enc2) {
			t.Fatalf("ToJSON -> FromJSON is not a fixed point:\n%s\n%s", enc, enc2)
		}
		for s := range scalingSets {
			_ = ScalingSet(s).Apply(c).Validate()
		}
	})
}
