package exp

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"repro/internal/config"
	"repro/internal/runner"
	"repro/internal/workload"
)

// TestResultsEncodeRoundTrip: encode → decode → re-encode must
// reproduce both the value and the exact bytes, for a real hierarchy
// run and a fixed-latency run. This is the serialization half of the
// result cache's byte-identical contract.
func TestResultsEncodeRoundTrip(t *testing.T) {
	wl, err := workload.ByName("sc")
	if err != nil {
		t.Fatal(err)
	}
	p := RunParams{WarmupCycles: 300, WindowCycles: 800}
	cfgs := map[string]config.Config{"base": config.GTX480Baseline()}
	fixed := config.GTX480Baseline()
	fixed.FixedLatency = config.FixedLatencyConfig{Enabled: true, Cycles: 200}
	cfgs["fixed"] = fixed

	for name, cfg := range cfgs {
		res, err := runner.Execute(runner.Job{Config: cfg, Workload: wl, WarmupCycles: p.WarmupCycles, WindowCycles: p.WindowCycles})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		enc, err := EncodeResults(res)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		dec, err := DecodeResults(enc)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !reflect.DeepEqual(res, dec) {
			t.Fatalf("%s: decode changed the value:\n%+v\nvs\n%+v", name, res, dec)
		}
		re, err := EncodeResults(dec)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !bytes.Equal(enc, re) {
			t.Fatalf("%s: re-encode not byte-identical:\n%s\nvs\n%s", name, enc, re)
		}
		// The decoded snapshot must render the same report bytes the
		// live Results would (what gpusim -cache-dir prints on a hit).
		if res.String() != dec.String() {
			t.Fatalf("%s: rendered report differs after round trip", name)
		}
		if res.StallString() != dec.StallString() {
			t.Fatalf("%s: rendered stall stack differs after round trip", name)
		}
	}
}

// TestDecodeResultsRejectsCorrupt: a cache must not serve snapshots
// this code could not have produced.
func TestDecodeResultsRejectsCorrupt(t *testing.T) {
	wl, _ := workload.ByName("sc")
	res, err := runner.Execute(runner.Job{Config: config.GTX480Baseline(), Workload: wl, WarmupCycles: 200, WindowCycles: 400})
	if err != nil {
		t.Fatal(err)
	}
	good, err := EncodeResults(res)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeResults(good); err != nil {
		t.Fatalf("valid snapshot rejected: %v", err)
	}

	cases := map[string]struct {
		mutate func(string) string
		want   string
	}{
		"unknown field": {
			func(s string) string { return strings.Replace(s, `{"Cycles"`, `{"Bogus":1,"Cycles"`, 1) },
			"unknown field",
		},
		"negative counter": {
			func(s string) string { return replaceValue(t, s, `"Instructions"`, "-5") },
			"negative instructions",
		},
		"fraction above one": {
			func(s string) string { return replaceValue(t, s, `"DRAMBusUtil"`, "1.5") },
			"out of [0,1]",
		},
		"unknown stall cause": {
			func(s string) string { return strings.Replace(s, `"issue"`, `"vibes"`, 1) },
			"unknown stall cause",
		},
		"negative stall cycles": {
			func(s string) string { return replaceValue(t, s, `"scoreboard"`, "-1") },
			"negative cycles",
		},
		"broken stall closure": {
			func(s string) string { return replaceValue(t, s, `"issue"`, "7") },
			"not a multiple",
		},
		"trailing data": {
			func(s string) string { return s + "{}" },
			"trailing data",
		},
	}
	for name, tc := range cases {
		bad := tc.mutate(string(good))
		if bad == string(good) {
			t.Fatalf("%s: mutation was a no-op", name)
		}
		_, err := DecodeResults([]byte(bad))
		if err == nil {
			t.Fatalf("%s: corrupt snapshot accepted", name)
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("%s: error %q does not mention %q", name, err, tc.want)
		}
	}
}

// replaceValue rewrites the number following `"key":` in compact JSON.
func replaceValue(t *testing.T, s, key, val string) string {
	t.Helper()
	i := strings.Index(s, key+":")
	if i < 0 {
		t.Fatalf("key %s not found", key)
	}
	start := i + len(key) + 1
	end := start
	for end < len(s) && s[end] != ',' && s[end] != '}' {
		end++
	}
	return s[:start] + val + s[end:]
}
