package sim

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/config"
	"repro/internal/workload"
)

// TestValidatedEdgeConfigsRun: every config Validate accepts must
// build a simulator that makes progress. Each schema field of the
// baseline is set to its bound and the two values above it in turn
// (so latencies are tried at 0), and every such config Validate
// accepts runs cfd for 1000 cycles on the full hierarchy and in Fig. 1
// mode, where the fixed latency itself is tried at 0 to 2 too, and
// issues instructions. New may refuse a config only for allowing
// fewer warps than cfd runs. A DRAM bus narrower than one byte per
// beat used to pass Validate and divide by zero in New.
func TestValidatedEdgeConfigsRun(t *testing.T) {
	wl, err := workload.ByName("cfd")
	if err != nil {
		t.Fatal(err)
	}
	for _, fixed := range []bool{false, true} {
		cfg := config.GTX480Baseline()
		if fixed {
			for v := int64(0); v <= 2; v++ {
				cfg.FixedLatency = config.FixedLatencyConfig{Enabled: true, Cycles: v}
				runEdge(t, fmt.Sprintf("fixed_latency.cycles=%d", v), cfg, wl)
			}
			cfg.FixedLatency.Cycles = 100
		}
		for _, f := range config.Fields() {
			old := f.Get(&cfg)
			for v := f.Min; v <= f.Min+2; v++ {
				f.Set(&cfg, v)
				if cfg.Validate() == nil {
					runEdge(t, fmt.Sprintf("fixed=%v %s=%d", fixed, f.Path, v), cfg, wl)
				}
			}
			f.Set(&cfg, old)
		}
	}
}

// runEdge builds and runs one edge config, turning a panic into a
// test failure that names the config.
func runEdge(t *testing.T, label string, cfg config.Config, wl workload.Workload) {
	t.Helper()
	defer func() {
		if r := recover(); r != nil {
			t.Errorf("%s: panicked: %v", label, r)
		}
	}()
	g, err := New(cfg, wl)
	if err != nil {
		if !strings.Contains(err.Error(), "warps/SM") {
			t.Errorf("%s: New: %v", label, err)
		}
		return
	}
	g.Run(1000)
	if g.Results().Instructions == 0 {
		t.Errorf("%s: no instruction issued in 1000 cycles", label)
	}
}
