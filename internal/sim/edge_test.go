package sim

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/config"
	"repro/internal/workload"
)

// intFields returns a settable view of every int and int64 field of v
// (a struct, walked recursively) that is positive in v, named by its
// path of Go field names.
func intFields(v reflect.Value, path string, out map[string]reflect.Value) {
	for i := 0; i < v.NumField(); i++ {
		f, name := v.Field(i), path+v.Type().Field(i).Name
		switch f.Kind() {
		case reflect.Struct:
			intFields(f, name+".", out)
		case reflect.Int, reflect.Int64:
			if f.Int() > 0 {
				out[name] = f
			}
		}
	}
}

// TestValidatedEdgeConfigsRun: every config Validate accepts must
// build a simulator that makes progress. Each positive integer field
// of the baseline is set to 1, 2 and 3 in turn, and every such config
// Validate accepts runs cfd for 1000 cycles on the full hierarchy and
// in Fig. 1 mode and issues instructions. New may refuse a config
// only for allowing fewer warps than cfd runs. A DRAM bus narrower
// than one byte per beat used to pass Validate and divide by zero in
// New.
func TestValidatedEdgeConfigsRun(t *testing.T) {
	wl, err := workload.ByName("cfd")
	if err != nil {
		t.Fatal(err)
	}
	for _, fixed := range []bool{false, true} {
		cfg := config.GTX480Baseline()
		if fixed {
			cfg.FixedLatency = config.FixedLatencyConfig{Enabled: true, Cycles: 100}
		}
		fields := map[string]reflect.Value{}
		intFields(reflect.ValueOf(&cfg).Elem(), "", fields)
		for name, f := range fields {
			old := f.Int()
			for v := int64(1); v <= 3; v++ {
				f.SetInt(v)
				label := fmt.Sprintf("fixed=%v %s=%d", fixed, name, v)
				if cfg.Validate() == nil {
					runEdge(t, label, cfg, wl)
				}
			}
			f.SetInt(old)
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
