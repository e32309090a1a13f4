package main

import (
	"bytes"
	"runtime/pprof"
	"strings"
	"testing"
	"time"
)

func TestChargeInnermostRepoFrame(t *testing.T) {
	for _, c := range []struct {
		stack []string
		want  string
	}{
		{[]string{"repro/internal/cache.(*Cache).Access", "repro/internal/core.(*SM).Step"}, "cache"},
		{[]string{"runtime.memmove", "repro/internal/icnt.(*Crossbar).Tick", "repro/internal/sim.(*GPU).Step"}, "icnt"},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcAssistAlloc", "runtime.mallocgc", "repro/internal/workload.(*stream).next"}, "workload"},
		{[]string{"repro/internal/runner.Map[go.shape.struct {}].func1", "runtime.goexit"}, "runner"},
		{[]string{"net/http.(*conn).serve", "runtime.goexit"}, "other"},
		{[]string{"repro.NewSystem", "main.main"}, "other"},
		{[]string{"repro/internalx.F"}, "other"},
		{nil, "other"},
	} {
		if got := charge(c.stack); got != c.want {
			t.Errorf("charge(%q) = %q, want %q", c.stack, got, c.want)
		}
	}
}

func TestChargeSamplesCountsGC(t *testing.T) {
	c := chargeSamples([]sample{
		{[]string{"repro/internal/core.(*SM).Step"}, 5},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, 3},
		{[]string{"runtime.scanobject", "runtime.gcAssistAlloc", "repro/internal/dram.(*Channel).Tick"}, 2},
		{[]string{calibFrame, "main.(*calibrator).sample", "main.passes"}, 4},
	})
	if c.total != 10 || c.calib != 4 || c.gc != 5 || c.layer["core"] != 5 || c.layer["other"] != 3 || c.layer["dram"] != 2 {
		t.Errorf("charged %+v", c)
	}
}

//go:noinline
func burn(d time.Duration) int {
	n := 0
	for t := time.Now(); time.Since(t) < d; {
		for i := 0; i < 1000; i++ {
			n += i * i
		}
	}
	return n
}

// TestDecodeProfile decodes a real CPU profile of this process, in
// which the calibration kernel must appear under calibFrame.
func TestDecodeProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("profiler busy:", err)
	}
	burn(300 * time.Millisecond)
	var cal calibrator
	for range 4 {
		cal.sample()
	}
	pprof.StopCPUProfile()
	samples, err := decodeProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	found, calib := false, false
	for _, s := range samples {
		if s.count <= 0 || len(s.stack) == 0 {
			t.Fatalf("sample %+v", s)
		}
		for _, fn := range s.stack {
			found = found || strings.HasSuffix(fn, ".burn")
			calib = calib || fn == calibFrame
		}
	}
	if !found || !calib {
		t.Errorf("among %d samples: burn found %v, %s found %v", len(samples), found, calibFrame, calib)
	}
	if _, err := decodeProfile([]byte{0x12, 0x05, 0x01}); err == nil {
		t.Error("truncated profile decoded without error")
	}
}
