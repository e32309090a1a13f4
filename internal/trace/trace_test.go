package trace

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/workload"
)

func sampleSpec() workload.Spec {
	return workload.Spec{
		SpecName: "sample", Warps: 2, ComputePerMem: 2, DepDist: 2,
		StoreFrac: 0.3, AccessPattern: workload.Gather,
		WorkingSetLines: 64, Shared: true, LinesPerAccess: 2,
	}
}

// replayStream returns warp's replay stream on SM sm, built the way
// the simulator builds it: one Streams call for the whole SM.
func replayStream(tr *Trace, sm, warp int) core.InstrStream {
	dst := make([]core.InstrStream, tr.WarpsPerSM())
	tr.Streams(sm, 0, 0, dst)
	return dst[warp]
}

// unbatch expands batched compute runs (Instr.Run > 1) back into one
// Instr per instruction, so streams with different batching compare
// instruction-for-instruction.
type unbatch struct {
	s    core.InstrStream
	left int
}

func (u *unbatch) NextInto(in *core.Instr) {
	if u.left > 0 {
		u.left--
		*in = core.Instr{Kind: core.ALU}
		return
	}
	u.s.NextInto(in)
	if r := in.Run; r > 1 {
		u.left = r - 1
		in.Run = 1
	}
}

// coalescedOf returns an instruction's line transactions: the
// pre-coalesced Lines when the stream provides them (generator
// streams), otherwise the lane view reduced exactly as the SM would
// (replay streams carry recorded line addresses in Lanes).
func coalescedOf(in core.Instr) []uint64 {
	if in.Lines != nil {
		return in.Lines
	}
	return core.Coalesce(in.Lanes, 128)
}

// assertStreamsEqual compares a fresh generator stream against a
// replay stream instruction-for-instruction at line granularity.
func assertStreamsEqual(t *testing.T, label string, fresh, rep core.InstrStream, n int) {
	t.Helper()
	fresh, rep = &unbatch{s: fresh}, &unbatch{s: rep}
	for i := 0; i < n; i++ {
		want, got := core.NextOf(fresh), core.NextOf(rep)
		if want.Kind != got.Kind || want.Store != got.Store {
			t.Fatalf("%s: instr %d: kind/store mismatch", label, i)
		}
		if want.Kind != core.Mem {
			continue
		}
		if want.DepDist != got.DepDist && !want.Store {
			t.Fatalf("%s: instr %d: dep %d vs %d", label, i, want.DepDist, got.DepDist)
		}
		wl := coalescedOf(want)
		gl := coalescedOf(got)
		if len(wl) != len(gl) {
			t.Fatalf("%s: instr %d: %d vs %d lines", label, i, len(wl), len(gl))
		}
		for j := range wl {
			if wl[j] != gl[j] {
				t.Fatalf("%s: instr %d line %d: %#x vs %#x", label, i, j, wl[j], gl[j])
			}
		}
	}
}

func TestRecordParseRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	if err := Record(sampleSpec(), 2, 50, 7, 128, &buf); err != nil {
		t.Fatal(err)
	}
	tr, err := Parse("sample", &buf)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Name() != "sample" || tr.WarpsPerSM() != 2 {
		t.Fatalf("metadata: %s %d", tr.Name(), tr.WarpsPerSM())
	}
	assertStreamsEqual(t, "sample", sampleSpec().Stream(1, 1, 7, 128), replayStream(tr, 1, 1), 50)
}

// TestRoundTripEveryPattern is the Record→Parse→Stream property test:
// for every access pattern and every built-in multi-phase scenario,
// the replayed streams equal the generator streams for every recorded
// (sm, warp).
func TestRoundTripEveryPattern(t *testing.T) {
	specs := []workload.Spec{
		{SpecName: "p-streaming", Warps: 2, ComputePerMem: 1, DepDist: 2,
			AccessPattern: workload.Streaming, WorkingSetLines: 1 << 12, LinesPerAccess: 1},
		{SpecName: "p-strided", Warps: 2, ComputePerMem: 1, DepDist: 1, StoreFrac: 0.2,
			AccessPattern: workload.Strided, WorkingSetLines: 512, LinesPerAccess: 2, StrideLines: 7},
		{SpecName: "p-stencil", Warps: 2, ComputePerMem: 0, DepDist: 1,
			AccessPattern: workload.Stencil, WorkingSetLines: 256, LinesPerAccess: 2, HitFrac: 0.3},
		{SpecName: "p-gather", Warps: 2, ComputePerMem: 2, DepDist: 1, Shared: true,
			AccessPattern: workload.Gather, WorkingSetLines: 128, LinesPerAccess: 4},
		{SpecName: "p-thrash", Warps: 2, ComputePerMem: 0, DepDist: 1, Shared: true,
			AccessPattern: workload.Thrash, WorkingSetLines: 1024, LinesPerAccess: 2, StoreFrac: 0.5},
		{SpecName: "p-hotset", Warps: 2, ComputePerMem: 1, DepDist: 1, Shared: true,
			AccessPattern: workload.Hotset, WorkingSetLines: 4096, LinesPerAccess: 2, StoreFrac: 0.3},
		{SpecName: "p-transpose", Warps: 2, ComputePerMem: 1, DepDist: 3,
			AccessPattern: workload.Transpose, WorkingSetLines: 1024, LinesPerAccess: 8, StrideLines: 32},
	}
	specs = append(specs, workload.Scenarios()...)
	const sms, n = 2, 120
	for _, spec := range specs {
		var buf bytes.Buffer
		if err := Record(spec, sms, n, 7, 128, &buf); err != nil {
			t.Fatalf("%s: %v", spec.SpecName, err)
		}
		tr, err := Parse(spec.SpecName, &buf)
		if err != nil {
			t.Fatalf("%s: %v", spec.SpecName, err)
		}
		for sm := 0; sm < sms; sm++ {
			for warp := 0; warp < spec.Warps; warp++ {
				label := fmt.Sprintf("%s sm=%d warp=%d", spec.SpecName, sm, warp)
				assertStreamsEqual(t, label, spec.Stream(sm, warp, 7, 128), replayStream(tr, sm, warp), n)
			}
		}
	}
}

func TestReplayPadsWithALU(t *testing.T) {
	var buf bytes.Buffer
	if err := Record(sampleSpec(), 1, 5, 7, 128, &buf); err != nil {
		t.Fatal(err)
	}
	tr, err := Parse("sample", &buf)
	if err != nil {
		t.Fatal(err)
	}
	s := replayStream(tr, 0, 0)
	for i := 0; i < 5; i++ {
		core.NextOf(s)
	}
	if in := core.NextOf(s); in.Kind != core.ALU {
		t.Fatalf("exhausted trace should pad with ALU, got %v", in.Kind)
	}
}

func TestReplayUnknownSMFallsBack(t *testing.T) {
	var buf bytes.Buffer
	if err := Record(sampleSpec(), 1, 5, 7, 128, &buf); err != nil {
		t.Fatal(err)
	}
	tr, _ := Parse("sample", &buf)
	s := replayStream(tr, 9, 0) // SM 9 not recorded: reuse SM 0
	if s == nil {
		t.Fatalf("no stream for unrecorded SM")
	}
	core.NextOf(s)
}

func TestParseErrors(t *testing.T) {
	cases := map[string]string{
		"empty":         "",
		"bad header":    "W 1\nA\n",
		"bad warp id":   "W a 0\nA\n",
		"bad record":    "W 0 0\nX\n",
		"load no addr":  "W 0 0\nL 2\n",
		"bad dep":       "W 0 0\nL zero 80\n",
		"bad addr":      "W 0 0\nL 2 nothex\n",
		"bad store":     "W 0 0\nS nothex\n",
		"negative warp": "W 0 -1\nA\n",
	}
	for name, in := range cases {
		if _, err := Parse("t", strings.NewReader(in)); err == nil {
			t.Errorf("%s: expected parse error", name)
		}
	}
}

func TestParseAcceptsBlankLines(t *testing.T) {
	in := "W 0 0\n\nA\nL 2 80\n\nS 100\n"
	tr, err := Parse("t", strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	s := replayStream(tr, 0, 0)
	kinds := []core.InstrKind{core.ALU, core.Mem, core.Mem}
	for i, want := range kinds {
		if got := core.NextOf(s); got.Kind != want {
			t.Fatalf("instr %d: kind %v want %v", i, got.Kind, want)
		}
	}
}

func TestHeaderRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	if err := Record(sampleSpec(), 1, 5, 7, 128, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(buf.String(), "H 1 128 2\n") {
		t.Fatalf("record did not lead with the header: %.30q", buf.String())
	}
	tr, err := Parse("t", &buf)
	if err != nil {
		t.Fatal(err)
	}
	hdr, ok := tr.Header()
	if !ok || hdr.Version != FormatVersion || hdr.LineSize != 128 || hdr.Warps != 2 {
		t.Fatalf("header = %+v ok=%v", hdr, ok)
	}
	verified, err := tr.CheckLineSize(128)
	if err != nil || !verified {
		t.Fatalf("matching line size: verified=%v err=%v", verified, err)
	}
	if _, err := tr.CheckLineSize(64); err == nil {
		t.Fatalf("mismatched line size must error")
	}
}

// TestLegacyHeaderlessTrace: traces written before the header existed
// still parse; they just cannot be verified.
func TestLegacyHeaderlessTrace(t *testing.T) {
	var buf bytes.Buffer
	if err := Record(sampleSpec(), 1, 5, 7, 128, &buf); err != nil {
		t.Fatal(err)
	}
	_, rest, _ := strings.Cut(buf.String(), "\n")
	tr, err := Parse("legacy", strings.NewReader(rest))
	if err != nil {
		t.Fatalf("headerless trace rejected: %v", err)
	}
	if _, ok := tr.Header(); ok {
		t.Fatalf("headerless trace reported a header")
	}
	verified, err := tr.CheckLineSize(64)
	if err != nil || verified {
		t.Fatalf("legacy check: verified=%v err=%v (want unverified, no error)", verified, err)
	}
	assertStreamsEqual(t, "legacy", sampleSpec().Stream(0, 1, 7, 128), replayStream(tr, 0, 1), 5)
}

func TestParseRejectsDuplicateWarpSection(t *testing.T) {
	in := "W 0 0\nA\nW 0 1\nA\nW 0 0\nA\n"
	_, err := Parse("t", strings.NewReader(in))
	if err == nil {
		t.Fatalf("duplicate W 0 0 section accepted")
	}
	if !strings.Contains(err.Error(), "line 5") || !strings.Contains(err.Error(), "first at line 1") {
		t.Fatalf("duplicate error lacks line numbers: %v", err)
	}
}

func TestParseRejectsSparseWarps(t *testing.T) {
	cases := map[string]string{
		// SM 1 skips warp 1 while SM 0 establishes 3 warps/SM.
		"hole in SM":     "W 0 0\nA\nW 0 1\nA\nW 0 2\nA\nW 1 0\nA\nW 1 2\nA\n",
		"missing warp 0": "W 0 1\nA\n",
		"missing SM 0":   "W 1 0\nA\n",
		// SM 1 absent while SM 2 is present: replay would silently run
		// SM 0's streams on SM 1 via the unrecorded-SM fallback.
		"hole in SM ids": "W 0 0\nA\nW 2 0\nA\n",
		// Header promises 2 warps/SM but only warp 0 is recorded.
		"fewer than header": "H 1 128 2\nW 0 0\nA\n",
	}
	for name, in := range cases {
		if _, err := Parse("t", strings.NewReader(in)); err == nil {
			t.Errorf("%s: sparse trace accepted", name)
		}
	}
}

func TestHeaderErrors(t *testing.T) {
	cases := map[string]string{
		"not first":        "W 0 0\nA\nH 1 128 1\n",
		"duplicate header": "H 1 128 1\nH 1 128 1\nW 0 0\nA\n",
		"short header":     "H 1 128\nW 0 0\nA\n",
		"bad version":      "H zero 128 1\nW 0 0\nA\n",
		"future version":   "H 99 128 1\nW 0 0\nA\n",
		"zero line size":   "H 1 0 1\nW 0 0\nA\n",
		"zero warps":       "H 1 128 0\nW 0 0\nA\n",
		"warp id beyond":   "H 1 128 1\nW 0 0\nA\nW 0 1\nA\n",
	}
	for name, in := range cases {
		if _, err := Parse("t", strings.NewReader(in)); err == nil {
			t.Errorf("%s: expected header error", name)
		}
	}
}
