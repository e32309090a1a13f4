package policy

import (
	"math/bits"
	"strings"
	"testing"
)

func TestRegistries(t *testing.T) {
	cases := []struct {
		seam string
		want []string
		got  []string
	}{
		{"issue", []string{IssueGTO, IssueLRR, IssueThrottle}, IssueNames()},
		{"fill", []string{FillAlways, FillBypassLowReuse}, FillNames()},
		{"l2", []string{L2Plain, L2PinHot}, L2Names()},
	}
	for _, c := range cases {
		if len(c.got) != len(c.want) {
			t.Fatalf("%s: got %v want %v", c.seam, c.got, c.want)
		}
		for i := range c.got {
			if c.got[i] != c.want[i] {
				t.Errorf("%s[%d]: got %q want %q", c.seam, i, c.got[i], c.want[i])
			}
		}
	}
	for _, name := range IssueNames() {
		if _, err := NewIssuePolicy(name); err != nil {
			t.Errorf("NewIssuePolicy(%q): %v", name, err)
		}
	}
	for name, want := range map[string]bool{"": false, FillAlways: false, FillBypassLowReuse: true} {
		if b, err := ParseFill(name); err != nil || b != want {
			t.Errorf("ParseFill(%q) = %v, %v", name, b, err)
		}
	}
}

// Unknown names must be rejected with an error that lists every
// registered alternative, mirroring the api registry's unknown-kind
// error shape.
func TestUnknownNamesListRegistered(t *testing.T) {
	if _, err := NewIssuePolicy("nope"); err == nil {
		t.Fatal("NewIssuePolicy accepted an unknown name")
	} else {
		for _, name := range IssueNames() {
			if !strings.Contains(err.Error(), name) {
				t.Errorf("issue error %q does not list %q", err, name)
			}
		}
	}
	if _, err := ParseFill("nope"); err == nil {
		t.Fatal("ParseFill accepted an unknown name")
	} else {
		for _, name := range FillNames() {
			if !strings.Contains(err.Error(), name) {
				t.Errorf("fill error %q does not list %q", err, name)
			}
		}
	}
	if _, err := NewPinHits("nope"); err == nil {
		t.Fatal("NewPinHits accepted an unknown name")
	} else {
		for _, name := range L2Names() {
			if !strings.Contains(err.Error(), name) {
				t.Errorf("l2 error %q does not list %q", err, name)
			}
		}
	}
}

// refGTO is the pre-seam greedy-then-oldest pickWarp logic, kept here
// as the oracle the gto policy must match bit for bit.
func refGTO(cand uint64, last int) int {
	if last >= 0 && cand&(uint64(1)<<uint(last)) != 0 {
		return last
	}
	return bits.TrailingZeros64(cand)
}

// refLRR is the pre-seam loose-round-robin pickWarp logic.
func refLRR(cand uint64, last int) int {
	hi := cand &^ (uint64(1)<<uint(last+1) - 1)
	if hi != 0 {
		return bits.TrailingZeros64(hi)
	}
	return bits.TrailingZeros64(cand)
}

func TestBaselinePicksMatchPreSeamSchedulers(t *testing.T) {
	gto, _ := NewIssuePolicy(IssueGTO)
	lrr, _ := NewIssuePolicy(IssueLRR)
	// Exhaustive over small masks and last-issued ids; covers wrap,
	// greedy-stick, and oldest-fallback branches.
	for cand := uint64(1); cand < 1<<10; cand++ {
		for last := -1; last < 12; last++ {
			ctx := IssueCtx{LastIssued: last}
			if got, want := gto.Pick(cand, ctx), refGTO(cand, last); got != want {
				t.Fatalf("gto.Pick(%#x, last=%d) = %d, want %d", cand, last, got, want)
			}
			if got, want := lrr.Pick(cand, ctx), refLRR(cand, last); got != want {
				t.Fatalf("lrr.Pick(%#x, last=%d) = %d, want %d", cand, last, got, want)
			}
		}
	}
}

func TestThrottleMasksMemoryWarpsUnderPressure(t *testing.T) {
	p, _ := NewIssuePolicy(IssueThrottle)
	relaxed := IssueCtx{LastIssued: -1, MemMask: 0b1111, MSHRUsed: 2, MSHRCap: 64}
	if got := p.Pick(0b1111, relaxed); got != 0 {
		t.Errorf("relaxed MSHRs: Pick = %d, want 0 (plain gto)", got)
	}
	// At >= 3/4 occupancy only compute warps may issue.
	pressured := IssueCtx{LastIssued: -1, MemMask: 0b0011, MSHRUsed: 48, MSHRCap: 64}
	if got := p.Pick(0b1111, pressured); got != 2 {
		t.Errorf("pressured: Pick = %d, want 2 (lowest non-mem warp)", got)
	}
	// All-memory candidates under pressure: deliberately issue nothing.
	allMem := IssueCtx{LastIssued: -1, MemMask: 0b1111, MSHRUsed: 48, MSHRCap: 64}
	if got := p.Pick(0b1111, allMem); got != -1 {
		t.Errorf("all-mem pressured: Pick = %d, want -1 (throttled)", got)
	}
	// Just below the threshold the policy is plain gto.
	below := IssueCtx{LastIssued: 1, MemMask: 0b1111, MSHRUsed: 47, MSHRCap: 64}
	if got := p.Pick(0b1111, below); got != 1 {
		t.Errorf("below threshold: Pick = %d, want 1 (greedy)", got)
	}
}

func TestBypassLowReuseFirstTouchBypasses(t *testing.T) {
	p := new(Bypass)
	if p.ShouldFill(0x40) {
		t.Error("first touch of a line should bypass")
	}
	if !p.ShouldFill(0x40) {
		t.Error("second touch of a line should fill (reuse detected)")
	}
	// Line 0 is a valid line address and must behave like any other.
	if p.ShouldFill(0) {
		t.Error("first touch of line 0 should bypass")
	}
	if !p.ShouldFill(0) {
		t.Error("second touch of line 0 should fill")
	}
	// A fresh table does not share another's per-SM state.
	q := new(Bypass)
	if q.ShouldFill(0x40) {
		t.Error("fresh policy instance should not remember another's lines")
	}
}

// pin-hot protects lines that served at least two hits; the baseline
// (plain, or an empty name) is a threshold of 0, which the L2 tag
// array reads as "protect nothing".
func TestPinHotThreshold(t *testing.T) {
	for name, want := range map[string]int64{"": 0, L2Plain: 0, L2PinHot: 2} {
		if n, err := NewPinHits(name); err != nil || n != want {
			t.Errorf("NewPinHits(%q) = %d, %v; want %d", name, n, err, want)
		}
	}
}
