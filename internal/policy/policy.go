// Package policy defines the three mitigation seams of the simulated
// memory hierarchy — warp issue, L1 fill/bypass, and L2 victim
// protection — each with a small registry of names. Every seam is a
// plain value, resolved once per component by config.Config.Policies
// into a Set: an IssuePolicy whose Pick the compiler inlines into the
// per-instruction issue loop, whether the L1 bypasses low-reuse fills
// (each SM then builds its own *Bypass table), and an L2 pin threshold
// (0 is plain replacement).
//
// The paper (Dublish et al., IISWC 2016) characterizes *where* GPGPU
// cycles go; its related work names the mechanisms that claw them
// back: warp-level throttling under memory back-pressure
// (Ausavarungnirun et al., "Holistic Management of the GPGPU Memory
// Hierarchy") and cache bypass / insertion-priority schemes (Mutlu et
// al., "Recent Advances in Overcoming Bottlenecks in Memory Systems").
// This package turns the decision points those mechanisms hook into
// seams the simulator resolves by name from config.Config.Policy:
//
//   - IssuePolicy replaces the hard-coded pickWarp in internal/core:
//     which ready warp issues, and whether to issue at all this slot.
//   - Bypass replaces the implicit fill-always of the L1 in
//     internal/core: does a missing line allocate in the cache, or is
//     the fill routed around it.
//   - The pin threshold biases victim selection in the internal/l2
//     partitions (cache.Config.PinHits): lines with proven reuse can
//     be protected from eviction.
//
// Every policy is a deterministic pure function of its inputs plus
// its own private state: simulation results must stay byte-identical
// at any parallelism and across the event and cycle engines. The
// baseline names ("gto"/"lrr", "always", "plain") reproduce the
// pre-seam behavior exactly.
//
// policy is a leaf package (no simulator imports), so internal/config
// can resolve names at decode time while internal/core, internal/cache
// and internal/l2 consume the values without an import cycle.
package policy

import (
	"fmt"
	"math/bits"
	"strings"
)

// Registered policy names. The empty string on a config.Config.Policy
// field selects the seam's baseline (for the issue seam, the
// Core.Scheduler field keeps choosing between gto and lrr).
const (
	// IssueGTO is the greedy-then-oldest(-loose) baseline scheduler.
	IssueGTO = "gto"
	// IssueLRR is the loose round-robin scheduler.
	IssueLRR = "lrr"
	// IssueThrottle is the MSHR-aware memory-warp throttler.
	IssueThrottle = "throttle"
	// FillAlways is the baseline L1 policy: every miss allocates.
	FillAlways = "always"
	// FillBypassLowReuse bypasses first-touch (streaming) L1 fills.
	FillBypassLowReuse = "bypass-low-reuse"
	// L2Plain is the baseline L2 victim selection (pure replacement).
	L2Plain = "plain"
	// L2PinHot protects L2 lines with proven reuse from eviction.
	L2PinHot = "pin-hot"
)

// IssueCtx is the per-slot context an IssuePolicy picks from: the
// scheduler state the baseline policies need plus the back-pressure
// counters the throttler reads. It is passed by value — policies must
// not retain it.
type IssueCtx struct {
	// LastIssued is the warp id that issued most recently (greedy
	// anchor for gto, rotation point for lrr).
	LastIssued int
	// MemMask has a bit set for every warp whose next instruction is a
	// memory access.
	MemMask uint64
	// MSHRUsed and MSHRCap are the SM's L1 MSHR occupancy and capacity
	// — the back-pressure signal the throttler saturates on.
	MSHRUsed int
	// MSHRCap is the total number of L1 MSHR entries.
	MSHRCap int
}

// IssuePolicy selects which ready warp issues next. Pick receives a
// non-zero candidate mask (bit i = warp i is eligible this slot) and
// returns the chosen warp id, or -1 to deliberately issue nothing this
// slot (throttling); the core charges the empty slot through the
// normal stall-attribution path.
//
// The registered schedulers differ only in two switches, and Pick runs
// once per issued instruction, so a static call the compiler inlines
// beats a dynamic dispatch. The zero value is gto; build one with
// NewIssuePolicy.
type IssuePolicy struct {
	// rotate picks loose round-robin (lrr) instead of
	// greedy-then-oldest (gto).
	rotate bool
	// throttle caps concurrently-issuing memory warps when the L1
	// MSHR file saturates (>= 3/4 occupied): under back-pressure the
	// memory warps are masked out of the candidate set and the
	// compute warps are gto-picked, issuing nothing if only memory
	// warps are ready. This is the CTA/warp throttling idea of
	// Ausavarungnirun et al.: stop piling requests onto a saturated
	// hierarchy and let the queues drain.
	throttle bool
}

// Pick chooses a warp from the non-zero candidate mask, or -1.
func (p IssuePolicy) Pick(cand uint64, ctx IssueCtx) int {
	if p.throttle && ctx.MSHRUsed*4 >= ctx.MSHRCap*3 {
		if cand &^= ctx.MemMask; cand == 0 {
			return -1
		}
	}
	last := ctx.LastIssued
	if p.rotate {
		// Rotate: first candidate strictly above the last-issued warp,
		// wrapping to the lowest candidate.
		if hi := cand &^ (uint64(1)<<uint(last+1) - 1); hi != 0 {
			return bits.TrailingZeros64(hi)
		}
	} else if last >= 0 && cand&(uint64(1)<<uint(last)) != 0 {
		// Greedy: stay on the last-issued warp while it remains
		// eligible, else fall back to the oldest candidate.
		return last
	}
	return bits.TrailingZeros64(cand)
}

// bypassTableBits sizes the per-SM recent-miss tag table (2^bits
// direct-mapped entries, 8 bytes each).
const bypassTableBits = 8

// Bypass is the bypass-low-reuse L1 fill policy. It predicts streaming
// (single-touch) lines and routes their fills around the L1, per the
// bypass schemes in the Mutlu et al. survey: the first miss on a line
// bypasses; a line that misses again while its tag is still in the
// small recent-miss table has demonstrated reuse and is allocated
// normally. Each SM owns its own table, and the state is
// deterministic, so results stay byte-identical across engines. A nil
// *Bypass is the baseline "always": the core then fills every miss
// and never consults the table.
type Bypass struct {
	tags [1 << bypassTableBits]uint64
}

// ShouldFill is consulted once per primary L1 miss with the line
// address; false routes the fill around the cache.
func (b *Bypass) ShouldFill(line uint64) bool {
	// Line addresses are line-aligned, so bit 0 is free to mark an
	// occupied slot (line 0 is a valid address).
	idx := (line * 0x9E3779B97F4A7C15) >> (64 - bypassTableBits)
	key := line | 1
	if b.tags[idx] == key {
		return true // second touch: reuse detected, allocate
	}
	b.tags[idx] = key
	return false // first touch: predict streaming, bypass
}

// pinHotHits is the pin-hot L2 insertion policy's threshold: a line
// that has served at least this many hits since its fill is part of
// the workload's hot set and is protected from eviction while colder
// candidates exist — a minimal insertion/priority scheme in the spirit
// of the protection policies in the Mutlu et al. survey. The baseline
// "plain" is a threshold of 0: pure replacement.
const pinHotHits = 2

// Set is a config's resolved policies, one plain value per seam,
// built by config.Config.Policies.
type Set struct {
	// Issue picks the warp that issues each slot.
	Issue IssuePolicy
	// Bypass selects the bypass-low-reuse L1 fill policy; false fills
	// every miss. Its table is per-SM state, which core.NewSM
	// allocates.
	Bypass bool
	// PinHits is the L2 insertion policy, the reuse count at which a
	// line is protected from eviction (cache.Config.PinHits); 0 is
	// plain replacement.
	PinHits int64
}

// IssueNames lists the registered issue policies in registry order —
// the valid config Policy.Issue values, embedded in validation errors.
func IssueNames() []string { return []string{IssueGTO, IssueLRR, IssueThrottle} }

// FillNames lists the registered L1 fill policies in registry order.
func FillNames() []string { return []string{FillAlways, FillBypassLowReuse} }

// L2Names lists the registered L2 insertion policies in registry order.
func L2Names() []string { return []string{L2Plain, L2PinHot} }

// NewIssuePolicy resolves an issue-policy name; the error lists the
// registered names (mirroring the api registry's unknown-kind error).
func NewIssuePolicy(name string) (IssuePolicy, error) {
	switch name {
	case IssueGTO:
		return IssuePolicy{}, nil
	case IssueLRR:
		return IssuePolicy{rotate: true}, nil
	case IssueThrottle:
		return IssuePolicy{throttle: true}, nil
	}
	return IssuePolicy{}, fmt.Errorf("policy: unknown issue policy %q (want %s)",
		name, strings.Join(IssueNames(), ", "))
}

// ParseFill resolves an L1 fill-policy name: false for "" or
// "always", true for "bypass-low-reuse". The error lists the
// registered names.
func ParseFill(name string) (bypass bool, err error) {
	switch name {
	case "", FillAlways:
		return false, nil
	case FillBypassLowReuse:
		return true, nil
	}
	return false, fmt.Errorf("policy: unknown L1 fill policy %q (want %s)",
		name, strings.Join(FillNames(), ", "))
}

// NewPinHits resolves an L2 insertion-policy name to its pin
// threshold: 0 for "" or "plain", pinHotHits for "pin-hot". The error
// lists the registered names.
func NewPinHits(name string) (int64, error) {
	switch name {
	case "", L2Plain:
		return 0, nil
	case L2PinHot:
		return pinHotHits, nil
	}
	return 0, fmt.Errorf("policy: unknown L2 insertion policy %q (want %s)",
		name, strings.Join(L2Names(), ", "))
}
