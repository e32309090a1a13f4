package workload

import (
	"slices"
	"testing"
	"testing/quick"
)

// The coalescer is dedupLines: a warp access's line list reduced to
// its distinct lines in first-appearance order.

func TestCoalesceFullyCoalesced(t *testing.T) {
	lines := make([]uint64, 32)
	for i := range lines {
		lines[i] = 0x1000 // every lane inside one 128B line
	}
	if got := dedupLines(lines); !slices.Equal(got, []uint64{0x1000}) {
		t.Fatalf("dedupLines = %#v, want [0x1000]", got)
	}
}

func TestCoalesceFullyScattered(t *testing.T) {
	lines := make([]uint64, 32)
	for i := range lines {
		lines[i] = uint64(i) * 256 // every lane a distinct line
	}
	want := slices.Clone(lines)
	if got := dedupLines(lines); !slices.Equal(got, want) {
		t.Fatalf("scattered access coalesced to %#v, want all 32 lines in order", got)
	}
}

func TestCoalescePreservesFirstAppearanceOrder(t *testing.T) {
	got := dedupLines([]uint64{0x300, 0x100, 0x300, 0x200, 0x100})
	if want := []uint64{0x300, 0x100, 0x200}; !slices.Equal(got, want) {
		t.Fatalf("order: got %#x want %#x", got, want)
	}
}

func TestCoalesceProperty(t *testing.T) {
	// The result is the input's distinct values, each once, in the
	// order of their first appearance.
	prop := func(raw []uint8) bool {
		if len(raw) == 0 {
			return true // an access touches at least one line
		}
		lines := make([]uint64, len(raw))
		var want []uint64
		for i, r := range raw {
			lines[i] = uint64(r%16) * 128
			if !slices.Contains(want, lines[i]) {
				want = append(want, lines[i])
			}
		}
		return slices.Equal(dedupLines(lines), want)
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}
