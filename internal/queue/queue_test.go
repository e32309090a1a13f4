package queue

import (
	"math/rand/v2"
	"strconv"
	"testing"
	"testing/quick"

	"repro/internal/stats"
)

func TestPushPopFIFO(t *testing.T) {
	q := New[int]("t", 3, new(int64))
	for i := 1; i <= 3; i++ {
		if !q.Push(i) {
			t.Fatalf("push %d failed", i)
		}
	}
	if q.Push(4) {
		t.Fatalf("push into full queue succeeded")
	}
	for i := 1; i <= 3; i++ {
		v, ok := q.Pop()
		if !ok || v != i {
			t.Fatalf("pop = %d,%v want %d", v, ok, i)
		}
	}
	if _, ok := q.Pop(); ok {
		t.Fatalf("pop from empty queue succeeded")
	}
}

func TestWrapAround(t *testing.T) {
	q := New[int]("t", 2, new(int64))
	for round := 0; round < 5; round++ {
		q.Push(round * 2)
		q.Push(round*2 + 1)
		a, _ := q.Pop()
		b, _ := q.Pop()
		if a != round*2 || b != round*2+1 {
			t.Fatalf("round %d: got %d,%d", round, a, b)
		}
	}
}

func TestPeekDoesNotRemove(t *testing.T) {
	q := New[string]("t", 2, new(int64))
	q.Push("a")
	v, ok := q.Peek()
	if !ok || v != "a" {
		t.Fatalf("peek = %q,%v", v, ok)
	}
	if q.Len() != 1 {
		t.Fatalf("peek removed item")
	}
	empty := New[int]("e", 1, new(int64))
	if _, ok := empty.Peek(); ok {
		t.Fatalf("peek on empty should fail")
	}
}

func TestAtAndRemove(t *testing.T) {
	q := New[int]("t", 4, new(int64))
	for i := 0; i < 4; i++ {
		q.Push(i)
	}
	if q.At(2) != 2 {
		t.Fatalf("At(2) = %d", q.At(2))
	}
	got := q.Remove(1)
	if got != 1 {
		t.Fatalf("Remove(1) = %d", got)
	}
	want := []int{0, 2, 3}
	for i, w := range want {
		if q.At(i) != w {
			t.Fatalf("after remove At(%d) = %d, want %d", i, q.At(i), w)
		}
	}
	// Removal must free a slot.
	if !q.Push(9) {
		t.Fatalf("push after remove failed")
	}
	if q.At(3) != 9 {
		t.Fatalf("new tail = %d", q.At(3))
	}
}

func TestRemoveHeadEqualsPop(t *testing.T) {
	q := New[int]("t", 3, new(int64))
	q.Push(7)
	q.Push(8)
	if v := q.Remove(0); v != 7 {
		t.Fatalf("Remove(0) = %d", v)
	}
	v, _ := q.Pop()
	if v != 8 {
		t.Fatalf("pop after remove = %d", v)
	}
}

func TestRemoveWrapped(t *testing.T) {
	q := New[int]("t", 3, new(int64))
	q.Push(1)
	q.Push(2)
	q.Pop() // head now at index 1
	q.Push(3)
	q.Push(4) // buffer wrapped
	if v := q.Remove(1); v != 3 {
		t.Fatalf("Remove(1) wrapped = %d", v)
	}
	a, _ := q.Pop()
	b, _ := q.Pop()
	if a != 2 || b != 4 {
		t.Fatalf("after wrapped remove: %d,%d", a, b)
	}
}

func TestOutOfRangePanics(t *testing.T) {
	q := New[int]("t", 2, new(int64))
	q.Push(1)
	for _, f := range []func(){func() { q.At(1) }, func() { q.Remove(-1) }} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("expected panic")
				}
			}()
			f()
		}()
	}
}

func TestZeroCapacityPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatalf("expected panic for zero capacity")
		}
	}()
	New[int]("bad", 0, new(int64))
}

func TestUsageSampling(t *testing.T) {
	var ticks int64
	q := New[int]("t", 2, &ticks)
	ticks++ // empty
	q.Push(1)
	ticks++ // non-empty
	q.Push(2)
	ticks++ // full
	u := q.Usage()
	if u.SampledCycles() != 3 || u.UsageCycles() != 2 || u.FullCycles() != 1 {
		t.Fatalf("usage: sampled=%d usage=%d full=%d", u.SampledCycles(), u.UsageCycles(), u.FullCycles())
	}
}

// TestUsageMatchesPerTickSampling: charging occupancy when the length
// changes gives exactly the samples a per-tick sampler takes at the end
// of every tick, across pushes, pops, removes, skipped spans, window
// resets and usage reads in the middle of a run.
func TestUsageMatchesPerTickSampling(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 7))
	for trial := 0; trial < 300; trial++ {
		var ticks int64
		capacity := 1 + rng.IntN(6)
		q := New[int]("p", capacity, &ticks)
		ref := stats.NewQueueUsage("p", capacity)
		for op := 0; op < 400; op++ {
			switch rng.IntN(9) {
			case 0, 1:
				q.Push(op)
			case 2:
				q.Pop()
			case 3:
				if q.Len() > 0 {
					q.Remove(rng.IntN(q.Len()))
				}
			case 4, 5: // the owner ends a tick
				ref.SampleN(q.Len(), 1)
				ticks++
			case 6: // the owner skips a frozen span
				n := int64(rng.IntN(6))
				ref.SampleN(q.Len(), n)
				ticks += n
			case 7:
				q.ResetUsage()
				ref.Reset()
			case 8:
				if got := *q.Usage(); got != *ref {
					t.Fatalf("trial %d op %d: usage %+v, want %+v", trial, op, got, *ref)
				}
			}
		}
		if got := *q.Usage(); got != *ref {
			t.Fatalf("trial %d: usage %+v, want %+v", trial, got, *ref)
		}
	}
}

// Property: a queue behaves identically to a reference slice FIFO for
// any sequence of operations.
func TestQueueMatchesReference(t *testing.T) {
	prop := func(ops []uint8) bool {
		q := New[int]("p", 5, new(int64))
		var ref []int
		next := 0
		for _, op := range ops {
			switch op % 3 {
			case 0: // push
				ok := q.Push(next)
				refOK := len(ref) < 5
				if ok != refOK {
					return false
				}
				if ok {
					ref = append(ref, next)
				}
				next++
			case 1: // pop
				v, ok := q.Pop()
				if ok != (len(ref) > 0) {
					return false
				}
				if ok {
					if v != ref[0] {
						return false
					}
					ref = ref[1:]
				}
			case 2: // remove middle
				if len(ref) > 1 {
					i := 1
					v := q.Remove(i)
					if v != ref[i] {
						return false
					}
					ref = append(ref[:i], ref[i+1:]...)
				}
			}
			if q.Len() != len(ref) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkQueueChurn runs one queue alone at saturation, the way an
// L2 access queue sits under a congested crossbar: it stays one short
// of full, and every op is one tick in which one packet leaves (by Pop,
// or by Remove from the middle as FR-FCFS issues a row hit) and one
// arrives. It reports host nanoseconds per packet.
func BenchmarkQueueChurn(b *testing.B) {
	var ticks int64
	q := New[int]("churn", 16, &ticks)
	for i := 0; i < q.Cap()-1; i++ {
		q.Push(i)
	}
	i := 0
	for b.Loop() {
		if i&3 == 0 {
			q.Remove(q.Len() / 2)
		} else {
			q.Pop()
		}
		q.Push(i)
		ticks++
		i++
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/packet")
}

// TestNewSet checks that queues sharing one backing array stay
// independent: each holds its own capacity, FIFO order and usage, and
// carries its indexed name.
func TestNewSet(t *testing.T) {
	var ticks int64
	qs := NewSet[int]("x.in", 12, 2, &ticks)
	for i := range qs {
		if !qs[i].Push(i) || !qs[i].Push(100+i) || qs[i].Push(-1) {
			t.Fatalf("queue %d: capacity is not 2", i)
		}
	}
	ticks = 5
	for i := range qs {
		if v, _ := qs[i].Pop(); v != i {
			t.Fatalf("queue %d: popped %d, want %d", i, v, i)
		}
		if v, _ := qs[i].Peek(); v != 100+i {
			t.Fatalf("queue %d: head %d, want %d", i, v, 100+i)
		}
		u := qs[i].Usage()
		if want := "x.in" + strconv.Itoa(i); u.Name != want {
			t.Errorf("queue %d named %q, want %q", i, u.Name, want)
		}
		if u.SampledCycles() != 5 || u.MeanOccupancy() != 2 {
			t.Errorf("queue %d: usage %+v, want 5 cycles at length 2", i, *u)
		}
	}
}
