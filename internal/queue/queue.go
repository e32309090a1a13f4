// Package queue implements the bounded FIFO queues that connect every
// stage of the memory hierarchy. All back pressure in the simulator
// flows through these queues: a full queue refuses Push and the
// upstream stage stalls, exactly the congestion-propagation mechanism
// the paper characterizes.
package queue

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/stats"
)

// Queue is a bounded FIFO with occupancy accounting. It is implemented
// as a ring buffer; the zero value is not usable — construct with New
// (or NewSet). Owners hold queues by value, so a component's queues
// cost one allocation each, their ring buffers; a Queue must not be
// copied once in use.
//
// Occupancy is charged, not sampled: the owner bumps its tick counter
// at the end of each Tick (by n for n skipped ticks), where a per-cycle
// sample would read the length, and each length change or usage read
// first charges the ticks since the last one at the old length.
type Queue[T any] struct {
	buf     []T
	head    int
	size    int
	ticks   *int64 // the owner's tick counter
	charged int64  // usage holds the samples of every tick before this
	usage   stats.QueueUsage
}

// New returns a queue with the given capacity whose occupancy is
// charged against ticks, its owner's tick counter. Capacity must be
// positive and ticks non-nil. name labels the queue's diagnostics and
// usage tracker; owners pass the queue's family ("l2.access"), which
// every instance shares, so naming one allocates nothing.
func New[T any](name string, capacity int, ticks *int64) Queue[T] {
	if capacity <= 0 {
		panic(fmt.Sprintf("queue: capacity must be positive, got %d (%s)", capacity, name))
	}
	return newQueue(name, make([]T, capacity), ticks)
}

// NewSet returns n queues like New's, charged against the same tick
// counter, whose ring buffers share one backing array: a component
// with many identical queues (a crossbar's inputs) builds them in
// three allocations. Queue i is named prefix followed by i; the names
// are cut from one string.
func NewSet[T any](prefix string, n, capacity int, ticks *int64) []Queue[T] {
	if capacity <= 0 {
		panic(fmt.Sprintf("queue: capacity must be positive, got %d (%s)", capacity, prefix))
	}
	var b strings.Builder
	b.Grow(n * (len(prefix) + 2))
	for i := 0; i < n; i++ {
		b.WriteString(prefix)
		b.WriteString(strconv.Itoa(i))
	}
	names := b.String()
	qs := make([]Queue[T], n)
	backing := make([]T, n*capacity)
	for i := range qs {
		l := len(prefix) + decimalLen(i)
		qs[i] = newQueue(names[:l], backing[i*capacity:(i+1)*capacity:(i+1)*capacity], ticks)
		names = names[l:]
	}
	return qs
}

// decimalLen is the number of digits of i >= 0.
func decimalLen(i int) int {
	n := 1
	for ; i >= 10; i /= 10 {
		n++
	}
	return n
}

func newQueue[T any](name string, buf []T, ticks *int64) Queue[T] {
	return Queue[T]{buf: buf, ticks: ticks, usage: *stats.NewQueueUsage(name, len(buf))}
}

// Cap returns the queue capacity.
func (q *Queue[T]) Cap() int { return len(q.buf) }

// Len returns the number of queued items.
func (q *Queue[T]) Len() int { return q.size }

// Empty reports whether the queue holds no items.
func (q *Queue[T]) Empty() bool { return q.size == 0 }

// Full reports whether the queue is at capacity.
func (q *Queue[T]) Full() bool { return q.size == len(q.buf) }

// Free returns the number of unoccupied slots.
func (q *Queue[T]) Free() int { return len(q.buf) - q.size }

// settle charges the ticks since the last charge at the current
// length; call it before the length changes.
func (q *Queue[T]) settle() {
	if n := *q.ticks - q.charged; n > 0 {
		q.usage.SampleN(q.size, n)
		q.charged = *q.ticks
	}
}

// wrap maps a logical index in [0, 2·cap) onto the ring.
func (q *Queue[T]) wrap(i int) int {
	if i >= len(q.buf) {
		i -= len(q.buf)
	}
	return i
}

// Push appends v and reports whether there was room. A false return is
// the back-pressure signal to the caller.
func (q *Queue[T]) Push(v T) bool {
	if q.Full() {
		return false
	}
	q.settle()
	q.buf[q.wrap(q.head+q.size)] = v
	q.size++
	return true
}

// Pop removes and returns the oldest item. ok is false when empty.
func (q *Queue[T]) Pop() (v T, ok bool) {
	if q.size == 0 {
		return v, false
	}
	q.settle()
	v = q.buf[q.head]
	var zero T
	q.buf[q.head] = zero
	q.head = q.wrap(q.head + 1)
	q.size--
	return v, true
}

// Peek returns the oldest item without removing it. ok is false when
// empty.
func (q *Queue[T]) Peek() (v T, ok bool) {
	if q.size == 0 {
		return v, false
	}
	return q.buf[q.head], true
}

// At returns the i-th oldest item (0 = head). It panics when i is out
// of range; schedulers that scan the queue (FR-FCFS) use it with Len.
func (q *Queue[T]) At(i int) T {
	if i < 0 || i >= q.size {
		panic(fmt.Sprintf("queue %s: At(%d) out of range (len %d)", q.usage.Name, i, q.size))
	}
	return q.buf[q.wrap(q.head+i)]
}

// Segments returns the queued items oldest-first as at most two
// contiguous views of the ring buffer (the second is non-nil only
// when the ring wraps). Schedulers that scan every queued item each
// cycle (FR-FCFS) iterate these directly instead of paying At's
// index arithmetic per element. The views alias the queue's storage
// and are invalidated by any mutation.
func (q *Queue[T]) Segments() (a, b []T) {
	if n := q.head + q.size; n <= len(q.buf) {
		return q.buf[q.head:n], nil
	}
	return q.buf[q.head:], q.buf[:q.head+q.size-len(q.buf)]
}

// Remove deletes and returns the i-th oldest item, preserving the
// order of the rest. It panics when i is out of range. FR-FCFS uses
// this to issue row hits from the middle of the scheduler queue.
func (q *Queue[T]) Remove(i int) T {
	if i < 0 || i >= q.size {
		panic(fmt.Sprintf("queue %s: Remove(%d) out of range (len %d)", q.usage.Name, i, q.size))
	}
	q.settle()
	k := q.wrap(q.head + i)
	v := q.buf[k]
	// Shift the tail segment left by one.
	for j := i; j < q.size-1; j++ {
		next := q.wrap(k + 1)
		q.buf[k] = q.buf[next]
		k = next
	}
	var zero T
	q.buf[k] = zero
	q.size--
	return v
}

// Usage returns the occupancy tracker charged through the owner's
// current tick; call it again rather than keeping the pointer.
func (q *Queue[T]) Usage() *stats.QueueUsage {
	q.settle()
	return &q.usage
}

// ResetUsage zeroes the occupancy tracker for a new measurement
// window; queued items are untouched.
func (q *Queue[T]) ResetUsage() {
	q.charged = *q.ticks
	q.usage.Reset()
}
