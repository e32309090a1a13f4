package queue

// Ring is an unbounded FIFO scratch buffer built on a reusable ring
// buffer. Components use it for internal pipeline stages (hit pipes,
// fill pipes, pending-response lists) that were previously `append` +
// head-reslice slices: those leak capacity forward and reallocate
// every few traversals, while a Ring reaches its steady-state
// capacity once and then never allocates again.
//
// Unlike Queue it has no capacity bound, no occupancy tracker and no
// back-pressure semantics; it is deliberately minimal. The zero value
// is ready to use. Its capacity is always a power of two, so indices
// wrap with a mask.
type Ring[T any] struct {
	buf  []T
	head int
	size int
}

// Len returns the number of buffered items.
func (r *Ring[T]) Len() int { return r.size }

// Empty reports whether the ring holds no items.
func (r *Ring[T]) Empty() bool { return r.size == 0 }

// Push appends v, growing the buffer if needed.
func (r *Ring[T]) Push(v T) {
	if r.size == len(r.buf) {
		r.grow()
	}
	r.buf[(r.head+r.size)&(len(r.buf)-1)] = v
	r.size++
}

// Pop removes and returns the oldest item. ok is false when empty.
func (r *Ring[T]) Pop() (v T, ok bool) {
	if r.size == 0 {
		return v, false
	}
	v = r.buf[r.head]
	var zero T
	r.buf[r.head] = zero
	r.head = (r.head + 1) & (len(r.buf) - 1)
	r.size--
	return v, true
}

// Peek returns the oldest item without removing it. ok is false when
// empty.
func (r *Ring[T]) Peek() (v T, ok bool) {
	if r.size == 0 {
		return v, false
	}
	return r.buf[r.head], true
}

// grow doubles the buffer, compacting the live items to the front.
func (r *Ring[T]) grow() {
	next := make([]T, max(2*len(r.buf), 8))
	for i := 0; i < r.size; i++ {
		next[i] = r.buf[(r.head+i)&(len(r.buf)-1)]
	}
	r.buf = next
	r.head = 0
}
