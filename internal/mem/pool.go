package mem

// Pool recycles Requests and Packets so the steady-state cycle loop
// allocates nothing. With the full hierarchy every component of one
// simulated GPU draws from and returns to the GPU's single Pool; in
// Fig. 1 (fixed-latency) mode each SM and its port share a Pool of
// their own. It is deliberately NOT safe for concurrent use: a Pool
// is only ever touched by one goroutine at a time — sim.GPU runs the
// full hierarchy on one goroutine, and in Fig. 1 mode runs each SM on
// one goroutine with nothing shared between SMs — and an
// unsynchronized free list keeps Get/Put at a few instructions.
//
// Ownership protocol: exactly one component owns a Request or Packet
// at any time, and the owner at end-of-life returns it with
// PutRequest/PutPacket. The recycle points are:
//
//   - request packets die when the L2 partition pops them from its
//     access queue (the Request inside lives on);
//   - response packets and the L1-merged Requests they answer die in
//     the SM when the fill retires (core.SM via its Recycler);
//   - store Requests die in the L2 at fill time (no response is sent)
//     or, for store hits, at the access queue;
//   - L2 fetch and writeback Requests die when the DRAM channel
//     completes them (fetches die at L2 fill after the return trip).
//
// Get returns a zeroed value; callers fully reinitialize every field
// with a struct literal, so a recycled object is indistinguishable
// from a fresh allocation and reports stay byte-identical.
//
// Growth is chunked (FreeList), so warming a simulation up costs a
// few dozen allocations, not one per live object.
type Pool struct {
	reqs FreeList[Request]
	pkts FreeList[Packet]
}

// FreeListChunk is how many objects a FreeList allocates at once.
const FreeListChunk = 64

// FreeList recycles objects of one type. When it runs dry it
// allocates FreeListChunk objects in one slab and lists them all, and
// its list's capacity grows with them, so a Put never allocates.
// Which object a Get returns is unobservable: Get returns a zeroed
// object, fresh or recycled. The zero value is ready to use; like
// Pool it is not safe for concurrent use.
type FreeList[T any] struct {
	free []*T
	made int // objects allocated so far: the most free can ever hold
}

// Get returns a zeroed object from the list, growing it by one chunk
// when empty.
func (f *FreeList[T]) Get() *T {
	if len(f.free) == 0 {
		f.grow()
	}
	n := len(f.free) - 1
	x := f.free[n]
	f.free = f.free[:n]
	return x
}

// Put zeroes a dead object and lists it for reuse. The caller must
// hold the only live reference.
func (f *FreeList[T]) Put(x *T) {
	var zero T
	*x = zero
	f.free = append(f.free, x)
}

// grow adds one chunk of fresh objects to the (empty) list, first
// enlarging the list, geometrically, to hold every object made.
func (f *FreeList[T]) grow() {
	chunk := make([]T, FreeListChunk)
	f.made += FreeListChunk
	if cap(f.free) < f.made {
		f.free = make([]*T, 0, max(f.made, 2*cap(f.free)))
	}
	for i := range chunk {
		f.free = append(f.free, &chunk[i])
	}
}

// NewPool returns an empty pool.
func NewPool() *Pool { return &Pool{} }

// GetRequest returns a Request from the free list. A nil pool
// degrades to plain allocation, so components constructed without a
// pool (unit tests) behave identically, just slower.
func (p *Pool) GetRequest() *Request {
	if p == nil {
		return &Request{}
	}
	return p.reqs.Get()
}

// PutRequest returns a dead Request to the free list. The caller must
// hold the only live reference.
func (p *Pool) PutRequest(r *Request) {
	if p == nil || r == nil {
		return
	}
	p.reqs.Put(r)
}

// GetPacket returns a Packet from the free list. A nil pool degrades
// to plain allocation.
func (p *Pool) GetPacket() *Packet {
	if p == nil {
		return &Packet{}
	}
	return p.pkts.Get()
}

// PutPacket returns a dead Packet to the free list. The caller must
// hold the only live reference.
func (p *Pool) PutPacket(k *Packet) {
	if p == nil || k == nil {
		return
	}
	p.pkts.Put(k)
}
