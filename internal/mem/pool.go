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
type Pool struct {
	reqs []*Request
	pkts []*Packet
}

// NewPool returns an empty pool.
func NewPool() *Pool { return &Pool{} }

// GetRequest returns a Request from the free list, or a new one. A
// nil pool degrades to plain allocation, so components constructed
// without a pool (unit tests) behave identically, just slower.
func (p *Pool) GetRequest() *Request {
	if p == nil {
		return &Request{}
	}
	if n := len(p.reqs); n > 0 {
		r := p.reqs[n-1]
		p.reqs = p.reqs[:n-1]
		return r
	}
	return &Request{}
}

// PutRequest returns a dead Request to the free list. The caller must
// hold the only live reference.
func (p *Pool) PutRequest(r *Request) {
	if p == nil || r == nil {
		return
	}
	*r = Request{}
	p.reqs = append(p.reqs, r)
}

// GetPacket returns a Packet from the free list, or a new one. A nil
// pool degrades to plain allocation.
func (p *Pool) GetPacket() *Packet {
	if p == nil {
		return &Packet{}
	}
	if n := len(p.pkts); n > 0 {
		k := p.pkts[n-1]
		p.pkts = p.pkts[:n-1]
		return k
	}
	return &Packet{}
}

// PutPacket returns a dead Packet to the free list. The caller must
// hold the only live reference.
func (p *Pool) PutPacket(k *Packet) {
	if p == nil || k == nil {
		return
	}
	*k = Packet{}
	p.pkts = append(p.pkts, k)
}
