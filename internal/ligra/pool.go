package ligra

import (
	"sync"

	"graphreorder/internal/graph"
)

// The frontier pool. An EdgeMap call needs an output VertexSet, a
// transient claim bitset (push) and one neighbor buffer per worker; all
// are recycled here so steady-state iterations of an application loop
// allocate nothing once the pool is warm. Capacity is retained across
// uses and regrown on demand, so a pool shared by graphs of different
// sizes simply converges to the largest.

var (
	vsPool     = sync.Pool{New: func() any { return new(VertexSet) }}
	bitsetPool = sync.Pool{New: func() any { return new(Bitset) }}
	idBufPool  = sync.Pool{New: func() any { return new([]graph.VertexID) }}
	adjPool    = sync.Pool{New: func() any { return new(graph.AdjBuffer) }}
)

// newPooledSparse returns an empty pooled sparse set over n vertices.
func newPooledSparse(n int) *VertexSet {
	s := vsPool.Get().(*VertexSet)
	s.reset(n)
	return s
}

// newPooledDense returns a pooled dense set over n vertices with a zeroed
// bitset.
func newPooledDense(n int) *VertexSet {
	s := vsPool.Get().(*VertexSet)
	s.reset(n)
	s.ensureDense()
	return s
}

// Release returns the set's backing memory to the frontier pool. The set
// must not be used, nor Released again, afterwards. Safe on any
// VertexSet, including ones built by the exported constructors; releasing
// is optional (unreleased sets are ordinary garbage).
func (s *VertexSet) Release() {
	if s == nil {
		return
	}
	s.reset(0)
	vsPool.Put(s)
}

// getScratchBitset returns a zeroed pooled bitset for n bits; hand the
// same pointer back to putScratchBitset when done.
func getScratchBitset(n int) *Bitset {
	p := bitsetPool.Get().(*Bitset)
	words := bitsetWords(n)
	if cap(*p) < words {
		*p = make(Bitset, words)
	} else {
		*p = (*p)[:words]
		p.Clear()
	}
	return p
}

// putScratchBitset recycles a bitset obtained from getScratchBitset.
func putScratchBitset(p *Bitset) {
	if p != nil {
		bitsetPool.Put(p)
	}
}

// getIDBuf returns a pooled vertex-ID buffer (length undefined, reslice
// before use).
func getIDBuf() *[]graph.VertexID { return idBufPool.Get().(*[]graph.VertexID) }

// putIDBuf recycles a buffer from getIDBuf; nil is ignored.
func putIDBuf(p *[]graph.VertexID) {
	if p != nil {
		idBufPool.Put(p)
	}
}

// getAdjBuffer returns a pooled neighbor buffer bound to g when g decodes
// its lists (a graph.NeighborStreamer): the buffer keeps the decode
// storage of whichever graph it served last, so a warm pool decodes
// without allocating. A plain graph lends sub-slices and needs no
// storage: it gets nil, and the caller reads it through a zero AdjBuffer
// of its own. One per goroutine; hand it back to putAdjBuffer.
func getAdjBuffer(g graph.View) *graph.AdjBuffer {
	if _, decodes := g.(graph.NeighborStreamer); !decodes {
		return nil
	}
	a := adjPool.Get().(*graph.AdjBuffer)
	a.Rebind(g)
	return a
}

// putAdjBuffer recycles a buffer from getAdjBuffer; nil is ignored. The
// buffer is unbound first, so the pool does not keep a retired snapshot's
// graph reachable.
func putAdjBuffer(a *graph.AdjBuffer) {
	if a != nil {
		a.Rebind(nil)
		adjPool.Put(a)
	}
}

// frontierMembers returns the frontier's member list, using a pooled
// buffer for dense frontiers (return the second result to putIDBuf when
// done; it is nil for sparse frontiers, which share their own storage).
func frontierMembers(s *VertexSet) ([]graph.VertexID, *[]graph.VertexID) {
	if !s.isDense {
		return s.sparse, nil
	}
	buf := getIDBuf()
	*buf = s.dense.AppendMembers((*buf)[:0])
	return *buf, buf
}
