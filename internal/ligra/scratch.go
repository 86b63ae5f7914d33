package ligra

import (
	"sync"

	"graphreorder/internal/graph"
	"graphreorder/internal/par"
)

// scratch is what a round needs beyond its input and output sets: the
// push claim bitset, the member list of a dense push frontier, the
// per-chunk ID buffers of a parallel gather and the neighbor buffers of
// its goroutines, at most one per worker. A round that uses it takes it
// from its input set — from its output when the input has none, as when
// PR pulls from the same full set every iteration — and leaves it on the
// output, so the sets of one frontier lineage share one scratch and an
// application that refills its sets (EdgeMapInto, VertexMapInto) stops
// allocating once the buffers have grown. The scratch is garbage with
// the sets that hold it: nothing outlives a run.
type scratch struct {
	claimed Bitset
	members []graph.VertexID
	chunks  [][]graph.VertexID

	mu  sync.Mutex
	adj []*graph.AdjBuffer
}

// takeScratch moves the lineage's scratch from in to out, making one if
// neither set holds any.
func takeScratch(in, out *VertexSet) *scratch {
	sc := in.scratch
	if sc == nil {
		sc = out.scratch
	}
	if sc == nil {
		sc = new(scratch)
	}
	in.scratch, out.scratch = nil, sc
	return sc
}

// adjBuffer lends one goroutine a neighbor buffer bound to g: it keeps
// the decode storage it grew on a compressed graph and lends sub-slices
// on a plain one. Hand it back to putAdjBuffer.
func (sc *scratch) adjBuffer(g graph.View) *graph.AdjBuffer {
	sc.mu.Lock()
	var a *graph.AdjBuffer
	if k := len(sc.adj); k > 0 {
		a = sc.adj[k-1]
		sc.adj = sc.adj[:k-1]
	} else {
		a = new(graph.AdjBuffer)
	}
	sc.mu.Unlock()
	a.Rebind(g)
	return a
}

// putAdjBuffer returns a buffer from adjBuffer, unbound, so a set kept
// past its run does not keep the graph reachable.
func (sc *scratch) putAdjBuffer(a *graph.AdjBuffer) {
	a.Rebind(nil)
	sc.mu.Lock()
	sc.adj = append(sc.adj, a)
	sc.mu.Unlock()
}

// frontierMembers returns the frontier's member list: its own storage
// when sparse, the scratch's member buffer filled from the bitset when
// dense.
func (sc *scratch) frontierMembers(s *VertexSet) []graph.VertexID {
	if !s.isDense {
		return s.sparse
	}
	sc.members = s.dense.AppendMembers(sc.members[:0])
	return sc.members
}

// gather partitions [0, n) across workers, runs body over each chunk
// into that chunk's buffer, and appends the buffers to out in chunk
// order. Concatenating in chunk order makes the output order a
// deterministic function of what body produces per chunk (exactly the
// input order, for a pure filter).
func (sc *scratch) gather(n, workers int, out []graph.VertexID, body func(lo, hi int, local []graph.VertexID) []graph.VertexID) []graph.VertexID {
	numChunks := par.NumChunks(n, workers, 1)
	for len(sc.chunks) < numChunks {
		sc.chunks = append(sc.chunks, nil)
	}
	chunks := sc.chunks[:numChunks]
	par.ForChunks(n, workers, 1, func(chunk, lo, hi int) {
		chunks[chunk] = body(lo, hi, chunks[chunk][:0])
	})
	for _, c := range chunks {
		out = append(out, c...)
	}
	return out
}
