package ligra

import (
	"sync/atomic"

	"graphreorder/internal/graph"
	"graphreorder/internal/par"
)

// gatherIDs partitions [0, n) across workers, runs gather over each chunk
// with a pooled scratch buffer, and appends the per-chunk results to out
// in chunk order before recycling the buffers. Concatenating in chunk
// order means the output order is a deterministic function of what gather
// produces per chunk (exactly the input order, for a pure filter).
func gatherIDs(n, workers int, out []graph.VertexID, gather func(lo, hi int, local []graph.VertexID) []graph.VertexID) []graph.VertexID {
	numChunks := par.NumChunks(n, workers, 1)
	bufs := make([]*[]graph.VertexID, numChunks)
	par.ForChunks(n, workers, 1, func(chunk, lo, hi int) {
		buf := getIDBuf()
		*buf = gather(lo, hi, (*buf)[:0])
		bufs[chunk] = buf
	})
	for _, buf := range bufs {
		if buf == nil {
			continue
		}
		out = append(out, *buf...)
		putIDBuf(buf)
	}
	return out
}

// parallelOutEdgeSum sums member out-degrees of a dense frontier across
// workers (integer sum: order-independent, so the cached value matches the
// sequential computation exactly).
func parallelOutEdgeSum(g graph.View, members Bitset, workers int) uint64 {
	var total atomic.Uint64
	par.For(g.NumVertices(), workers, 64, func(lo, hi int) {
		var sum uint64
		for v := lo; v < hi; v++ {
			if members.Has(graph.VertexID(v)) {
				sum += uint64(g.OutDegree(graph.VertexID(v)))
			}
		}
		total.Add(sum)
	})
	return total.Load()
}
