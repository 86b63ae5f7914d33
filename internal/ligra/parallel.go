package ligra

import (
	"sync/atomic"

	"graphreorder/internal/graph"
	"graphreorder/internal/par"
)

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
