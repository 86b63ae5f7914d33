package apps

import (
	"encoding/binary"
	"fmt"
	"math"
	"sync/atomic"

	"graphreorder/internal/graph"
	"graphreorder/internal/ligra"
)

// InfDistance marks unreachable vertices in SSSP results.
const InfDistance = math.MaxInt64

// runSSSP is frontier-based Bellman-Ford over out-edges (push-only,
// Table VIII), as in Ligra's BellmanFord. Weights must be present and
// non-negative.
//
// The irregular Property Array accesses are reads of dist[dst] followed by
// *conditional* writes — SSSP pushes an update only when it found a
// shorter path, which is why the paper finds it generates far less write
// sharing than PRD (§VI-C); a traced run reports each successful
// relaxation as a property write. Relaxation is an atomic min; with
// workers > 1 the final distance vector is identical to the sequential
// one (Bellman-Ford converges to the unique shortest distances), though
// round and edge counts may differ because in-round propagation depends on
// interleaving.
func runSSSP(in Input) (Output, error) {
	if err := checkInput(in, 1); err != nil {
		return Output{}, err
	}
	g := in.Graph
	if !g.Weighted() {
		return Output{}, fmt.Errorf("apps: SSSP requires a weighted graph")
	}
	root := in.Roots[0]
	workers := in.Workers
	if in.Tracer != nil {
		workers = 1
	}
	n := g.NumVertices()
	rec := in.newRecorder()
	dist := make([]int64, n)
	for v := range dist {
		dist[v] = InfDistance
	}
	dist[root] = 0
	// Relax a vertex's whole out-list per call; the kernel hands over its
	// weights (Weights) as stored, read in place after one switch on their
	// width per list. dist[src] is read once: only a self-loop could lower
	// it during the scan, and a non-negative one never does; a concurrent
	// lowering by another worker re-queues src, so nothing is lost to the
	// stale read. The atomic min is the same body at any worker count.
	wt := ligra.WriteTracer(in.Tracer)
	fns := ligra.EdgeMapFns{Weights: true, PushList: func(src graph.VertexID, dsts []graph.VertexID, ws graph.WeightList, hits []graph.VertexID) []graph.VertexID {
		d := atomic.LoadInt64(&dist[src])
		relax := func(dst graph.VertexID, w uint32) {
			if atomicMinInt64(&dist[dst], d+int64(w)) {
				hits = append(hits, dst)
				if wt != nil {
					wt.PropertyWritten(dst)
				}
			}
		}
		b := ws.Bytes
		switch ws.Width {
		case 1:
			b = b[:len(dsts)]
			for i, dst := range dsts {
				relax(dst, uint32(b[i]))
			}
		case 2:
			b = b[:2*len(dsts)]
			for i, dst := range dsts {
				relax(dst, uint32(binary.LittleEndian.Uint16(b[2*i:])))
			}
		default:
			b = b[:4*len(dsts)]
			for i, dst := range dsts {
				relax(dst, binary.LittleEndian.Uint32(b[4*i:]))
			}
		}
		return hits
	}}
	frontier, next := ligra.NewVertexSet(n, root), new(ligra.VertexSet)
	opts := ligra.EdgeMapOpts{Dir: ligra.Push, Trace: in.Tracer, Workers: workers, Ctx: in.Ctx}
	for rounds := 0; !frontier.Empty() && rounds <= n; rounds++ {
		if err := in.canceled(); err != nil {
			return Output{}, err
		}
		roundEdges := frontier.OutEdgeSum(g, workers)
		if !ligra.EdgeMapInto(g, frontier, next, fns, opts) {
			return Output{}, in.Ctx.Err()
		}
		frontier, next = next, frontier
		rec.round(frontier.Len(), roundEdges)
	}
	var sum float64
	reached := 0
	for _, d := range dist {
		if d != InfDistance {
			sum += float64(d)
			reached++
		}
	}
	return rec.output(dist, sum+float64(reached)), nil
}
