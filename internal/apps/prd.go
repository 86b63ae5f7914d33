package apps

import (
	"math"

	"graphreorder/internal/graph"
	"graphreorder/internal/ligra"
	"graphreorder/internal/par"
)

// PRD parameters following Ligra's PageRankDelta: a vertex stays active
// while the change it has accumulated is a sufficiently large fraction of
// its rank.
const (
	prdEpsilon  = 0.01
	prdMaxIters = 20
)

// runPRD is push-based, so the irregular Property Array accesses are
// *writes* to nghSum[dst] — the behaviour behind the coherence traffic of
// Fig. 9. With workers > 1 the push pass runs on multiple cores and the
// nghSum accumulation becomes an atomic float add; the result matches the
// sequential run up to floating-point summation order.
func runPRD(in Input) (Output, error) {
	if err := checkInput(in, 0); err != nil {
		return Output{}, err
	}
	g := in.Graph
	n := g.NumVertices()
	rec := in.newRecorder()
	if n == 0 {
		return rec.output([]float64(nil), 0), nil
	}
	maxIters := in.MaxIters
	if maxIters <= 0 {
		maxIters = prdMaxIters
	}
	epsilon := in.Tolerance
	if epsilon <= 0 {
		epsilon = prdEpsilon
	}
	workers := in.Workers
	if in.Tracer != nil {
		workers = 1
	}
	rank := make([]float64, n)
	delta := make([]float64, n)
	nghSum := make([]float64, n)
	oneOverN := 1.0 / float64(n)
	for v := range delta {
		delta[v] = oneOverN
		rank[v] = 0
	}
	wt := ligra.WriteTracer(in.Tracer)
	// Push pass: scatter each active vertex's delta to its out-neighbors.
	// Irregular writes into nghSum — plain when sequential, CAS adds when
	// the frontier is partitioned across workers.
	update := func(src, dst graph.VertexID) bool {
		if d := g.OutDegree(src); d > 0 {
			nghSum[dst] += delta[src] / float64(d)
			if wt != nil {
				wt.PropertyWritten(dst)
			}
		}
		return false
	}
	if workers > 1 {
		update = func(src, dst graph.VertexID) bool {
			if d := g.OutDegree(src); d > 0 {
				atomicAddFloat64(&nghSum[dst], delta[src]/float64(d))
			}
			return false
		}
	}
	frontier := ligra.FullVertexSet(n)
	for iters := 0; iters < maxIters && !frontier.Empty(); iters++ {
		if err := in.canceled(); err != nil {
			frontier.Release()
			return Output{}, err
		}
		par.For(n, workers, 1, func(lo, hi int) {
			for v := lo; v < hi; v++ {
				nghSum[v] = 0
			}
		})
		roundEdges := frontier.OutEdgeSum(g, workers)
		out := ligra.EdgeMap(g, frontier, ligra.EdgeMapFns{Update: update},
			ligra.EdgeMapOpts{Dir: ligra.Push, Trace: in.Tracer, Workers: workers, Ctx: in.Ctx})
		if out == nil {
			frontier.Release()
			return Output{}, in.Ctx.Err()
		}
		out.Release()

		// Absorb deltas and build the next frontier: vertices whose new
		// delta is a large enough fraction of their rank. Sequential so the
		// frontier keeps ascending order and the run stays deterministic.
		var next []graph.VertexID
		for v := 0; v < n; v++ {
			var nd float64
			if iters == 0 {
				// First round computes the full first-iteration rank, then
				// the delta is measured against the initial 1/n mass, as in
				// Ligra's PR_Vertex_F_FirstRound.
				nd = (1-prDamping)*oneOverN + prDamping*nghSum[v]
				rank[v] += nd
				delta[v] = nd - oneOverN
			} else {
				nd = prDamping * nghSum[v]
				rank[v] += nd
				delta[v] = nd
			}
			if math.Abs(delta[v]) > epsilon*rank[v] && delta[v] != 0 {
				next = append(next, graph.VertexID(v))
			}
		}
		frontier.Release()
		frontier = ligra.NewVertexSet(n, next...)
		rec.round(frontier.Len(), roundEdges)
	}
	frontier.Release()
	var mass float64
	for _, r := range rank {
		mass += r
	}
	return rec.output(rank, mass), nil
}
