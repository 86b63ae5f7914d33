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

// runPRD is PageRank-Delta, computed destination-owned: every round is a
// dense pull in which each destination adds contrib[src] over its whole
// in-list — delta/degree for the members of the frontier, zero for
// everyone else, so the frontier needs no test per edge and the division
// happens once per vertex. One worker owns a destination and adds in
// stored in-list order, so the result is bit-identical at any worker count
// and on every backend, and nothing is added by compare-and-swap. The
// price is that a round scans every edge however small the frontier has
// become.
//
// This departs from the paper, which runs PRD push-only (Table VIII): its
// irregular Property Array accesses are unconditional *writes* to
// nghSum[dst], the behaviour behind the coherence traffic of Fig. 9. A
// traced run (Input.Tracer, one worker) executes the same pull, so the
// simulator sees the reads of contrib[src] this code makes, not the
// paper's scattered writes.
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
	nghSum := make([]float64, n)
	// contrib[v] is what v sends along each out-edge this round: its delta
	// over its out-degree while it is active, zero otherwise.
	contrib := make([]float64, n)
	oneOverN := 1.0 / float64(n)
	par.For(n, workers, 1, func(lo, hi int) {
		for v := lo; v < hi; v++ {
			if d := g.OutDegree(graph.VertexID(v)); d > 0 {
				contrib[v] = oneOverN / float64(d)
			}
		}
	})
	fns := ligra.EdgeMapFns{PullList: gatherSum(nghSum, contrib)}
	// Absorb pass: fold the round's sum into the rank, clear it for the
	// next round, and keep the vertices whose new delta is a large
	// enough fraction of their rank. Run over the full set it is a dense
	// VertexMap: 64-aligned chunks, the same frontier at any worker count.
	first := true
	absorb := func(v graph.VertexID) bool {
		delta := prDamping * nghSum[v]
		nghSum[v] = 0
		if first {
			// First round computes the full first-iteration rank, then
			// the delta is measured against the initial 1/n mass, as in
			// Ligra's PR_Vertex_F_FirstRound.
			delta += (1 - prDamping) * oneOverN
			rank[v] += delta
			delta -= oneOverN
		} else {
			rank[v] += delta
		}
		contrib[v] = 0
		if math.Abs(delta) > epsilon*rank[v] && delta != 0 {
			if d := g.OutDegree(v); d > 0 {
				contrib[v] = delta / float64(d)
			}
			return true
		}
		return false
	}
	// The pull's output stays empty (gatherSum joins no destination); the
	// absorb pass refills the frontier.
	full, frontier, out := ligra.FullVertexSet(n), ligra.FullVertexSet(n), new(ligra.VertexSet)
	for iters := 0; iters < maxIters && !frontier.Empty(); iters++ {
		if err := in.canceled(); err != nil {
			return Output{}, err
		}
		// The edges that carry a delta this round.
		roundEdges := frontier.OutEdgeSum(g, workers)
		if !ligra.EdgeMapInto(g, frontier, out, fns,
			ligra.EdgeMapOpts{Dir: ligra.Pull, Trace: in.Tracer, Workers: workers, Ctx: in.Ctx}) {
			return Output{}, in.Ctx.Err()
		}
		ligra.VertexMapInto(full, frontier, absorb, workers)
		first = false
		rec.round(frontier.Len(), roundEdges)
	}
	var mass float64
	for _, r := range rank {
		mass += r
	}
	return rec.output(rank, mass), nil
}
