package apps

import (
	"fmt"
	"math"

	"graphreorder/internal/graph"
	"graphreorder/internal/ligra"
	"graphreorder/internal/par"
)

// PageRank constants shared by PR and PRD.
const (
	prDamping   = 0.85
	prTolerance = 1e-7
	prMaxIters  = 20
)

// gatherSum is the pull callback PR and PRD share: into[dst] becomes the
// sum of contrib over dst's whole in-list, added from zero in stored
// order in a register; no destination joins the output frontier.
func gatherSum(into, contrib []float64) func(dst graph.VertexID, srcs []graph.VertexID) bool {
	return func(dst graph.VertexID, srcs []graph.VertexID) bool {
		var s float64
		for _, src := range srcs {
			s += contrib[src]
		}
		into[dst] = s
		return false
	}
}

// runPR is the paper's PR workload: each iteration makes one pass to fill
// the contribution array, then one dense pull pass whose reads of
// contrib[src] are the irregular Property Array accesses the reordering
// techniques target (§II-C). workers > 1 parallelizes both passes; the
// pull pass partitions destinations, so sum[dst] accumulates in stored
// in-list order and the rank vector is bit-identical to the sequential
// run, traced or not.
func runPR(in Input) (Output, error) {
	if err := checkInput(in, 0); err != nil {
		return Output{}, err
	}
	g := in.Graph
	n := g.NumVertices()
	if in.InitialRanks != nil && len(in.InitialRanks) != n {
		return Output{}, fmt.Errorf("apps: %d initial ranks for %d vertices", len(in.InitialRanks), n)
	}
	rec := in.newRecorder()
	if n == 0 {
		return rec.output([]float64(nil), 0), nil
	}
	maxIters := in.MaxIters
	if maxIters <= 0 {
		maxIters = prMaxIters
	}
	tol := in.Tolerance
	if tol <= 0 {
		tol = prTolerance
	}
	workers := in.Workers
	if in.Tracer != nil {
		workers = 1
	}
	rank := make([]float64, n)
	contrib := make([]float64, n)
	sum := make([]float64, n)
	if in.InitialRanks != nil {
		copy(rank, in.InitialRanks)
	} else {
		for v := range rank {
			rank[v] = 1.0 / float64(n)
		}
	}
	base := (1 - prDamping) / float64(n)
	// The frontier is every vertex, so a destination's sum is its whole
	// in-list, added in stored order from zero. No destination joins out,
	// which each round refills.
	full, out := ligra.FullVertexSet(n), new(ligra.VertexSet)
	pull := ligra.EdgeMapFns{PullList: gatherSum(sum, contrib)}
	// Fixed-size L1 reduction chunks (worker-count independent; see the
	// apply pass below).
	const l1ChunkSize = 8192
	numChunks := (n + l1ChunkSize - 1) / l1ChunkSize
	partial := make([]float64, numChunks)
	for iters := 0; iters < maxIters; iters++ {
		if err := in.canceled(); err != nil {
			return Output{}, err
		}
		// Per-vertex contribution pass. Dangling vertices (out-degree 0)
		// contribute nothing, as in Ligra's PageRank.
		par.For(n, workers, 1, func(lo, hi int) {
			for v := lo; v < hi; v++ {
				if d := g.OutDegree(graph.VertexID(v)); d > 0 {
					contrib[v] = rank[v] / float64(d)
				} else {
					contrib[v] = 0
				}
				sum[v] = 0
			}
		})
		// Dense pull pass: the irregular reads.
		if !ligra.EdgeMapInto(g, full, out, pull,
			ligra.EdgeMapOpts{Dir: ligra.Pull, Trace: in.Tracer, Workers: workers, Ctx: in.Ctx}) {
			return Output{}, in.Ctx.Err()
		}

		// Apply pass with a fixed-size chunk-ordered L1 reduction: partial
		// deltas combine in chunk order, and the chunking is independent of
		// the worker count, so the convergence test — and therefore the
		// iteration count — is identical on any number of cores.
		par.For(numChunks, workers, 1, func(clo, chi int) {
			for c := clo; c < chi; c++ {
				lo, hi := c*l1ChunkSize, (c+1)*l1ChunkSize
				if hi > n {
					hi = n
				}
				var l1 float64
				for v := lo; v < hi; v++ {
					next := base + prDamping*sum[v]
					l1 += math.Abs(next - rank[v])
					rank[v] = next
				}
				partial[c] = l1
			}
		})
		var l1 float64
		for _, p := range partial {
			l1 += p
		}
		// PR is frontierless: every round drives the full vertex set.
		rec.round(n, uint64(g.NumEdges()))
		if l1 < tol*float64(n) {
			break
		}
	}
	var mass float64
	for _, r := range rank {
		mass += r
	}
	return rec.output(rank, mass), nil
}
