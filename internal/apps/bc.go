package apps

import (
	"sync/atomic"

	"graphreorder/internal/graph"
	"graphreorder/internal/ligra"
	"graphreorder/internal/par"
)

// runBC uses Brandes' algorithm in the Ligra formulation (Table VII): a
// forward BFS with pull-push direction switching accumulates
// shortest-path counts per level, then a backward sweep over the BFS DAG
// accumulates dependencies.
//
// Push rounds claim levels with CAS and accumulate path counts with
// atomic float adds, so with workers > 1 results match the sequential run
// up to summation order; pull rounds and the backward sweep partition
// destinations/level members, whose updates are single-owner and need no
// atomics.
func runBC(in Input) (Output, error) {
	if err := checkInput(in, 1); err != nil {
		return Output{}, err
	}
	g := in.Graph
	root := in.Roots[0]
	workers := in.Workers
	if in.Tracer != nil {
		workers = 1
	}
	n := g.NumVertices()
	rec := in.newRecorder()
	numPaths := make([]float64, n)
	level := make([]int32, n)
	for v := range level {
		level[v] = -1
	}
	numPaths[root] = 1
	level[root] = 0

	wt := ligra.WriteTracer(in.Tracer)
	frontier := ligra.NewVertexSet(n, root)
	levels := []*ligra.VertexSet{frontier}
	// The per-level frontiers live until the backward sweep has read
	// them; release them together on every exit path so the pool stays
	// warm across runs and cancellations alike. The current frontier is
	// always the last element of levels while the BFS loop runs.
	releaseLevels := func() {
		for _, l := range levels {
			l.Release()
		}
	}
	depth := int32(0)
	for !frontier.Empty() {
		if err := in.canceled(); err != nil {
			releaseLevels()
			return Output{}, err
		}
		depth++
		d := depth
		inFrontier := frontier.Bits()
		fns := ligra.EdgeMapFns{
			// Push claims a destination's level with CAS; exactly one
			// claimer reports it, and same-level contributors (the claimer
			// included) add path counts atomically — the same body at any
			// worker count; each add is a property write to a tracer.
			// numPaths[src] belongs to the previous level and is stable.
			PushList: func(src graph.VertexID, dsts []graph.VertexID, _ graph.WeightList, hits []graph.VertexID) []graph.VertexID {
				paths := numPaths[src]
				for _, dst := range dsts {
					l := atomic.LoadInt32(&level[dst])
					if l == -1 {
						if atomic.CompareAndSwapInt32(&level[dst], -1, d) {
							hits = append(hits, dst)
						}
						l = d // whoever won the claim, it was for this level
					}
					if l == d {
						atomicAddFloat64(&numPaths[dst], paths)
						if wt != nil {
							wt.PropertyWritten(dst)
						}
					}
				}
				return hits
			},
			// Pull: an unvisited destination sums the path counts of its
			// in-neighbors on the frontier, in stored order, and joins
			// this level if it has any. It has one owner: plain accesses.
			PullList: func(dst graph.VertexID, srcs []graph.VertexID) bool {
				var paths float64
				found := false
				for _, src := range srcs {
					if inFrontier.Has(src) {
						paths += numPaths[src]
						found = true
					}
				}
				if found {
					level[dst] = d
					numPaths[dst] = paths
				}
				return found
			},
			Cond: func(dst graph.VertexID) bool { return level[dst] == -1 },
		}
		next := ligra.EdgeMap(g, frontier, fns, ligra.EdgeMapOpts{Trace: in.Tracer, Workers: workers, Ctx: in.Ctx})
		if next == nil {
			releaseLevels()
			return Output{}, in.Ctx.Err()
		}
		rec.round(next.Len(), frontier.OutEdgeSum(g, workers))
		frontier = next
		if !frontier.Empty() {
			levels = append(levels, frontier)
		}
	}

	// Backward sweep: process levels deepest-first, accumulating
	// dependency = sum over successors of numPaths(u)/numPaths(v)*(1+dep(v)).
	// Members of one level are distinct and only read deeper levels'
	// results, so the sweep parallelizes over level members without
	// atomics (edge counting aside).
	// The BFS loop exited on an empty frontier, which was never appended
	// to levels; recycle it here and the level sets after the sweep.
	frontier.Release()
	dep := make([]float64, n)
	var swept atomic.Uint64
	for li := len(levels) - 2; li >= 0; li-- {
		if err := in.canceled(); err != nil {
			releaseLevels()
			return Output{}, err
		}
		members := levels[li].Members()
		par.For(len(members), workers, 1, func(lo, hi int) {
			var scanned uint64
			// One AdjBuffer per chunk: direct sub-slices on the plain
			// backend, a reused decode buffer on compressed ones.
			adj := graph.NewAdjBuffer(g)
			for _, u := range members[lo:hi] {
				var acc float64
				for _, v := range adj.Out(g, u) {
					if level[v] == level[u]+1 && numPaths[v] > 0 {
						acc += numPaths[u] / numPaths[v] * (1 + dep[v])
					}
				}
				scanned += uint64(g.OutDegree(u))
				dep[u] += acc
			}
			swept.Add(scanned)
		})
	}
	rec.edges += swept.Load()
	releaseLevels()
	// Brandes' dependency delta_s(v) is defined for v != s only.
	dep[root] = 0
	var sum float64
	for _, d := range dep {
		sum += d
	}
	return rec.output(dep, sum), nil
}
