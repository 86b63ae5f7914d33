package apps

import (
	"sync/atomic"

	"graphreorder/internal/graph"
	"graphreorder/internal/ligra"
)

// radiiSamples is the number of simultaneous BFS sources Radii runs
// (64 fits exactly in one uint64 visited bitmask per vertex, as in the
// Ligra implementation the paper evaluates).
const radiiSamples = 64

// runRadii runs radiiSamples parallel BFS's encoded as per-vertex
// bitmasks (Magnien et al.; Table VII). A vertex's radius estimate is the
// last round in which its visited mask grew. Pull-push direction
// switching, out-degree reordering (Table VIII). Push rounds grow masks
// with an atomic OR; the radius estimates at workers > 1 are identical to
// the sequential run (mask unions are order-independent).
func runRadii(in Input) (Output, error) {
	if err := checkInput(in, 1); err != nil {
		return Output{}, err
	}
	g := in.Graph
	samples := in.Roots
	workers := in.Workers
	if in.Tracer != nil {
		workers = 1
	}
	n := g.NumVertices()
	rec := in.newRecorder()
	radii := make([]int32, n)
	visited := make([]uint64, n)
	nextVisited := make([]uint64, n)
	for v := range radii {
		radii[v] = -1
	}
	if len(samples) > radiiSamples {
		samples = samples[:radiiSamples]
	}
	members := make([]graph.VertexID, 0, len(samples))
	for i, s := range samples {
		visited[s] |= 1 << uint(i)
		radii[s] = 0
		members = append(members, s)
	}
	wt := ligra.WriteTracer(in.Tracer)
	frontier, next := ligra.NewVertexSet(n, members...), new(ligra.VertexSet)
	round := int32(0)
	for !frontier.Empty() {
		if err := in.canceled(); err != nil {
			return Output{}, err
		}
		round++
		r := round
		copy(nextVisited, visited)
		fns := ligra.EdgeMapFns{
			// Push grows a destination's mask with an atomic OR — the same
			// body at any worker count; each growth is a property write to
			// a tracer. Exactly one grower observes the mask still at its
			// start-of-round value: that one reports dst.
			PushList: func(src graph.VertexID, dsts []graph.VertexID, _ graph.WeightList, hits []graph.VertexID) []graph.VertexID {
				mask := visited[src]
				for _, dst := range dsts {
					old := atomicOrUint64(&nextVisited[dst], mask)
					if mask&^old == 0 {
						continue
					}
					atomic.StoreInt32(&radii[dst], r)
					if wt != nil {
						wt.PropertyWritten(dst)
					}
					if old == visited[dst] {
						hits = append(hits, dst)
					}
				}
				return hits
			},
			// Pull ORs the masks of all in-neighbors into a register and
			// writes the destination once, if it grew. No frontier test: a
			// source off the frontier has not grown since the round that
			// delivered its mask to every out-neighbor, so ORing it again
			// changes nothing.
			PullList: func(dst graph.VertexID, srcs []graph.VertexID) bool {
				before := nextVisited[dst]
				mask := before
				for _, src := range srcs {
					mask |= visited[src]
				}
				if mask == before {
					return false
				}
				nextVisited[dst] = mask
				radii[dst] = r
				return true
			},
		}
		if !ligra.EdgeMapInto(g, frontier, next, fns,
			ligra.EdgeMapOpts{Trace: in.Tracer, Workers: workers, Ctx: in.Ctx}) {
			return Output{}, in.Ctx.Err()
		}
		roundEdges := frontier.OutEdgeSum(g, workers)
		visited, nextVisited = nextVisited, visited
		frontier, next = next, frontier
		rec.round(frontier.Len(), roundEdges)
	}
	var sum float64
	for _, r := range radii {
		if r >= 0 {
			sum += float64(r)
		}
	}
	return rec.output(radii, sum), nil
}
