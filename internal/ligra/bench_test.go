package ligra

import (
	"runtime"
	"testing"

	"graphreorder/internal/csrz"
	"graphreorder/internal/gen"
	"graphreorder/internal/graph"
)

// EdgeMap micro-benchmarks on the Small-scale skew dataset. Compare
// seq vs par sub-benchmarks for the multicore speedup (meaningful at
// GOMAXPROCS >= 4) and watch the allocs column: steady-state sequential
// iterations must report 0 allocs/op, refilling one output set.

func benchGraph(b *testing.B) *graph.Graph {
	b.Helper()
	g, err := gen.Generate(gen.MustDataset("sd", gen.Small))
	if err != nil {
		b.Fatal(err)
	}
	return g
}

// benchFns are the two forms of one update: activate every destination
// whose ID is a multiple of four. The per-edge form reaches the kernels
// through the adapter; the list form runs the equivalent loop itself,
// frontier test included, so the difference between the two is the cost
// of going edge by edge through a function value.
func benchFns(frontier *VertexSet, lists bool) EdgeMapFns {
	if !lists {
		return EdgeMapFns{Update: func(_, dst graph.VertexID) bool { return dst%4 == 0 }}
	}
	inFrontier := frontier.Bits()
	return EdgeMapFns{
		PullList: func(dst graph.VertexID, srcs []graph.VertexID) bool {
			joined := false
			for _, src := range srcs {
				if inFrontier.Has(src) && dst%4 == 0 {
					joined = true
				}
			}
			return joined
		},
		PushList: func(_ graph.VertexID, dsts []graph.VertexID, _ graph.WeightList, hits []graph.VertexID) []graph.VertexID {
			for _, dst := range dsts {
				if dst%4 == 0 {
					hits = append(hits, dst)
				}
			}
			return hits
		},
	}
}

// benchEdgeMap runs the four sub-benchmarks of one direction on one
// backend — per-edge and list callbacks, one worker and GOMAXPROCS — and
// reports ns/edge next to ns/op: a pull examines every in-edge, a push
// the frontier's out-edges.
func benchEdgeMap(b *testing.B, g graph.View, frontier *VertexSet, dir Direction) {
	edges := uint64(g.NumEdges())
	if dir == Push {
		edges = frontier.OutEdgeSum(g, 1)
	}
	for _, bc := range []struct {
		name    string
		lists   bool
		workers int
	}{
		{"seq", false, 1}, {"par", false, runtime.GOMAXPROCS(0)},
		{"list/seq", true, 1}, {"list/par", true, runtime.GOMAXPROCS(0)},
	} {
		b.Run(bc.name, func(b *testing.B) {
			fns := benchFns(frontier, bc.lists)
			opts := EdgeMapOpts{Dir: dir, Workers: bc.workers}
			out := new(VertexSet)
			EdgeMapInto(g, frontier, out, fns, opts) // grow out and its scratch
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				EdgeMapInto(g, frontier, out, fns, opts)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(edges), "ns/edge")
		})
	}
}

func BenchmarkEdgeMapPull(b *testing.B) {
	g := benchGraph(b)
	benchEdgeMap(b, g, FullVertexSet(g.NumVertices()), Pull)
}

// BenchmarkEdgeMapPullCompressed is BenchmarkEdgeMapPull over the
// delta+varint backend: the same kernel, fed from a decode buffer instead
// of the stored sub-slice, so the difference between the two is the cost
// of decoding. That the decode stays allocation-free is pinned by
// TestEdgeMapSteadyStateZeroAlloc, not by timing this.
func BenchmarkEdgeMapPullCompressed(b *testing.B) {
	cz := csrz.Encode(benchGraph(b))
	benchEdgeMap(b, cz, FullVertexSet(cz.NumVertices()), Pull)
}

// benchPushFrontier is every eighth vertex: a sparse frontier large
// enough to time.
func benchPushFrontier(n int) *VertexSet {
	members := make([]graph.VertexID, 0, n/8)
	for v := 0; v < n; v += 8 {
		members = append(members, graph.VertexID(v))
	}
	return NewVertexSet(n, members...)
}

func BenchmarkEdgeMapPush(b *testing.B) {
	g := benchGraph(b)
	benchEdgeMap(b, g, benchPushFrontier(g.NumVertices()), Push)
}

func BenchmarkEdgeMapPushCompressed(b *testing.B) {
	cz := csrz.Encode(benchGraph(b))
	benchEdgeMap(b, cz, benchPushFrontier(cz.NumVertices()), Push)
}
