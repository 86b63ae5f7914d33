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
// iterations must report 0 allocs/op thanks to the frontier pool.

func benchGraph(b *testing.B) *graph.Graph {
	b.Helper()
	g, err := gen.Generate(gen.MustDataset("sd", gen.Small))
	if err != nil {
		b.Fatal(err)
	}
	return g
}

func benchEdgeMap(b *testing.B, g graph.View, frontier *VertexSet, dir Direction, workers int) {
	b.Helper()
	fns := EdgeMapFns{Update: func(_, dst graph.VertexID) bool { return dst%4 == 0 }}
	opts := EdgeMapOpts{Dir: dir, Workers: workers}
	EdgeMap(g, frontier, fns, opts).Release() // warm the pool
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		EdgeMap(g, frontier, fns, opts).Release()
	}
}

func BenchmarkEdgeMapPull(b *testing.B) {
	g := benchGraph(b)
	frontier := FullVertexSet(g.NumVertices())
	b.Run("seq", func(b *testing.B) { benchEdgeMap(b, g, frontier, Pull, 1) })
	b.Run("par", func(b *testing.B) { benchEdgeMap(b, g, frontier, Pull, runtime.GOMAXPROCS(0)) })
}

// BenchmarkEdgeMapPullCompressed is BenchmarkEdgeMapPull over the
// delta+varint backend: the same kernel, fed from a decode buffer instead
// of the stored sub-slice, so the difference between the two is the cost
// of decoding. That the decode stays allocation-free is pinned by
// TestEdgeMapSteadyStateZeroAlloc, not by timing this.
func BenchmarkEdgeMapPullCompressed(b *testing.B) {
	cz := csrz.Encode(benchGraph(b))
	frontier := FullVertexSet(cz.NumVertices())
	b.Run("seq", func(b *testing.B) { benchEdgeMap(b, cz, frontier, Pull, 1) })
	b.Run("par", func(b *testing.B) { benchEdgeMap(b, cz, frontier, Pull, runtime.GOMAXPROCS(0)) })
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
	frontier := benchPushFrontier(g.NumVertices())
	b.Run("seq", func(b *testing.B) { benchEdgeMap(b, g, frontier, Push, 1) })
	b.Run("par", func(b *testing.B) { benchEdgeMap(b, g, frontier, Push, runtime.GOMAXPROCS(0)) })
}

func BenchmarkEdgeMapPushCompressed(b *testing.B) {
	cz := csrz.Encode(benchGraph(b))
	frontier := benchPushFrontier(cz.NumVertices())
	b.Run("seq", func(b *testing.B) { benchEdgeMap(b, cz, frontier, Push, 1) })
	b.Run("par", func(b *testing.B) { benchEdgeMap(b, cz, frontier, Push, runtime.GOMAXPROCS(0)) })
}
