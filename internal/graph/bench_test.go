package graph_test

import (
	"runtime"
	"testing"

	"graphreorder/internal/gen"
	"graphreorder/internal/graph"
	"graphreorder/internal/rng"
)

// CSR construction micro-benchmarks on the Small-scale skew dataset.
// seq pins one worker; par uses GOMAXPROCS (identical output either way —
// compare ns/op for the multicore speedup and B/op for the direct
// relabel's zero edge-list claim).

func benchEdges(b testing.TB) ([]graph.Edge, *graph.Graph) {
	b.Helper()
	g, err := gen.Generate(gen.MustDataset("sd", gen.Small))
	if err != nil {
		b.Fatal(err)
	}
	return g.Edges(), g
}

func BenchmarkBuildCSR(b *testing.B) {
	edges, g := benchEdges(b)
	opts := graph.BuildOptions{NumVertices: g.NumVertices(), SortNeighbors: true}
	run := func(workers int) func(*testing.B) {
		return func(b *testing.B) {
			o := opts
			o.Workers = workers
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := graph.BuildWith(edges, o); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
	b.Run("seq", run(1))
	b.Run("par", run(runtime.GOMAXPROCS(0)))
}

func BenchmarkRelabel(b *testing.B) {
	_, g := benchEdges(b)
	n := g.NumVertices()
	perm := make([]graph.VertexID, n)
	for i := range perm {
		perm[i] = graph.VertexID(i)
	}
	r := rng.NewStream(11, 13)
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		perm[i], perm[j] = perm[j], perm[i]
	}
	run := func(workers int) func(*testing.B) {
		return func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := g.RelabelWorkers(perm, workers); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
	b.Run("seq", run(1))
	b.Run("par", run(runtime.GOMAXPROCS(0)))
}

// TestRelabelAllocatesOutputPlusOrderN is the count behind "a relabel
// carries no per-worker O(N) state": beyond the arrays of the graph it
// returns, a parallel RelabelWorkers on sd/small allocates the N-byte
// permutation check and little else, however many workers it is given.
// Its weight array is charged at the width the largest weight needs
// (one byte on sd, whose weights are 1..63), so a relabel that widens
// weights, or decodes them into uint32s, fails here.
func TestRelabelAllocatesOutputPlusOrderN(t *testing.T) {
	edges, g := benchEdges(t)
	n, m := g.NumVertices(), g.NumEdges()
	perm := make([]graph.VertexID, n)
	for i := range perm {
		perm[i] = graph.VertexID(n - 1 - i)
	}
	output := 2*8*(n+1) + 2*4*m
	if g.Weighted() {
		var maxW uint32
		for _, e := range edges {
			maxW = max(maxW, e.Weight)
		}
		wb := 4
		switch {
		case maxW <= 0xFF:
			wb = 1
		case maxW <= 0xFFFF:
			wb = 2
		}
		output += wb * m // one weight array, aligned with the out-edges
	}
	for _, workers := range []int{2, 8} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := g.RelabelWorkers(perm, workers); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		extra := int(after.TotalAlloc-before.TotalAlloc) - output
		t.Logf("workers=%d: output %d B + %d B (N = %d)", workers, output, extra, n)
		if extra > 2*n+16<<10 {
			t.Errorf("workers=%d: %d B beyond the output arrays, want <= 2N + 16 KiB = %d", workers, extra, 2*n+16<<10)
		}
	}
}
