package dynamic

import (
	"fmt"
	"testing"

	"graphreorder/internal/gen"
	"graphreorder/internal/graph"
	"graphreorder/internal/reorder"
	"graphreorder/internal/rng"
)

// churnBatch builds one removal+reinsertion batch over existing edges, so
// the graph size is steady state across benchmark iterations.
func churnBatch(g *graph.Graph, r *rng.Rand, size int) []Update {
	edges := g.Edges()
	batch := make([]Update, 0, 2*size)
	for i := 0; i < size; i++ {
		e := edges[r.Intn(len(edges))]
		batch = append(batch,
			Update{Remove: true, Edge: e},
			Update{Edge: e})
	}
	return batch
}

// BenchmarkApplyRemove measures removal throughput — a binary search in
// the CSR plus the bucket's pending edits per removal, and a fold of the
// edits into the CSR whenever they pass the retention bound: each op
// applies a batch of 256 remove+reinsert pairs on an ~57k-edge graph. That the cost does not grow with the graph is
// pinned deterministically by TestRemovalCostIndependentOfEdgeCount.
func BenchmarkApplyRemove(b *testing.B) {
	g, err := gen.Generate(gen.MustDataset("lj", gen.Small))
	if err != nil {
		b.Fatal(err)
	}
	const batchPairs = 256
	d := FromGraph(g)
	r := rng.New(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		batch := churnBatch(g, r, batchPairs)
		b.StartTimer()
		if err := d.Apply(batch); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(d.NumEdges()), "edges")
}

// BenchmarkApplyInsert measures pure insertion batches (the common write
// in the serving path).
func BenchmarkApplyInsert(b *testing.B) {
	g, err := gen.Generate(gen.MustDataset("lj", gen.Small))
	if err != nil {
		b.Fatal(err)
	}
	for _, size := range []int{16, 256} {
		b.Run(fmt.Sprintf("batch%d", size), func(b *testing.B) {
			d := FromGraph(g)
			r := rng.New(7)
			n := d.NumVertices()
			batch := make([]Update, size)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				for j := range batch {
					batch[j] = Update{Edge: graph.Edge{
						Src: graph.VertexID(r.Intn(n)), Dst: graph.VertexID(r.Intn(n)), Weight: 1}}
				}
				b.StartTimer()
				if err := d.Apply(batch); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkReordererView measures the two publish paths the serving
// refresher alternates between: the cheap stale-permutation view (every
// op patches the previous view from the edit log) and the full periodic
// re-reorder.
func BenchmarkReordererView(b *testing.B) {
	g, err := gen.Generate(gen.MustDataset("lj", gen.Small))
	if err != nil {
		b.Fatal(err)
	}
	bench := func(b *testing.B, every int) {
		d := FromGraph(g)
		r := NewReorderer(reorder.NewDBG(), graph.OutDegree, Policy{Every: every})
		if _, _, err := r.View(d); err != nil {
			b.Fatal(err)
		}
		rnd := rng.New(3)
		n := d.NumVertices()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			if err := d.Apply([]Update{{Edge: graph.Edge{
				Src: graph.VertexID(rnd.Intn(n)), Dst: graph.VertexID(rnd.Intn(n)), Weight: 1}}}); err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
			if _, _, err := r.View(d); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(r.Refreshes), "refreshes")
	}
	b.Run("relabel", func(b *testing.B) { bench(b, 0) }) // never re-reorder: pure stale-path cost
	b.Run("refresh", func(b *testing.B) { bench(b, 1) }) // re-reorder every batch: full cost
}
