package apps

import (
	"math"
	"testing"

	"graphreorder/internal/gen"
	"graphreorder/internal/graph"
)

func TestSlicedPageRankMatchesPageRank(t *testing.T) {
	g, err := gen.Generate(gen.MustDataset("wl", gen.Tiny))
	if err != nil {
		t.Fatal(err)
	}
	wantOut := mustRun(t, runPR, Input{Graph: g, MaxIters: 8})
	want, iters := wantOut.Values.([]float64), wantOut.Iterations
	for _, slice := range []int{0, 64, 1000, g.NumVertices(), g.NumVertices() * 2} {
		got, gotIters, edges := SlicedPageRank(g, slice, 8)
		if gotIters != iters {
			// PageRank may stop early on its tolerance; SlicedPageRank
			// runs fixed iterations, so compare a fixed-iteration run.
			want = mustRun(t, runPR, Input{Graph: g, MaxIters: gotIters}).Values.([]float64)
		}
		if edges == 0 {
			t.Fatalf("slice=%d: traversed no edges", slice)
		}
		for v := range want {
			if math.Abs(got[v]-want[v]) > 1e-9 {
				t.Fatalf("slice=%d: rank[%d] = %v, want %v", slice, v, got[v], want[v])
			}
		}
	}
}

func TestSlicedPageRankDegenerate(t *testing.T) {
	empty, _ := graph.Build(nil)
	if r, _, _ := SlicedPageRank(empty, 16, 3); r != nil {
		t.Error("empty graph should return nil ranks")
	}
}

func TestNumSlices(t *testing.T) {
	g, err := graph.BuildWith(nil, graph.BuildOptions{NumVertices: 100})
	if err != nil {
		t.Fatal(err)
	}
	if NumSlices(g, 30) != 4 {
		t.Errorf("NumSlices = %d, want 4", NumSlices(g, 30))
	}
	if NumSlices(g, 0) != 1 {
		t.Errorf("NumSlices(0) = %d, want 1", NumSlices(g, 0))
	}
}

func BenchmarkSlicedPageRank(b *testing.B) {
	g, err := gen.Generate(gen.MustDataset("sd", gen.Small))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		SlicedPageRank(g, 4096, 3)
	}
}
