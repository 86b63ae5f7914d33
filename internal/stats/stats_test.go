package stats

import (
	"math"
	"testing"

	"graphreorder/internal/gen"
	"graphreorder/internal/graph"
)

// starGraph returns a star: vertex 0 receives an edge from each of 1..n-1.
func starGraph(t *testing.T, n int) *graph.Graph {
	t.Helper()
	edges := make([]graph.Edge, 0, n-1)
	for v := 1; v < n; v++ {
		edges = append(edges, graph.Edge{Src: graph.VertexID(v), Dst: 0})
	}
	g, err := graph.BuildWith(edges, graph.BuildOptions{NumVertices: n, SortNeighbors: true})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestComputeSkewStar(t *testing.T) {
	g := starGraph(t, 100)
	s := ComputeSkew(g, graph.InDegree)
	// Only vertex 0 has in-degree (99) >= average (0.99): 1% hot, 100% coverage.
	if math.Abs(s.HotFrac-0.01) > 1e-9 {
		t.Errorf("HotFrac = %v, want 0.01", s.HotFrac)
	}
	if s.EdgeCoverage != 1.0 {
		t.Errorf("EdgeCoverage = %v, want 1.0", s.EdgeCoverage)
	}
	// Out-degree is uniform 1 except vertex 0: all 99 sources are hot.
	so := ComputeSkew(g, graph.OutDegree)
	if math.Abs(so.HotFrac-0.99) > 1e-9 {
		t.Errorf("out HotFrac = %v, want 0.99", so.HotFrac)
	}
}

func TestComputeSkewEmpty(t *testing.T) {
	g, _ := graph.Build(nil)
	s := ComputeSkew(g, graph.InDegree)
	if s.HotFrac != 0 || s.EdgeCoverage != 0 {
		t.Errorf("empty graph skew = %+v, want zeros", s)
	}
}

func TestHotFootprintBytes(t *testing.T) {
	g := starGraph(t, 100)
	// One hot vertex (in-degree), 8 bytes each.
	if got := HotFootprintBytes(g, graph.InDegree, 8); got != 8 {
		t.Errorf("footprint = %d, want 8", got)
	}
	if got := HotFootprintBytes(g, graph.InDegree, 16); got != 16 {
		t.Errorf("footprint16 = %d, want 16", got)
	}
}

func TestDegreeRangesPartition(t *testing.T) {
	g, err := gen.Generate(gen.MustDataset("sd", gen.Tiny))
	if err != nil {
		t.Fatal(err)
	}
	bins := DegreeRanges(g, graph.InDegree, 6, 8)
	if len(bins) != 6 {
		t.Fatalf("got %d bins, want 6", len(bins))
	}
	// Bin bounds are geometric: 1,2,4,8,16,32 with last open-ended.
	for i, b := range bins {
		if want := math.Pow(2, float64(i)); b.LoMult != want {
			t.Errorf("bin %d LoMult = %v, want %v", i, b.LoMult, want)
		}
	}
	if !math.IsInf(bins[5].HiMult, 1) {
		t.Error("last bin should be open-ended")
	}
	// Fractions sum to 1 (there is at least one hot vertex in sd).
	var fracSum float64
	total := 0
	for _, b := range bins {
		fracSum += b.FracOfHot
		total += b.Count
	}
	if total == 0 {
		t.Fatal("no hot vertices found in sd")
	}
	if math.Abs(fracSum-1.0) > 1e-9 {
		t.Errorf("fractions sum to %v, want 1", fracSum)
	}
	// Power-law shape: the first bin dominates (paper Table IV: 45%).
	if bins[0].Count <= bins[2].Count {
		t.Errorf("degree ranges not skewed: bin0=%d bin2=%d", bins[0].Count, bins[2].Count)
	}
}

func TestDegreeRangesDegenerateArgs(t *testing.T) {
	g := starGraph(t, 10)
	bins := DegreeRanges(g, graph.InDegree, 0, 0)
	if len(bins) != 1 {
		t.Fatalf("bins=%d, want clamp to 1", len(bins))
	}
	if bins[0].Count != 1 {
		t.Errorf("single bin should hold the one hot vertex, got %d", bins[0].Count)
	}
}

func TestPaperBandsAtSmallScale(t *testing.T) {
	// The synthetic stand-ins should land near the paper's reported bands:
	// Table I: hot 9-26%, coverage 80-94% (Table II's band is checked
	// with its metric, in internal/reorder). Allow generous tolerances;
	// this is a shape check, not exact numbers.
	if testing.Short() {
		t.Skip("dataset sweep is slow")
	}
	for _, name := range gen.SkewedNames() {
		g, err := gen.Generate(gen.MustDataset(name, gen.Small))
		if err != nil {
			t.Fatal(err)
		}
		for _, kind := range []graph.DegreeKind{graph.InDegree, graph.OutDegree} {
			s := ComputeSkew(g, kind)
			if s.HotFrac < 0.02 || s.HotFrac > 0.40 {
				t.Errorf("%s/%s: hot fraction %.3f outside [0.02,0.40]", name, kind, s.HotFrac)
			}
			if s.EdgeCoverage < 0.55 {
				t.Errorf("%s/%s: coverage %.3f < 0.55", name, kind, s.EdgeCoverage)
			}
		}
	}
}
