package reorder

import (
	"math"
	"sync/atomic"
	"testing"

	"graphreorder/internal/csrz"
	"graphreorder/internal/gen"
	"graphreorder/internal/graph"
)

// starGraph builds a graph whose hot set is exactly the given hub
// vertices: every hub points at enough distinct cold vertices to stay hot.
func qualityFixture(t testing.TB) *graph.Graph {
	t.Helper()
	// 16 vertices, hubs at 0 and 8 (one per cache block under the default
	// 8-per-block layout). Hub degree 6, everyone else 0 or tiny.
	var edges []graph.Edge
	for _, hub := range []graph.VertexID{0, 8} {
		for i := 1; i <= 6; i++ {
			edges = append(edges, graph.Edge{Src: hub, Dst: graph.VertexID((int(hub) + i) % 16)})
		}
	}
	// A couple of cold edges so avg degree stays below hub degree.
	edges = append(edges, graph.Edge{Src: 3, Dst: 4})
	g, err := graph.BuildWith(edges, graph.BuildOptions{NumVertices: 16, SortNeighbors: true})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestEvaluateHandExample(t *testing.T) {
	g := qualityFixture(t)
	// avg degree = 13/16 ≈ 0.81; hot = degree >= avg = every vertex with
	// an out-edge. Vertices 0, 8 (deg 6) and 3 (deg 1) are hot.
	q := Evaluate(g, graph.OutDegree, nil)
	if q.HotVertices != 3 {
		t.Fatalf("hot vertices = %d, want 3", q.HotVertices)
	}
	// Layout blocks (8 vertices each): block 0 holds hot {0, 3}, block 1
	// holds hot {8} -> packing factor (2+1)/2 = 1.5; ideal packs all 3 in
	// one block -> 3.
	if q.PackingFactor != 1.5 {
		t.Errorf("packing factor = %v, want 1.5", q.PackingFactor)
	}
	if q.IdealPackingFactor != 3 {
		t.Errorf("ideal packing factor = %v, want 3", q.IdealPackingFactor)
	}
	if q.PackingUtilization != 0.5 {
		t.Errorf("utilization = %v, want 0.5", q.PackingUtilization)
	}
	if q.HubWorkingSetBytes != 128 || q.MinHubWorkingSetBytes != 64 {
		t.Errorf("hub working set = %d (min %d), want 128 (min 64)",
			q.HubWorkingSetBytes, q.MinHubWorkingSetBytes)
	}
	if got := q.PackingGain(); got != 2 {
		t.Errorf("packing gain = %v, want 2", got)
	}

	// Packing the three hot vertices contiguously reaches the ideal.
	perm := HubCluster{}.PermuteDegrees(g.Degrees(graph.OutDegree), g.AvgDegree())
	packed := Evaluate(g, graph.OutDegree, perm)
	if packed.PackingFactor != 3 || packed.PackingUtilization != 1 {
		t.Errorf("packed layout: factor %v util %v, want 3 and 1",
			packed.PackingFactor, packed.PackingUtilization)
	}
	if packed.PackingGain() != 1 {
		t.Errorf("packed layout gain = %v, want 1", packed.PackingGain())
	}
}

func TestEvaluateNeighborGap(t *testing.T) {
	// A 4-vertex path 0->1->2->3 has every edge at gap 1.
	g, err := graph.Build([]graph.Edge{{Src: 0, Dst: 1}, {Src: 1, Dst: 2}, {Src: 2, Dst: 3}})
	if err != nil {
		t.Fatal(err)
	}
	if gap := Evaluate(g, graph.OutDegree, nil).AvgNeighborGap; gap != 1 {
		t.Errorf("path gap = %v, want 1", gap)
	}
	// Reversing the layout keeps the gap; scattering to {0,3,1,2} does not.
	rev := Permutation{3, 2, 1, 0}
	if gap := Evaluate(g, graph.OutDegree, rev).AvgNeighborGap; gap != 1 {
		t.Errorf("reversed gap = %v, want 1", gap)
	}
	scramble := Permutation{0, 3, 1, 2}
	if gap := Evaluate(g, graph.OutDegree, scramble).AvgNeighborGap; gap <= 1 {
		t.Errorf("scrambled gap = %v, want > 1", gap)
	}
}

// TestAvgNeighborGapHandComputed: the chain 0->1->2 has a mean gap of 1;
// a graph without edges has none to average and reports 0.
func TestAvgNeighborGapHandComputed(t *testing.T) {
	g, err := graph.Build([]graph.Edge{{Src: 0, Dst: 1}, {Src: 1, Dst: 2}})
	if err != nil {
		t.Fatal(err)
	}
	if got := Evaluate(g, graph.OutDegree, nil).AvgNeighborGap; got != 1 {
		t.Errorf("mean gap = %v, want 1", got)
	}
	empty, _ := graph.Build(nil)
	if got := Evaluate(empty, graph.OutDegree, nil).AvgNeighborGap; got != 0 {
		t.Errorf("empty mean gap = %v, want 0", got)
	}
}

// TestPackingFactorHandComputed is Table II's metric by in-degree on 16
// vertices, 8 to a 64 B block: vertices 0 and 1 are hot in block 0 and
// vertex 8 in block 1, so the blocks holding a hot vertex average
// (2+1)/2 = 1.5.
func TestPackingFactorHandComputed(t *testing.T) {
	var edges []graph.Edge
	addIn := func(dst graph.VertexID, k int) {
		for i := 0; i < k; i++ {
			edges = append(edges, graph.Edge{Src: graph.VertexID(2 + i%3), Dst: dst})
		}
	}
	addIn(0, 20)
	addIn(1, 20)
	addIn(8, 20)
	g, err := graph.BuildWith(edges, graph.BuildOptions{NumVertices: 16, SortNeighbors: true})
	if err != nil {
		t.Fatal(err)
	}
	if got := EvaluatePacking(g, graph.InDegree, nil).PackingFactor; got != 1.5 {
		t.Errorf("packing factor = %v, want 1.5", got)
	}
}

// TestPackingFactorEdgeless: a graph without edges has average degree 0,
// which would make every vertex hot (degree >= 0); it has no working set
// to pack, so the report has no hot vertex, a packing factor of 0 and
// nothing left to gain — with vertices or without.
func TestPackingFactorEdgeless(t *testing.T) {
	for _, n := range []int{0, 16} {
		g, err := graph.BuildWith(nil, graph.BuildOptions{NumVertices: n})
		if err != nil {
			t.Fatal(err)
		}
		q := EvaluatePacking(g, graph.InDegree, nil)
		if q.HotVertices != 0 || q.PackingFactor != 0 || q.HubWorkingSetBytes != 0 || q.PackingGain() != 1 {
			t.Errorf("%d vertices, no edges: report %+v, want no hot set", n, q)
		}
	}
}

// TestPackingFactorPaperBand: the synthetic stand-ins land near Table
// II's 1.3-3.5 hot vertices per block at small scale, within [1, 5] —
// a shape check, not exact numbers.
func TestPackingFactorPaperBand(t *testing.T) {
	if testing.Short() {
		t.Skip("dataset sweep is slow")
	}
	for _, name := range gen.SkewedNames() {
		g, err := gen.Generate(gen.MustDataset(name, gen.Small))
		if err != nil {
			t.Fatal(err)
		}
		if pf := EvaluatePacking(g, graph.InDegree, nil).PackingFactor; pf < 1.0 || pf > 5.0 {
			t.Errorf("%s: packing factor %.2f outside [1,5]", name, pf)
		}
	}
}

func TestEvaluatePermMatchesRelabeled(t *testing.T) {
	// Evaluating g under perm must agree with evaluating the physically
	// relabeled graph under the identity: the layout is the same.
	g, err := gen.Generate(gen.MustDataset("lj", gen.Tiny))
	if err != nil {
		t.Fatal(err)
	}
	for _, tech := range []Technique{NewDBG(), SortTechnique{}, RandomVertex{Seed: 9}} {
		perm, err := tech.Permute(g, graph.OutDegree)
		if err != nil {
			t.Fatal(err)
		}
		relabeled, err := g.Relabel(perm)
		if err != nil {
			t.Fatal(err)
		}
		viaPerm := Evaluate(g, graph.OutDegree, perm)
		viaRelabel := Evaluate(relabeled, graph.OutDegree, nil)
		if viaPerm.HotVertices != viaRelabel.HotVertices ||
			viaPerm.PackingFactor != viaRelabel.PackingFactor ||
			viaPerm.HubWorkingSetBytes != viaRelabel.HubWorkingSetBytes {
			t.Errorf("%s: perm view %+v != relabeled view %+v", tech.Name(), viaPerm, viaRelabel)
		}
		if math.Abs(viaPerm.AvgNeighborGap-viaRelabel.AvgNeighborGap) > 1e-6 {
			t.Errorf("%s: gap %v (perm) vs %v (relabeled)",
				tech.Name(), viaPerm.AvgNeighborGap, viaRelabel.AvgNeighborGap)
		}
	}
}

func TestEvaluateOptionsAndDegenerateGraphs(t *testing.T) {
	empty, _ := graph.Build(nil)
	q := Evaluate(empty, graph.OutDegree, nil)
	if q.PackingFactor != 0 || q.HotVertices != 0 || q.PackingGain() != 1 {
		t.Errorf("empty graph report %+v", q)
	}
	single, _ := graph.BuildWith(nil, graph.BuildOptions{NumVertices: 1})
	q = Evaluate(single, graph.OutDegree, nil)
	if q.HotVertices != 0 || q.AvgNeighborGap != 0 {
		t.Errorf("single-vertex report %+v", q)
	}
}

func TestApplyAttachesQuality(t *testing.T) {
	g, err := gen.Generate(gen.MustDataset("sd", gen.Tiny))
	if err != nil {
		t.Fatal(err)
	}
	orig := Evaluate(g, graph.OutDegree, nil)
	res, err := PlanOf(NewDBG()).Apply(g, graph.OutDegree)
	if err != nil {
		t.Fatal(err)
	}
	if res.Quality.PackingFactor <= orig.PackingFactor {
		t.Errorf("DBG packing %v did not improve on original %v",
			res.Quality.PackingFactor, orig.PackingFactor)
	}
	if res.Quality.HotVertices != orig.HotVertices {
		t.Errorf("hot count changed: %d -> %d", orig.HotVertices, res.Quality.HotVertices)
	}
}

// TestApplyReportsPackingOnly: a plan's Result.Quality is the O(V)
// packing report of the graph it returns, at any worker count, with the
// O(E) fields left zero — no Apply pays for a pass its caller may not read.
func TestApplyReportsPackingOnly(t *testing.T) {
	g, err := gen.Generate(gen.MustDataset("sd", gen.Tiny))
	if err != nil {
		t.Fatal(err)
	}
	for _, plan := range []*Plan{PlanOf(NewDBG()), Compose(HubCluster{}, NewDBG()), Compose()} {
		for _, workers := range []int{1, 4} {
			for _, kind := range []graph.DegreeKind{graph.OutDegree, graph.InDegree} {
				res, err := plan.ApplyWorkers(g, kind, workers)
				if err != nil {
					t.Fatal(err)
				}
				if want := EvaluatePacking(res.Graph, kind, nil); res.Quality != want {
					t.Errorf("%s, %d workers, %v: quality %+v, want the packing report %+v",
						plan.Name(), workers, kind, res.Quality, want)
				}
			}
		}
	}
}

// TestEvaluateSplitIsExact: the O(E) half sums integers over edge-balanced
// ranges, so the report is equal field for field (== on the floats) at
// any worker count, on both backends, with and without a permutation; the
// gap equals the one-edge-at-a-time float sum it replaced, and the O(V)
// half alone equals the full report's packing fields.
func TestEvaluateSplitIsExact(t *testing.T) {
	g, err := gen.Generate(gen.MustDataset("sd", gen.Tiny))
	if err != nil {
		t.Fatal(err)
	}
	dbg, err := NewDBG().Permute(g, graph.OutDegree)
	if err != nil {
		t.Fatal(err)
	}
	views := map[string]graph.View{"plain": g, "csrz": csrz.Encode(g)}
	for _, perm := range []Permutation{nil, dbg} {
		pos := func(v graph.VertexID) float64 {
			if perm != nil {
				v = perm[v]
			}
			return float64(v)
		}
		var gapSum float64
		for _, e := range g.Edges() {
			gapSum += math.Abs(pos(e.Src) - pos(e.Dst))
		}
		for name, view := range views {
			want := evaluate(view, graph.OutDegree, perm, 1)
			if want.AvgNeighborGap != gapSum/float64(g.NumEdges()) || want.PredictedAdjBytes == 0 {
				t.Errorf("%s: gap %v, want %v (adjacency bytes %d)", name, want.AvgNeighborGap, gapSum/float64(g.NumEdges()), want.PredictedAdjBytes)
			}
			for _, w := range []int{2, 4, -1} {
				if got := evaluate(view, graph.OutDegree, perm, w); got != want {
					t.Errorf("%s, %d workers: %+v, one worker %+v", name, w, got, want)
				}
			}
			packing := want
			packing.AvgNeighborGap, packing.PredictedAdjBytes, packing.PredictedRatio = 0, 0, 0
			if got := EvaluatePacking(view, graph.OutDegree, perm); got != packing {
				t.Errorf("%s: packing half %+v, full report %+v", name, got, want)
			}
		}
	}
}

// countingView counts the adjacency lists read through it. It embeds the
// plain graph, so it is not a NeighborStreamer and every list access of an
// AdjBuffer arrives at the methods below, as does every weight read.
type countingView struct {
	*graph.Graph
	outReads []atomic.Int32 // per vertex
	others   atomic.Int64   // in-lists and weight lists
}

func (c *countingView) OutNeighbors(v graph.VertexID) []graph.VertexID {
	c.outReads[v].Add(1)
	return c.Graph.OutNeighbors(v)
}

func (c *countingView) InNeighbors(v graph.VertexID) []graph.VertexID {
	c.others.Add(1)
	return c.Graph.InNeighbors(v)
}

func (c *countingView) OutWeightList(v graph.VertexID) graph.WeightList {
	c.others.Add(1)
	return c.Graph.OutWeightList(v)
}

// TestEvaluateReadsEachOutListOnce is the exact successor of a timing
// smoke test: Evaluate's cost is one read of every out-list and nothing
// else of the adjacency, at any worker count, and EvaluatePacking — all
// that Advise reads — touches no list at all.
func TestEvaluateReadsEachOutListOnce(t *testing.T) {
	g, err := gen.Generate(gen.MustDataset("sd", gen.Tiny))
	if err != nil {
		t.Fatal(err)
	}
	dbg, err := NewDBG().Permute(g, graph.OutDegree)
	if err != nil {
		t.Fatal(err)
	}
	for _, perm := range []Permutation{nil, dbg} {
		for _, workers := range []int{1, 2, 4} {
			view := &countingView{Graph: g, outReads: make([]atomic.Int32, g.NumVertices())}
			EvaluatePacking(view, graph.OutDegree, perm)
			for v := range view.outReads {
				if n := view.outReads[v].Load(); n != 0 {
					t.Fatalf("EvaluatePacking read out-list %d %d times", v, n)
				}
			}
			evaluate(view, graph.OutDegree, perm, workers)
			for v := range view.outReads {
				if n := view.outReads[v].Load(); n != 1 {
					t.Fatalf("%d workers: out-list %d read %d times, want 1", workers, v, n)
				}
			}
			if n := view.others.Load(); n != 0 {
				t.Errorf("%d workers: %d in-list or weight reads, want 0", workers, n)
			}
		}
	}
}

// BenchmarkEvaluate measures the quality metrics on sd/small; what they
// may read is pinned exactly by TestEvaluateReadsEachOutListOnce.
func BenchmarkEvaluate(b *testing.B) {
	g, err := gen.Generate(gen.MustDataset("sd", gen.Small))
	if err != nil {
		b.Fatal(err)
	}
	b.Run("identity", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			Evaluate(g, graph.OutDegree, nil)
		}
	})
	perm, err := NewDBG().Permute(g, graph.OutDegree)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("perm", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			Evaluate(g, graph.OutDegree, perm)
		}
	})
}

// TestPredictedRatioIsHonest pins the predictor's central promise: the
// PredictedAdjBytes a quality report computes — from the original graph
// and a permutation alone, or from the relabeled graph a plan returns —
// equals, byte for byte, what the csrz encoder produces after actually
// relabeling and encoding the graph — for the identity layout and for a
// reordering that changes every list.
func TestPredictedRatioIsHonest(t *testing.T) {
	g, err := gen.Generate(gen.MustDataset("lj", gen.Tiny))
	if err != nil {
		t.Fatal(err)
	}
	check := func(name string, q QualityReport, target *graph.Graph) {
		t.Helper()
		st := csrz.Encode(target).Stats()
		if q.PredictedAdjBytes != st.OutAdjBytes {
			t.Errorf("%s: predicted %d adjacency bytes, encoder produced %d",
				name, q.PredictedAdjBytes, st.OutAdjBytes)
		}
		wantRatio := float64(target.NumEdges()) * 4 / float64(st.OutAdjBytes)
		if math.Abs(q.PredictedRatio-wantRatio) > 1e-12 {
			t.Errorf("%s: predicted ratio %v, realized %v", name, q.PredictedRatio, wantRatio)
		}
	}
	check("identity", Evaluate(g, graph.OutDegree, nil), g)
	for _, tech := range []Technique{NewDBG(), HubCluster{}, RandomVertex{Seed: 3}} {
		res, err := PlanOf(tech).Apply(g, graph.OutDegree)
		if err != nil {
			t.Fatal(err)
		}
		check(tech.Name(), Evaluate(res.Graph, graph.OutDegree, nil), res.Graph)
		check(tech.Name()+" (permutation)", Evaluate(g, graph.OutDegree, res.Perm), res.Graph)
	}
}
