package apps

import (
	"reflect"
	"testing"

	"graphreorder/internal/gen"
	"graphreorder/internal/graph"
)

// Additional behavioural coverage beyond the reference comparisons in
// apps_test.go: degenerate graphs, direction switching, frontier
// convergence, and mask semantics.

func TestPageRankEmptyAndSingleton(t *testing.T) {
	empty, _ := graph.Build(nil)
	if out := mustRun(t, runPR, Input{Graph: empty, MaxIters: 5}); out.Values.([]float64) != nil || out.Iterations != 0 || out.EdgesTraversed != 0 {
		t.Error("empty graph mishandled")
	}
	single, err := graph.BuildWith(nil, graph.BuildOptions{NumVertices: 1})
	if err != nil {
		t.Fatal(err)
	}
	rank := mustRun(t, runPR, Input{Graph: single, MaxIters: 5}).Values.([]float64)
	if len(rank) != 1 || rank[0] <= 0 {
		t.Errorf("singleton rank = %v", rank)
	}
}

func TestPageRankDanglingMassBounded(t *testing.T) {
	// Star out of 0 into sinks: sinks are dangling; mass leaks (as in
	// Ligra's formulation) but every rank stays positive and finite.
	var edges []graph.Edge
	for v := 1; v < 10; v++ {
		edges = append(edges, graph.Edge{Src: 0, Dst: graph.VertexID(v)})
	}
	g, err := graph.Build(edges)
	if err != nil {
		t.Fatal(err)
	}
	rank := mustRun(t, runPR, Input{Graph: g, MaxIters: 30}).Values.([]float64)
	for v, r := range rank {
		if r <= 0 || r > 1 {
			t.Errorf("rank[%d] = %v out of (0,1]", v, r)
		}
	}
	// Sinks all receive identical rank by symmetry.
	for v := 2; v < 10; v++ {
		if rank[v] != rank[1] {
			t.Errorf("asymmetric sink ranks: rank[%d]=%v rank[1]=%v", v, rank[v], rank[1])
		}
	}
}

func TestPRDFrontierShrinks(t *testing.T) {
	g, err := gen.Generate(gen.MustDataset("pl", gen.Tiny))
	if err != nil {
		t.Fatal(err)
	}
	out := mustRun(t, runPRD, Input{Graph: g, MaxIters: 50})
	iters, edges := out.Iterations, out.EdgesTraversed
	if iters == 50 {
		t.Error("PRD did not converge within 50 iterations on a tiny graph")
	}
	// Later iterations process fewer edges than |E|*iters would imply:
	// the frontier must shrink below full after the first few rounds.
	if edges >= uint64(g.NumEdges())*uint64(iters) {
		t.Errorf("frontier never shrank: %d edge-examinations over %d iters on %d edges",
			edges, iters, g.NumEdges())
	}
}

func TestSSSPSelfLoopAndZeroWeightSafe(t *testing.T) {
	g, err := graph.BuildWith([]graph.Edge{
		{Src: 0, Dst: 0, Weight: 1}, // self loop
		{Src: 0, Dst: 1, Weight: 1},
		{Src: 1, Dst: 2, Weight: 1},
	}, graph.BuildOptions{NumVertices: 3, Weighted: true})
	if err != nil {
		t.Fatal(err)
	}
	distOut := mustRun(t, runSSSP, Input{Graph: g, Roots: []graph.VertexID{0}})
	dist, rounds := distOut.Values.([]int64), distOut.Iterations
	if dist[0] != 0 || dist[1] != 1 || dist[2] != 2 {
		t.Errorf("dist = %v", dist)
	}
	if rounds > g.NumVertices()+1 {
		t.Errorf("suspiciously many rounds: %d", rounds)
	}
}

func TestSSSPOnRoadChainDepth(t *testing.T) {
	// Road-like graphs have huge diameters; Bellman-Ford must still
	// terminate in ~diameter rounds, not n.
	var edges []graph.Edge
	n := 300
	for v := 0; v+1 < n; v++ {
		edges = append(edges, graph.Edge{Src: graph.VertexID(v), Dst: graph.VertexID(v + 1), Weight: 2})
	}
	g, err := graph.BuildWith(edges, graph.BuildOptions{NumVertices: n, Weighted: true})
	if err != nil {
		t.Fatal(err)
	}
	distOut := mustRun(t, runSSSP, Input{Graph: g, Roots: []graph.VertexID{0}})
	dist, rounds := distOut.Values.([]int64), distOut.Iterations
	if dist[n-1] != int64(2*(n-1)) {
		t.Errorf("end distance %d, want %d", dist[n-1], 2*(n-1))
	}
	if rounds != n {
		// n-1 productive rounds plus the final empty round.
		t.Errorf("rounds = %d, want %d", rounds, n)
	}
}

func TestBCDisconnectedRootOnlyComponent(t *testing.T) {
	// Root in its own component: zero dependencies everywhere, no panic.
	g, err := graph.BuildWith([]graph.Edge{{Src: 1, Dst: 2}}, graph.BuildOptions{NumVertices: 4})
	if err != nil {
		t.Fatal(err)
	}
	depOut := mustRun(t, runBC, Input{Graph: g, Roots: []graph.VertexID{0}})
	dep, rounds := depOut.Values.([]float64), depOut.Iterations
	if rounds != 1 {
		t.Errorf("rounds = %d, want 1 (immediate empty frontier)", rounds)
	}
	for v, d := range dep {
		if d != 0 {
			t.Errorf("dep[%d] = %v, want 0", v, d)
		}
	}
}

func TestBCDirectionSwitchingConsistency(t *testing.T) {
	// On a dataset big enough to trigger pull mode mid-BFS, the result
	// must match the reference (which is push-only) — this exercises the
	// pull callback of BC.
	g, err := gen.Generate(gen.MustDataset("kr", gen.Tiny))
	if err != nil {
		t.Fatal(err)
	}
	root := hubVertex(g)
	got := mustRun(t, runBC, Input{Graph: g, Roots: []graph.VertexID{root}}).Values.([]float64)
	want := refBCSingle(g, root)
	for v := range want {
		diff := got[v] - want[v]
		if diff < 0 {
			diff = -diff
		}
		if diff > 1e-6*(1+want[v]) {
			t.Fatalf("dep[%d] = %v, want %v", v, got[v], want[v])
		}
	}
}

func TestRadiiSampleCapAt64(t *testing.T) {
	g, err := gen.Generate(gen.MustDataset("wl", gen.Tiny))
	if err != nil {
		t.Fatal(err)
	}
	samples := make([]graph.VertexID, 100) // more than 64
	for i := range samples {
		samples[i] = graph.VertexID(i % g.NumVertices())
	}
	radiiOut := mustRun(t, runRadii, Input{Graph: g, Roots: samples})
	radii, rounds := radiiOut.Values.([]int32), radiiOut.Iterations
	if len(radii) != g.NumVertices() {
		t.Fatal("radii length wrong")
	}
	// Samples beyond 64 are ignored: the result must be identical to
	// passing exactly the first 64.
	radii64Out := mustRun(t, runRadii, Input{Graph: g, Roots: samples[:64]})
	radii64, rounds64 := radii64Out.Values.([]int32), radii64Out.Iterations
	if rounds != rounds64 {
		t.Fatalf("rounds %d != %d with truncated samples", rounds, rounds64)
	}
	for v := range radii {
		if radii[v] != radii64[v] {
			t.Fatalf("radii[%d] = %d != %d with truncated samples", v, radii[v], radii64[v])
		}
	}
}

func TestRadiiEstimateBoundedByDiameter(t *testing.T) {
	// On a cycle of length n, eccentricity estimates from any sample set
	// are at most n.
	n := 32
	var edges []graph.Edge
	for v := 0; v < n; v++ {
		edges = append(edges, graph.Edge{Src: graph.VertexID(v), Dst: graph.VertexID((v + 1) % n)})
	}
	g, err := graph.Build(edges)
	if err != nil {
		t.Fatal(err)
	}
	radiiOut := mustRun(t, runRadii, Input{Graph: g, Roots: []graph.VertexID{0, 5, 9}})
	radii, rounds := radiiOut.Values.([]int32), radiiOut.Iterations
	if rounds > n+1 {
		t.Errorf("rounds %d exceed cycle length", rounds)
	}
	for v, r := range radii {
		if r < 0 || int(r) > n {
			t.Errorf("radii[%d] = %d out of [0,%d]", v, r, n)
		}
	}
}

func TestOutputsAreDeterministic(t *testing.T) {
	g, err := gen.Generate(gen.MustDataset("lj", gen.Tiny))
	if err != nil {
		t.Fatal(err)
	}
	roots := []graph.VertexID{hubVertex(g)}
	for _, spec := range All() {
		o1, err := spec.Run(Input{Graph: g, Roots: roots, MaxIters: 5})
		if err != nil {
			t.Fatal(err)
		}
		o2, err := spec.Run(Input{Graph: g, Roots: roots, MaxIters: 5})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(o1, o2) {
			t.Errorf("%s: non-deterministic output: %+v vs %+v", spec.Name, o1, o2)
		}
	}
}
