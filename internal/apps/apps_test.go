package apps

import (
	"math"
	"testing"

	"graphreorder/internal/gen"
	"graphreorder/internal/graph"
	"graphreorder/internal/reorder"
)

// mustRun executes one application's run function and fails the test on
// an input error.
func mustRun(t testing.TB, run func(Input) (Output, error), in Input) Output {
	t.Helper()
	out, err := run(in)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// diamond returns a small weighted DAG with known shortest paths:
//
//	0 -(1)-> 1 -(1)-> 3
//	0 -(4)-> 2 -(1)-> 3,  3 -(2)-> 4
func diamond(t *testing.T) *graph.Graph {
	t.Helper()
	g, err := graph.BuildWith([]graph.Edge{
		{Src: 0, Dst: 1, Weight: 1},
		{Src: 0, Dst: 2, Weight: 4},
		{Src: 1, Dst: 3, Weight: 1},
		{Src: 2, Dst: 3, Weight: 1},
		{Src: 3, Dst: 4, Weight: 2},
	}, graph.BuildOptions{NumVertices: 5, Weighted: true, SortNeighbors: true})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestSSSPDiamond(t *testing.T) {
	g := diamond(t)
	dist := mustRun(t, runSSSP, Input{Graph: g, Roots: []graph.VertexID{0}}).Values.([]int64)
	want := []int64{0, 1, 4, 2, 4}
	for v, d := range want {
		if dist[v] != d {
			t.Errorf("dist[%d] = %d, want %d", v, dist[v], d)
		}
	}
}

func TestSSSPUnreachable(t *testing.T) {
	g, err := graph.BuildWith([]graph.Edge{{Src: 0, Dst: 1, Weight: 3}},
		graph.BuildOptions{NumVertices: 4, Weighted: true})
	if err != nil {
		t.Fatal(err)
	}
	dist := mustRun(t, runSSSP, Input{Graph: g, Roots: []graph.VertexID{0}}).Values.([]int64)
	if dist[2] != InfDistance || dist[3] != InfDistance {
		t.Error("unreachable vertices should stay at InfDistance")
	}
}

func TestSSSPRequiresWeights(t *testing.T) {
	g, _ := graph.Build([]graph.Edge{{Src: 0, Dst: 1}})
	if _, err := runSSSP(Input{Graph: g, Roots: []graph.VertexID{0}}); err == nil {
		t.Error("unweighted graph accepted")
	}
}

// refDijkstra is an O(V^2) reference shortest-path implementation.
func refDijkstra(g *graph.Graph, root graph.VertexID) []int64 {
	n := g.NumVertices()
	dist := make([]int64, n)
	done := make([]bool, n)
	for v := range dist {
		dist[v] = InfDistance
	}
	dist[root] = 0
	for i := 0; i < n; i++ {
		u, best := -1, int64(InfDistance)
		for v := 0; v < n; v++ {
			if !done[v] && dist[v] < best {
				u, best = v, dist[v]
			}
		}
		if u < 0 {
			break
		}
		done[u] = true
		nbrs := g.OutNeighbors(graph.VertexID(u))
		ws := g.OutWeights(graph.VertexID(u))
		for j, v := range nbrs {
			if nd := dist[u] + int64(ws[j]); nd < dist[v] {
				dist[v] = nd
			}
		}
	}
	return dist
}

func TestSSSPAgainstDijkstra(t *testing.T) {
	g, err := gen.Generate(gen.MustDataset("wl", gen.Tiny))
	if err != nil {
		t.Fatal(err)
	}
	root := hubVertex(g)
	got := mustRun(t, runSSSP, Input{Graph: g, Roots: []graph.VertexID{root}}).Values.([]int64)
	want := refDijkstra(g, root)
	for v := range want {
		if got[v] != want[v] {
			t.Fatalf("dist[%d] = %d, want %d", v, got[v], want[v])
		}
	}
}

// hubVertex returns a vertex with high out-degree to use as a root.
func hubVertex(g *graph.Graph) graph.VertexID {
	best := graph.VertexID(0)
	for v := 0; v < g.NumVertices(); v++ {
		if g.OutDegree(graph.VertexID(v)) > g.OutDegree(best) {
			best = graph.VertexID(v)
		}
	}
	return best
}

func TestPageRankProperties(t *testing.T) {
	g, err := gen.Generate(gen.MustDataset("kr", gen.Tiny))
	if err != nil {
		t.Fatal(err)
	}
	rankOut := mustRun(t, runPR, Input{Graph: g})
	rank, iters, edges := rankOut.Values.([]float64), rankOut.Iterations, rankOut.EdgesTraversed
	if iters == 0 || edges == 0 {
		t.Fatal("PageRank did nothing")
	}
	var sum float64
	for _, r := range rank {
		if r < 0 {
			t.Fatal("negative rank")
		}
		sum += r
	}
	// With dangling-mass loss the sum is <= 1 but must stay substantial.
	if sum <= 0.3 || sum > 1.0001 {
		t.Errorf("rank sum %v outside (0.3, 1]", sum)
	}
}

func TestPageRankOnCycleIsUniform(t *testing.T) {
	// On a directed cycle every vertex has identical rank 1/n.
	n := 8
	var edges []graph.Edge
	for v := 0; v < n; v++ {
		edges = append(edges, graph.Edge{Src: graph.VertexID(v), Dst: graph.VertexID((v + 1) % n)})
	}
	g, err := graph.Build(edges)
	if err != nil {
		t.Fatal(err)
	}
	rank := mustRun(t, runPR, Input{Graph: g, MaxIters: 50}).Values.([]float64)
	for v, r := range rank {
		if math.Abs(r-1.0/float64(n)) > 1e-6 {
			t.Errorf("rank[%d] = %v, want %v", v, r, 1.0/float64(n))
		}
	}
}

func TestPageRankDeltaConvergesNearPageRank(t *testing.T) {
	g, err := gen.Generate(gen.MustDataset("wl", gen.Tiny))
	if err != nil {
		t.Fatal(err)
	}
	pr := mustRun(t, runPR, Input{Graph: g, MaxIters: 50}).Values.([]float64)
	prd := mustRun(t, runPRD, Input{Graph: g, MaxIters: 50}).Values.([]float64)
	var prSum, prdSum, diff float64
	for v := range pr {
		prSum += pr[v]
		prdSum += prd[v]
		diff += math.Abs(pr[v] - prd[v])
	}
	if math.Abs(prSum-prdSum) > 0.05*prSum {
		t.Errorf("mass mismatch: PR %v vs PRD %v", prSum, prdSum)
	}
	if diff > 0.05*prSum {
		t.Errorf("L1 distance %v too large vs mass %v", diff, prSum)
	}
}

func TestBCPathCountsOnDiamond(t *testing.T) {
	// Unweighted view of the diamond: two shortest paths 0->3 (via 1, 2).
	// Dependencies from root 0 (Brandes): delta(3) = 1 (for vertex 4),
	// delta(1) = delta(2) = 1/2 * (1 + 1) = 1 each.
	g := diamond(t)
	depOut := mustRun(t, runBC, Input{Graph: g, Roots: []graph.VertexID{0}})
	dep, rounds := depOut.Values.([]float64), depOut.Iterations
	if rounds < 3 {
		t.Fatalf("BC rounds = %d, want >= 3", rounds)
	}
	want := []float64{0, 1, 1, 1, 0}
	for v, w := range want {
		if math.Abs(dep[v]-w) > 1e-9 {
			t.Errorf("dep[%d] = %v, want %v", v, dep[v], w)
		}
	}
}

// refBCSingle is a reference Brandes implementation (BFS + reverse
// accumulation) for a single source.
func refBCSingle(g *graph.Graph, root graph.VertexID) []float64 {
	n := g.NumVertices()
	sigma := make([]float64, n)
	depth := make([]int32, n)
	for v := range depth {
		depth[v] = -1
	}
	sigma[root] = 1
	depth[root] = 0
	var order []graph.VertexID
	queue := []graph.VertexID{root}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		order = append(order, u)
		for _, v := range g.OutNeighbors(u) {
			if depth[v] == -1 {
				depth[v] = depth[u] + 1
				queue = append(queue, v)
			}
			if depth[v] == depth[u]+1 {
				sigma[v] += sigma[u]
			}
		}
	}
	dep := make([]float64, n)
	for i := len(order) - 1; i >= 0; i-- {
		u := order[i]
		for _, v := range g.OutNeighbors(u) {
			if depth[v] == depth[u]+1 && sigma[v] > 0 {
				dep[u] += sigma[u] / sigma[v] * (1 + dep[v])
			}
		}
	}
	dep[root] = 0
	return dep
}

func TestBCAgainstReference(t *testing.T) {
	g, err := gen.Generate(gen.MustDataset("lj", gen.Tiny))
	if err != nil {
		t.Fatal(err)
	}
	root := hubVertex(g)
	got := mustRun(t, runBC, Input{Graph: g, Roots: []graph.VertexID{root}}).Values.([]float64)
	want := refBCSingle(g, root)
	for v := range want {
		if math.Abs(got[v]-want[v]) > 1e-6*(1+math.Abs(want[v])) {
			t.Fatalf("dep[%d] = %v, want %v", v, got[v], want[v])
		}
	}
}

func TestRadiiChain(t *testing.T) {
	// Chain 0->1->2->3: BFS from 0 gives radii estimates equal to depth.
	var edges []graph.Edge
	for v := 0; v < 3; v++ {
		edges = append(edges, graph.Edge{Src: graph.VertexID(v), Dst: graph.VertexID(v + 1)})
	}
	g, err := graph.Build(edges)
	if err != nil {
		t.Fatal(err)
	}
	radiiOut := mustRun(t, runRadii, Input{Graph: g, Roots: []graph.VertexID{0}})
	radii, rounds := radiiOut.Values.([]int32), radiiOut.Iterations
	want := []int32{0, 1, 2, 3}
	for v, w := range want {
		if radii[v] != w {
			t.Errorf("radii[%d] = %d, want %d", v, radii[v], w)
		}
	}
	if rounds != 4 {
		// 3 productive rounds plus the final empty-frontier check round.
		t.Errorf("rounds = %d, want 4", rounds)
	}
}

func TestRadiiMultiSourceTakesUnion(t *testing.T) {
	// Two sources at chain ends: middle vertices reached from both.
	g, err := graph.Build([]graph.Edge{
		{Src: 0, Dst: 1}, {Src: 1, Dst: 2},
		{Src: 3, Dst: 2}, {Src: 2, Dst: 0},
	})
	if err != nil {
		t.Fatal(err)
	}
	radii := mustRun(t, runRadii, Input{Graph: g, Roots: []graph.VertexID{0, 3}}).Values.([]int32)
	for v, r := range radii {
		if r < 0 {
			t.Errorf("vertex %d unreached", v)
		}
	}
}

func TestRadiiEmptyAndNoSamples(t *testing.T) {
	empty, _ := graph.Build(nil)
	if _, err := runRadii(Input{Graph: empty}); err == nil {
		t.Error("Radii without a sample accepted")
	}
}

func TestAllSpecsRunAndChecksumsAreOrderingInvariant(t *testing.T) {
	// The central integration property: every application computes the
	// same (ordering-invariant) result on the original and on every
	// reordered graph, with roots mapped through the permutation.
	g, err := gen.Generate(gen.MustDataset("lj", gen.Tiny))
	if err != nil {
		t.Fatal(err)
	}
	roots := make([]graph.VertexID, 64)
	for i := range roots {
		roots[i] = graph.VertexID((i * 37) % g.NumVertices())
	}
	techniques := []reorder.Technique{
		reorder.SortTechnique{}, reorder.HubSort{}, reorder.HubCluster{},
		reorder.NewDBG(), reorder.RandomVertex{Seed: 5},
	}
	for _, spec := range All() {
		base, err := spec.Run(Input{Graph: g, Roots: roots})
		if err != nil {
			t.Fatalf("%s: %v", spec.Name, err)
		}
		if base.EdgesTraversed == 0 {
			t.Fatalf("%s: traversed no edges", spec.Name)
		}
		for _, tech := range techniques {
			res, err := reorder.PlanOf(tech).Apply(g, spec.ReorderDegree())
			if err != nil {
				t.Fatal(err)
			}
			mapped := make([]graph.VertexID, len(roots))
			for i, r := range roots {
				mapped[i] = res.Perm[r]
			}
			out, err := spec.Run(Input{Graph: res.Graph, Roots: mapped})
			if err != nil {
				t.Fatalf("%s/%s: %v", spec.Name, tech.Name(), err)
			}
			tol := 1e-6 * (1 + math.Abs(base.Checksum))
			if spec.Name == "PRD" {
				// PRD's frontier threshold interacts with float summation
				// order, so allow a looser tolerance.
				tol = 1e-2 * (1 + math.Abs(base.Checksum))
			}
			if math.Abs(out.Checksum-base.Checksum) > tol {
				t.Errorf("%s/%s: checksum %v != base %v", spec.Name, tech.Name(), out.Checksum, base.Checksum)
			}
		}
	}
}

func TestByNameRegistry(t *testing.T) {
	for _, name := range []string{"BC", "SSSP", "PR", "PRD", "Radii"} {
		s, err := ByName(name)
		if err != nil || s.Name != name {
			t.Errorf("ByName(%q) = %v, %v", name, s.Name, err)
		}
	}
	if _, err := ByName("nope"); err == nil {
		t.Error("unknown app accepted")
	}
}

func TestInputValidation(t *testing.T) {
	g := diamond(t)
	if _, err := runSSSP(Input{Graph: g}); err == nil {
		t.Error("SSSP without roots accepted")
	}
	if _, err := runSSSP(Input{Graph: g, Roots: []graph.VertexID{99}}); err == nil {
		t.Error("out-of-range root accepted")
	}
	if _, err := runPR(Input{}); err == nil {
		t.Error("nil graph accepted")
	}
}

// directionTally counts the edges a traced run examines in each
// direction.
type directionTally struct{ pull, push uint64 }

func (d *directionTally) EdgeExamined(_, _ graph.VertexID, pull bool) {
	if pull {
		d.pull++
	} else {
		d.push++
	}
}

func (d *directionTally) VertexVisited(graph.VertexID, bool) {}

// TestReorderKeyFollowsKernel holds every application's reorder degree to
// the §VI-C rule applied to the direction that carries most of its
// examined edges: a pull reads prop[src], so its hot vertices are those
// with high out-degree; a push writes prop[dst], so its hot vertices are
// those with high in-degree.
func TestReorderKeyFollowsKernel(t *testing.T) {
	for _, dataset := range []string{"sd", "lj"} {
		g, err := gen.Generate(gen.MustDataset(dataset, gen.Tiny))
		if err != nil {
			t.Fatal(err)
		}
		roots := make([]graph.VertexID, 64)
		roots[0] = hubVertex(g)
		for i := 1; i < len(roots); i++ {
			roots[i] = graph.VertexID((i * 61) % g.NumVertices())
		}
		for _, spec := range All() {
			var tally directionTally
			if _, err := spec.Run(Input{Graph: g, Roots: roots, Workers: 1, Tracer: &tally}); err != nil {
				t.Fatalf("%s/%s: %v", dataset, spec.Name, err)
			}
			want := graph.InDegree
			if tally.pull > tally.push {
				want = graph.OutDegree
			}
			if got := spec.ReorderDegree(); got != want {
				t.Errorf("%s/%s: reorders by %v, but %d of %d examined edges pull, so §VI-C wants %v",
					dataset, spec.Name, got, tally.pull, tally.pull+tally.push, want)
			}
		}
	}
}

func BenchmarkPageRank(b *testing.B) {
	g, err := gen.Generate(gen.MustDataset("sd", gen.Small))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mustRun(b, runPR, Input{Graph: g, MaxIters: 5})
	}
}

func BenchmarkSSSP(b *testing.B) {
	g, err := gen.Generate(gen.MustDataset("sd", gen.Small))
	if err != nil {
		b.Fatal(err)
	}
	root := hubVertex(g)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := runSSSP(Input{Graph: g, Roots: []graph.VertexID{root}}); err != nil {
			b.Fatal(err)
		}
	}
}
