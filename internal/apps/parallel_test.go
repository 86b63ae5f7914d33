package apps

import (
	"math"
	"reflect"
	"slices"
	"testing"

	"graphreorder/internal/gen"
	"graphreorder/internal/graph"
	"graphreorder/internal/rng"
)

// Differential tests: every application must compute the same answer on
// the parallel engine as on the sequential one. Integer-state apps (SSSP
// distances, Radii estimates) and the destination-owned PR and PRD must
// match exactly; BC's float accumulators, fed by parallel push, match up
// to summation order.

func parallelTestGraph(t testing.TB, weighted bool) *graph.Graph {
	t.Helper()
	g, err := gen.Generate(gen.MustDataset("sd", gen.Tiny))
	if err != nil {
		t.Fatal(err)
	}
	if !weighted {
		return g
	}
	r := rng.NewStream(0xABCD, 3)
	edges := g.Edges()
	for i := range edges {
		edges[i].Weight = uint32(1 + r.Intn(32))
	}
	wg, err := graph.BuildWith(edges, graph.BuildOptions{
		NumVertices: g.NumVertices(), Weighted: true, SortNeighbors: false})
	if err != nil {
		t.Fatal(err)
	}
	return wg
}

func pickRoot(g *graph.Graph) graph.VertexID {
	for v := 0; v < g.NumVertices(); v++ {
		if g.OutDegree(graph.VertexID(v)) > 5 {
			return graph.VertexID(v)
		}
	}
	return 0
}

var appTestWorkers = []int{2, 4, 8}

func TestPageRankParallelBitIdentical(t *testing.T) {
	g := parallelTestGraph(t, false)
	wantOut := mustRun(t, runPR, Input{Graph: g, MaxIters: 8})
	want, wantIters, wantEdges := wantOut.Values.([]float64), wantOut.Iterations, wantOut.EdgesTraversed
	for _, w := range appTestWorkers {
		gotOut := mustRun(t, runPR, Input{Graph: g, MaxIters: 8, Workers: w})
		got, iters, edges := gotOut.Values.([]float64), gotOut.Iterations, gotOut.EdgesTraversed
		if iters != wantIters || edges != wantEdges {
			t.Errorf("workers=%d: iters/edges %d/%d, want %d/%d", w, iters, edges, wantIters, wantEdges)
		}
		// Pull-only with destination-partitioned accumulation: the rank
		// vector must be bit-identical, not merely close.
		if !reflect.DeepEqual(got, want) {
			t.Errorf("workers=%d: rank vector not bit-identical to sequential", w)
		}
	}
}

// TestPageRankDeltaParallelEquivalent: PRD executes destination-owned, so
// like PR it owes bit-identity at any worker count — values, checksum,
// iterations, per-round frontiers and edges — not closeness.
func TestPageRankDeltaParallelEquivalent(t *testing.T) {
	g := parallelTestGraph(t, false)
	want := mustRun(t, runPRD, Input{Graph: g, MaxIters: 10})
	if want.Iterations < 3 || want.Frontiers[want.Iterations-1] >= g.NumVertices() {
		t.Fatalf("PRD ran %d rounds with frontiers %v: the frontier never shrank, nothing is tested", want.Iterations, want.Frontiers)
	}
	for _, w := range appTestWorkers {
		got := mustRun(t, runPRD, Input{Graph: g, MaxIters: 10, Workers: w})
		if !reflect.DeepEqual(got, want) {
			t.Errorf("workers=%d: output (%d iters, %d edges, checksum %v) not bit-identical to sequential (%d, %d, %v)",
				w, got.Iterations, got.EdgesTraversed, got.Checksum, want.Iterations, want.EdgesTraversed, want.Checksum)
		}
	}
}

func TestSSSPParallelExactDistances(t *testing.T) {
	g := parallelTestGraph(t, true)
	root := pickRoot(g)
	want := mustRun(t, runSSSP, Input{Graph: g, Roots: []graph.VertexID{root}}).Values.([]int64)
	for _, w := range appTestWorkers {
		got := mustRun(t, runSSSP, Input{Graph: g, Roots: []graph.VertexID{root}, Workers: w}).Values.([]int64)
		// Bellman-Ford converges to the unique shortest distances; rounds
		// may differ (in-round propagation is interleaving-dependent) but
		// distances may not.
		if !reflect.DeepEqual(got, want) {
			t.Errorf("workers=%d: distance vector differs from sequential", w)
		}
	}
}

func TestBCParallelEquivalent(t *testing.T) {
	g := parallelTestGraph(t, false)
	root := pickRoot(g)
	wantOut := mustRun(t, runBC, Input{Graph: g, Roots: []graph.VertexID{root}})
	want, wantRounds := wantOut.Values.([]float64), wantOut.Iterations
	for _, w := range appTestWorkers {
		gotOut := mustRun(t, runBC, Input{Graph: g, Roots: []graph.VertexID{root}, Workers: w})
		got, rounds := gotOut.Values.([]float64), gotOut.Iterations
		if rounds != wantRounds {
			t.Errorf("workers=%d: %d BFS rounds, want %d", w, rounds, wantRounds)
		}
		for v := range want {
			if math.Abs(got[v]-want[v]) > 1e-6*(math.Abs(want[v])+1) {
				t.Fatalf("workers=%d: dep[%d] = %g, want %g", w, v, got[v], want[v])
			}
		}
	}
}

func TestRadiiParallelExact(t *testing.T) {
	g := parallelTestGraph(t, false)
	n := g.NumVertices()
	r := rng.NewStream(0xF00, 1)
	samples := make([]graph.VertexID, 0, 16)
	for len(samples) < 16 {
		v := graph.VertexID(r.Intn(n))
		if g.OutDegree(v) > 0 {
			samples = append(samples, v)
		}
	}
	wantOut := mustRun(t, runRadii, Input{Graph: g, Roots: samples})
	want, wantRounds := wantOut.Values.([]int32), wantOut.Iterations
	for _, w := range appTestWorkers {
		gotOut := mustRun(t, runRadii, Input{Graph: g, Roots: samples, Workers: w})
		got, rounds := gotOut.Values.([]int32), gotOut.Iterations
		if rounds != wantRounds {
			t.Errorf("workers=%d: %d rounds, want %d", w, rounds, wantRounds)
		}
		// Mask unions are order-independent: estimates must match exactly.
		if !reflect.DeepEqual(got, want) {
			t.Errorf("workers=%d: radius estimates differ from sequential", w)
		}
	}
}

// TestSpecsRunParallel drives every Spec through Input.Workers the way the
// harness does, checking checksums against the sequential run.
func TestSpecsRunParallel(t *testing.T) {
	unweighted := parallelTestGraph(t, false)
	weighted := parallelTestGraph(t, true)
	roots := []graph.VertexID{pickRoot(unweighted), 1, 2, 3}
	for _, spec := range All() {
		g := unweighted
		if spec.Name == "SSSP" {
			g = weighted
		}
		seq, err := spec.Run(Input{Graph: g, Roots: roots, MaxIters: 5, Workers: 1})
		if err != nil {
			t.Fatalf("%s sequential: %v", spec.Name, err)
		}
		par, err := spec.Run(Input{Graph: g, Roots: roots, MaxIters: 5, Workers: 4})
		if err != nil {
			t.Fatalf("%s parallel: %v", spec.Name, err)
		}
		if math.Abs(par.Checksum-seq.Checksum) > 1e-6*(math.Abs(seq.Checksum)+1) {
			t.Errorf("%s: parallel checksum %g, sequential %g", spec.Name, par.Checksum, seq.Checksum)
		}
	}
}

// TestPageRankWarmStart: started from the converged ranks of the graph
// four edges ago, PR stops within two iterations, loses no mass, lands no
// farther from the fixed point than a cold run does, and — the start
// being an input like any other — is bit-identical at every worker count.
func TestPageRankWarmStart(t *testing.T) {
	base := parallelTestGraph(t, false)
	n := base.NumVertices()
	edges := base.Edges()
	for v := 0; v < n; v++ { // a ring: no dangling vertex, so mass is conserved
		edges = append(edges, graph.Edge{Src: graph.VertexID(v), Dst: graph.VertexID((v + 1) % n)})
	}
	g, err := graph.BuildWith(edges, graph.BuildOptions{NumVertices: n, SortNeighbors: true})
	if err != nil {
		t.Fatal(err)
	}
	hub := pickRoot(g)
	patched, err := g.Patch([]graph.EdgeEdit{
		{Src: hub, Dst: 1}, {Src: 2, Dst: hub}, {Src: 3, Dst: 4},
		{Src: hub, Dst: g.OutNeighbors(hub)[0], Remove: true},
	}, n, nil)
	if err != nil {
		t.Fatal(err)
	}
	before := mustRun(t, runPR, Input{Graph: g}).Values.([]float64)
	start := slices.Clone(before)

	warmOut := mustRun(t, runPR, Input{Graph: patched, InitialRanks: start})
	coldOut := mustRun(t, runPR, Input{Graph: patched})
	exact := mustRun(t, runPR, Input{Graph: patched, Tolerance: 1e-12, MaxIters: 500}).Values.([]float64)
	warm, cold := warmOut.Values.([]float64), coldOut.Values.([]float64)
	if !slices.Equal(start, before) {
		t.Error("PR modified its InitialRanks")
	}
	if warmOut.Iterations > 2 || coldOut.Iterations <= warmOut.Iterations {
		t.Errorf("warm start took %d iterations (cold: %d), want <= 2", warmOut.Iterations, coldOut.Iterations)
	}
	if math.Abs(warmOut.Checksum-1) > 1e-9 {
		t.Errorf("warm start mass = %.12f, want 1 within 1e-9", warmOut.Checksum)
	}
	l1 := func(a, b []float64) (d float64) {
		for i := range a {
			d += math.Abs(a[i] - b[i])
		}
		return d
	}
	if w, c := l1(warm, exact), l1(cold, exact); w > c {
		t.Errorf("warm start is %.3g (L1) from the fixed point, the cold run %.3g", w, c)
	}
	for _, w := range appTestWorkers {
		got := mustRun(t, runPR, Input{Graph: patched, InitialRanks: start, Workers: w})
		if got.Iterations != warmOut.Iterations || !reflect.DeepEqual(got.Values, warmOut.Values) {
			t.Errorf("workers=%d: warm-started ranks not bit-identical to sequential", w)
		}
	}
	if _, err := runPR(Input{Graph: patched, InitialRanks: start[:n-1]}); err == nil {
		t.Error("PR accepted initial ranks of the wrong length")
	}
}
