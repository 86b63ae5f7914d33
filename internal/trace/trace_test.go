package trace

import (
	"testing"

	"graphreorder/internal/apps"
	"graphreorder/internal/cachesim"
	"graphreorder/internal/gen"
	"graphreorder/internal/graph"
	"graphreorder/internal/reorder"
)

func testMachine() cachesim.Config {
	// Small machine so Tiny datasets still stress the LLC.
	return cachesim.Config{
		Cores:     4,
		Sockets:   2,
		LineBytes: 64,
		L1:        cachesim.CacheConfig{SizeBytes: 1 << 10, Ways: 4},
		L2:        cachesim.CacheConfig{SizeBytes: 4 << 10, Ways: 8},
		L3:        cachesim.CacheConfig{SizeBytes: 8 << 10, Ways: 16},
	}
}

func TestPropertyBytesTableVIII(t *testing.T) {
	if PropertyBytes("PR") != 12 {
		t.Errorf("PR property bytes = %d, want 12", PropertyBytes("PR"))
	}
	for _, app := range []string{"BC", "SSSP", "PRD", "Radii"} {
		if PropertyBytes(app) != 8 {
			t.Errorf("%s property bytes = %d, want 8", app, PropertyBytes(app))
		}
	}
}

func TestMachineForScalesL3(t *testing.T) {
	tiny := MachineFor(gen.Tiny)
	med := MachineFor(gen.Medium)
	if tiny.L3.SizeBytes >= med.L3.SizeBytes {
		t.Errorf("L3 not scaling: tiny %d >= medium %d", tiny.L3.SizeBytes, med.L3.SizeBytes)
	}
	if _, err := cachesim.New(tiny); err != nil {
		t.Errorf("tiny machine invalid: %v", err)
	}
	if _, err := cachesim.New(med); err != nil {
		t.Errorf("medium machine invalid: %v", err)
	}
}

func TestSimulateProducesPlausibleStats(t *testing.T) {
	g, err := gen.Generate(gen.MustDataset("sd", gen.Tiny))
	if err != nil {
		t.Fatal(err)
	}
	pr, err := apps.ByName("PR")
	if err != nil {
		t.Fatal(err)
	}
	st, err := Simulate(pr, g, nil, testMachine(), 3)
	if err != nil {
		t.Fatal(err)
	}
	if st.Accesses == 0 || st.Instructions == 0 {
		t.Fatal("simulation recorded nothing")
	}
	// PR touches ~3 accesses per edge per iteration.
	minAccesses := uint64(g.NumEdges()) * 3
	if st.Accesses < minAccesses {
		t.Errorf("accesses %d < single-iteration floor %d", st.Accesses, minAccesses)
	}
	// Misses must be monotone down the hierarchy.
	if st.L2Misses > st.L1Misses || st.L3Misses > st.L2Misses {
		t.Errorf("miss counts not monotone: %d/%d/%d", st.L1Misses, st.L2Misses, st.L3Misses)
	}
	if st.MPKI(1) <= 0 {
		t.Error("zero L1 MPKI for an irregular workload")
	}
}

func TestReorderingReducesL3MPKIOnUnstructured(t *testing.T) {
	// The core claim of the paper's Fig. 8: on skewed unstructured
	// datasets, skew-aware reordering cuts L3 MPKI for PR.
	g, err := gen.Generate(gen.MustDataset("sd", gen.Small))
	if err != nil {
		t.Fatal(err)
	}
	pr, _ := apps.ByName("PR")
	machine := MachineFor(gen.Small)
	base, err := Simulate(pr, g, nil, machine, 2)
	if err != nil {
		t.Fatal(err)
	}
	res, err := reorder.PlanOf(reorder.NewDBG()).Apply(g, pr.ReorderDegree())
	if err != nil {
		t.Fatal(err)
	}
	dbg, err := Simulate(pr, res.Graph, nil, machine, 2)
	if err != nil {
		t.Fatal(err)
	}
	if dbg.MPKI(3) >= base.MPKI(3) {
		t.Errorf("DBG did not reduce L3 MPKI: %.2f -> %.2f", base.MPKI(3), dbg.MPKI(3))
	}
}

func TestFineGrainReorderingHurtsL1OnStructured(t *testing.T) {
	// Fig. 8's other half: on structured datasets, Sort (fine-grain,
	// structure-destroying) raises L1+L2 misses relative to DBG
	// (coarse-grain, structure-preserving).
	g, err := gen.Generate(gen.MustDataset("mp", gen.Small))
	if err != nil {
		t.Fatal(err)
	}
	pr, _ := apps.ByName("PR")
	machine := MachineFor(gen.Small)
	simulate := func(tech reorder.Technique) cachesim.Stats {
		res, err := reorder.PlanOf(tech).Apply(g, pr.ReorderDegree())
		if err != nil {
			t.Fatal(err)
		}
		st, err := Simulate(pr, res.Graph, nil, machine, 2)
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	sortStats := simulate(reorder.SortTechnique{})
	dbgStats := simulate(reorder.NewDBG())
	if sortStats.MPKI(1) <= dbgStats.MPKI(1) {
		t.Errorf("Sort L1 MPKI %.2f not above DBG's %.2f on structured dataset",
			sortStats.MPKI(1), dbgStats.MPKI(1))
	}
}

func hub(g *graph.Graph) graph.VertexID {
	best := graph.VertexID(0)
	for v := 0; v < g.NumVertices(); v++ {
		if g.OutDegree(graph.VertexID(v)) > g.OutDegree(best) {
			best = graph.VertexID(v)
		}
	}
	return best
}

func TestTracerCursorFollowsCSR(t *testing.T) {
	// On a chain graph the edge cursor must advance one edge per
	// EdgeExamined starting at the vertex's index entry; verify indirectly
	// by checking edge-array accesses are sequential (high hit rate).
	var edges []graph.Edge
	n := 2048
	for v := 0; v+1 < n; v++ {
		edges = append(edges, graph.Edge{Src: graph.VertexID(v), Dst: graph.VertexID(v + 1)})
	}
	g, err := graph.BuildWith(edges, graph.BuildOptions{NumVertices: n, SortNeighbors: true})
	if err != nil {
		t.Fatal(err)
	}
	pr, _ := apps.ByName("PR")
	st, err := Simulate(pr, g, nil, testMachine(), 2)
	if err != nil {
		t.Fatal(err)
	}
	// Chain PR: all arrays are walked sequentially, so the L1 miss rate
	// must be far below the irregular case (one miss per line at worst,
	// 16 entries per line -> ~couple of misses per 3 accesses * 1/16).
	missRate := float64(st.L1Misses) / float64(st.Accesses)
	if missRate > 0.25 {
		t.Errorf("sequential workload L1 miss rate %.3f too high (cursor broken?)", missRate)
	}
}

func BenchmarkSimulatePR(b *testing.B) {
	g, err := gen.Generate(gen.MustDataset("sd", gen.Tiny))
	if err != nil {
		b.Fatal(err)
	}
	pr, _ := apps.ByName("PR")
	machine := MachineFor(gen.Tiny)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Simulate(pr, g, nil, machine, 2); err != nil {
			b.Fatal(err)
		}
	}
}
