package graphreorder

import (
	"bytes"
	"context"
	"math"
	"strings"
	"testing"
)

func TestBuildGraphAndRoundTrip(t *testing.T) {
	edges := []Edge{{Src: 0, Dst: 1, Weight: 2}, {Src: 1, Dst: 2, Weight: 3}, {Src: 2, Dst: 0, Weight: 4}}
	g, err := BuildGraph(edges)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumVertices() != 3 || g.NumEdges() != 3 || !g.Weighted() {
		t.Fatalf("bad graph: %d/%d weighted=%v", g.NumVertices(), g.NumEdges(), g.Weighted())
	}
	var buf bytes.Buffer
	if err := WriteEdgeList(&buf, g); err != nil {
		t.Fatal(err)
	}
	back, err := ReadEdgeList(strings.NewReader(buf.String()))
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != 3 {
		t.Fatalf("round trip lost edges: %d", len(back))
	}
	buf.Reset()
	if err := WriteGraphBinary(&buf, g); err != nil {
		t.Fatal(err)
	}
	g2, err := ReadGraphBinary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if g2.NumEdges() != g.NumEdges() {
		t.Error("binary round trip lost edges")
	}
}

func TestGenerateDatasetAndNames(t *testing.T) {
	names := DatasetNames()
	if len(names) != 10 {
		t.Fatalf("want 10 datasets, got %d: %v", len(names), names)
	}
	g, err := GenerateDataset("lj", "tiny")
	if err != nil {
		t.Fatal(err)
	}
	if g.NumVertices() == 0 || g.NumEdges() == 0 {
		t.Fatal("empty dataset")
	}
	if _, err := GenerateDataset("lj", "galactic"); err == nil {
		t.Error("bad scale accepted")
	}
	if _, err := GenerateDataset("nope", "tiny"); err == nil {
		t.Error("bad dataset accepted")
	}
}

func TestTechniqueConstructorsAndReorder(t *testing.T) {
	g, err := GenerateDataset("sd", "tiny")
	if err != nil {
		t.Fatal(err)
	}
	techs := []Technique{DBG(), Sort(), HubSort(), HubCluster(), Gorder()}
	k4, err := DBGWithGroups(4)
	if err != nil {
		t.Fatal(err)
	}
	techs = append(techs, k4)
	for _, tech := range techs {
		res, err := Reorder(g, tech, OutDegree)
		if err != nil {
			t.Fatalf("%s: %v", tech.Name(), err)
		}
		if err := res.Perm.Validate(); err != nil {
			t.Fatalf("%s: %v", tech.Name(), err)
		}
		if res.Graph.NumEdges() != g.NumEdges() {
			t.Fatalf("%s: edges changed", tech.Name())
		}
	}
	if _, err := DBGWithGroups(1); err == nil {
		t.Error("DBGWithGroups(1) accepted")
	}
	if _, err := TechniqueByName("rcb-2"); err != nil {
		t.Errorf("rcb-2: %v", err)
	}
	if _, err := TechniqueByName("nope"); err == nil {
		t.Error("unknown technique accepted")
	}
}

func TestApplicationsViaFacade(t *testing.T) {
	g, root := testGraph(t)
	ctx := context.Background()
	run := func(app App, opts ...RunOption) *Result {
		t.Helper()
		res, err := Run(ctx, g, app, append(opts, WithWorkers(1))...)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	pr := run(AppPR, WithMaxIters(10))
	ranks := pr.Ranks()
	if pr.Iterations == 0 || len(ranks) != g.NumVertices() {
		t.Fatal("PageRank did nothing")
	}
	prd := run(AppPRD, WithMaxIters(10)).Ranks()
	var d float64
	for i := range ranks {
		d += math.Abs(ranks[i] - prd[i])
	}
	if d > 0.1 {
		t.Errorf("PR and PRD diverge: L1=%v", d)
	}

	dist := run(AppSSSP, WithRoot(root)).Distances()
	if dist[root] != 0 {
		t.Error("root distance nonzero")
	}
	reached := 0
	for _, dd := range dist {
		if dd != InfDistance {
			reached++
		}
	}
	if reached < 2 {
		t.Error("SSSP reached nothing")
	}

	if dep := run(AppBC, WithRoot(root)).Dependencies(); len(dep) != g.NumVertices() {
		t.Error("BC length wrong")
	}
	if radii := run(AppRadii, WithSamples([]VertexID{root})).Eccentricities(); radii[root] != 0 {
		t.Errorf("radii[root] = %d, want 0", radii[root])
	}
}

func TestSkewFacade(t *testing.T) {
	g, err := GenerateDataset("sd", "tiny")
	if err != nil {
		t.Fatal(err)
	}
	s := Skew(g, OutDegree)
	if s.HotVertexFrac <= 0 || s.HotVertexFrac > 0.5 {
		t.Errorf("hot fraction %v implausible", s.HotVertexFrac)
	}
	if s.EdgeCoverage < 0.5 {
		t.Errorf("coverage %v implausible for a skewed dataset", s.EdgeCoverage)
	}
	if s.HotPerCacheBlock < 1 || s.HotPerCacheBlock > 8 {
		t.Errorf("hot/block %v out of [1,8]", s.HotPerCacheBlock)
	}
}

func TestSimulatePageRankCacheFacade(t *testing.T) {
	g, err := GenerateDataset("sd", "tiny")
	if err != nil {
		t.Fatal(err)
	}
	st, err := SimulatePageRankCache(g, "tiny", 2)
	if err != nil {
		t.Fatal(err)
	}
	if st.Accesses == 0 || st.MPKI(1) <= 0 {
		t.Error("simulation recorded nothing")
	}
	if _, err := SimulatePageRankCache(g, "bogus", 2); err == nil {
		t.Error("bad scale accepted")
	}
}

// TestDynamicFacade drives the evolving-graph surface end to end: wrap
// a static graph, mutate it in atomic batches, and query reordered
// views whose staleness the refresh policy controls.
func TestDynamicFacade(t *testing.T) {
	g, err := GenerateDataset("uni", "tiny")
	if err != nil {
		t.Fatal(err)
	}
	d := NewDynamicGraph(g)
	r := NewDynamicReorderer(DBG(), OutDegree, RefreshPolicy{Every: 2})
	if _, _, err := r.View(d); err != nil {
		t.Fatal(err)
	}
	m0 := d.NumEdges()
	if err := d.Apply([]EdgeUpdate{
		{Edge: Edge{Src: 0, Dst: 1, Weight: 1}},
		{Edge: Edge{Src: 1, Dst: 2, Weight: 1}},
	}); err != nil {
		t.Fatal(err)
	}
	if d.NumEdges() != m0+2 {
		t.Fatalf("edges = %d, want %d", d.NumEdges(), m0+2)
	}
	// A failing batch is atomic: the valid prefix must not stick.
	if err := d.Apply([]EdgeUpdate{
		{Edge: Edge{Src: 2, Dst: 3, Weight: 1}},
		{Remove: true, Edge: Edge{Src: 0, Dst: 0}}, // uni emits no (0,0) self-loop
	}); err == nil {
		t.Fatal("bad batch accepted")
	}
	if d.NumEdges() != m0+2 {
		t.Fatalf("failed batch leaked: edges = %d, want %d", d.NumEdges(), m0+2)
	}
	view, perm, err := r.View(d)
	if err != nil {
		t.Fatal(err)
	}
	if view.NumEdges() != d.NumEdges() || len(perm) != d.NumVertices() {
		t.Fatalf("view %d edges / perm %d, want %d / %d",
			view.NumEdges(), len(perm), d.NumEdges(), d.NumVertices())
	}
	// The view is a real Graph: the Run API accepts it directly.
	res, err := Run(context.Background(), view, AppPR, WithMaxIters(5))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Ranks()) != view.NumVertices() {
		t.Error("PR on dynamic view returned wrong size")
	}
}

// TestEndToEndReorderingImprovesSimulatedLocality is the facade-level
// integration check of the library's whole point: DBG must reduce
// simulated L3 MPKI for PageRank on a skewed unstructured dataset.
func TestEndToEndReorderingImprovesSimulatedLocality(t *testing.T) {
	g, err := GenerateDataset("sd", "small")
	if err != nil {
		t.Fatal(err)
	}
	base, err := SimulatePageRankCache(g, "small", 2)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Reorder(g, DBG(), OutDegree)
	if err != nil {
		t.Fatal(err)
	}
	dbg, err := SimulatePageRankCache(res.Graph, "small", 2)
	if err != nil {
		t.Fatal(err)
	}
	if dbg.MPKI(3) >= base.MPKI(3) {
		t.Errorf("DBG did not reduce simulated L3 MPKI: %.2f -> %.2f", base.MPKI(3), dbg.MPKI(3))
	}
}

func TestPipelineAndQualityFacade(t *testing.T) {
	g, err := GenerateDataset("pl", "tiny")
	if err != nil {
		t.Fatal(err)
	}
	// Spec parsing, composition and the pipeline-as-Technique contract.
	p, err := ParsePipeline("dbg|gorder")
	if err != nil {
		t.Fatal(err)
	}
	if p.Name() != "DBG|Gorder" {
		t.Errorf("pipeline name = %q", p.Name())
	}
	if composed := ComposeTechniques(DBG(), Gorder()); composed.Name() != p.Name() {
		t.Errorf("ComposeTechniques name = %q", composed.Name())
	}
	res, err := Reorder(g, p, OutDegree)
	if err != nil {
		t.Fatal(err)
	}
	orig := EvaluateOrdering(g, OutDegree)
	if res.Quality.PackingFactor <= orig.PackingFactor {
		t.Errorf("pipeline packing %v did not improve on original %v",
			res.Quality.PackingFactor, orig.PackingFactor)
	}
	if res.Quality.PackingGain() > orig.PackingGain() {
		t.Error("reordering increased the remaining packing headroom")
	}
	// Registry round-trips the parameterized DBG form.
	if _, err := TechniqueByName("dbg:6"); err != nil {
		t.Errorf("dbg:6 unresolvable: %v", err)
	}
	if _, err := TechniqueByName("dbg:1"); err == nil {
		t.Error("dbg:1 accepted")
	}
}

func TestAdvisorFacade(t *testing.T) {
	pl, err := GenerateDataset("pl", "tiny")
	if err != nil {
		t.Fatal(err)
	}
	rec := Advise(pl, OutDegree)
	if !rec.Reorder() || rec.Spec != "dbg" {
		t.Fatalf("power-law advice = %q (%s)", rec.Spec, rec.Reason)
	}
	uni, err := GenerateDataset("uni", "tiny")
	if err != nil {
		t.Fatal(err)
	}
	if rec := Advise(uni, OutDegree); rec.Reorder() {
		t.Errorf("uniform advice = %q (%s)", rec.Spec, rec.Reason)
	}
	// TechniqueAuto is the advisor as a technique, registry name "auto".
	auto, err := TechniqueByName("auto")
	if err != nil {
		t.Fatal(err)
	}
	if auto.Name() != TechniqueAuto().Name() {
		t.Errorf("auto names diverge: %q vs %q", auto.Name(), TechniqueAuto().Name())
	}
	res, err := Reorder(uni, TechniqueAuto(), OutDegree)
	if err != nil {
		t.Fatal(err)
	}
	for v, id := range res.Perm {
		if int(id) != v {
			t.Fatalf("auto moved vertex %d on the uniform graph", v)
		}
	}
}

func TestPartitionGraphFacade(t *testing.T) {
	g, err := GenerateDataset("sd", "tiny")
	if err != nil {
		t.Fatal(err)
	}
	res, err := PartitionGraph(g, PartitionOptions{Shards: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Graphs) != 3 {
		t.Fatalf("want 3 shard graphs, got %d", len(res.Graphs))
	}
	total := 0
	for _, sg := range res.Graphs {
		if sg.NumVertices() != g.NumVertices() {
			t.Fatalf("shard subgraph not in original ID space: %d vs %d vertices",
				sg.NumVertices(), g.NumVertices())
		}
		total += sg.NumEdges()
	}
	if total != g.NumEdges() {
		t.Fatalf("edges not partitioned exactly once: %d vs %d", total, g.NumEdges())
	}
	var p *Placement = &res.Placement
	for v := VertexID(0); v < VertexID(g.NumVertices()); v += 17 {
		owner := p.OwnerOf(v)
		if owner < 0 || owner >= 3 {
			t.Fatalf("vertex %d owned by out-of-range shard %d", v, owner)
		}
	}
	if res.Balance.Balance < 1 {
		t.Fatalf("max/mean balance below 1: %v", res.Balance.Balance)
	}
	// Hash placement must also cover every edge exactly once.
	hres, err := PartitionGraph(g, PartitionOptions{Shards: 3, Strategy: "hash"})
	if err != nil {
		t.Fatal(err)
	}
	htotal := 0
	for _, sg := range hres.Graphs {
		htotal += sg.NumEdges()
	}
	if htotal != g.NumEdges() {
		t.Fatalf("hash partition lost edges: %d vs %d", htotal, g.NumEdges())
	}
}
