package reorder

import (
	"reflect"
	"sort"
	"testing"
	"testing/quick"

	"graphreorder/internal/gen"
	"graphreorder/internal/graph"
	"graphreorder/internal/rng"
)

// fig2Degrees is the running example of Fig. 2 / Fig. 4 of the paper:
// vertices P0..P11 with these degrees. Hot threshold in the figures is 20
// (vertices with degree >= 20 are colored).
var fig2Degrees = []uint32{3, 4, 54, 4, 22, 25, 21, 3, 28, 70, 4, 2}

// fig2Avg is an average degree consistent with the figure's hot threshold:
// the figure classifies degree >= 20 as hot.
const fig2Avg = 20.0

// layoutOf converts a permutation to the memory layout it induces: the
// original vertex at each new position — the "Pk" row of Fig. 2.
func layoutOf(p Permutation) []graph.VertexID {
	inv := p.Inverse()
	return []graph.VertexID(inv)
}

func TestSortMatchesFig2(t *testing.T) {
	p := SortTechnique{}.PermuteDegrees(fig2Degrees, fig2Avg)
	// Fig. 2(b) Sort row: P9 P2 P8 P5 P4 P6 P1 P3 P10 P0 P7 P11.
	want := []graph.VertexID{9, 2, 8, 5, 4, 6, 1, 3, 10, 0, 7, 11}
	if got := layoutOf(p); !reflect.DeepEqual(got, want) {
		t.Errorf("Sort layout = %v, want %v", got, want)
	}
}

func TestHubSortMatchesFig2(t *testing.T) {
	p := HubSort{}.PermuteDegrees(fig2Degrees, fig2Avg)
	// Fig. 2(b) HubSort row: P9 P2 P8 P5 P4 P6 P0 P1 P3 P7 P10 P11.
	want := []graph.VertexID{9, 2, 8, 5, 4, 6, 0, 1, 3, 7, 10, 11}
	if got := layoutOf(p); !reflect.DeepEqual(got, want) {
		t.Errorf("HubSort layout = %v, want %v", got, want)
	}
}

func TestHubClusterMatchesFig2(t *testing.T) {
	p := HubCluster{}.PermuteDegrees(fig2Degrees, fig2Avg)
	// Fig. 2(b) HubCluster row: P2 P4 P5 P6 P8 P9 P0 P1 P3 P7 P10 P11.
	want := []graph.VertexID{2, 4, 5, 6, 8, 9, 0, 1, 3, 7, 10, 11}
	if got := layoutOf(p); !reflect.DeepEqual(got, want) {
		t.Errorf("HubCluster layout = %v, want %v", got, want)
	}
}

func TestDBGMatchesFig4(t *testing.T) {
	// Fig. 4 uses three groups with ranges [40,80), [20,40), [0,20).
	// Expressed as multiples of A=20: bounds 2, 1, 0.
	d, err := NewDBGBounds([]float64{2, 1, 0})
	if err != nil {
		t.Fatal(err)
	}
	p := d.PermuteDegrees(fig2Degrees, fig2Avg)
	// Fig. 4 DBG row: P2 P9 P4 P5 P6 P8 P0 P1 P3 P7 P10 P11.
	want := []graph.VertexID{2, 9, 4, 5, 6, 8, 0, 1, 3, 7, 10, 11}
	if got := layoutOf(p); !reflect.DeepEqual(got, want) {
		t.Errorf("DBG layout = %v, want %v", got, want)
	}
}

func TestPermutationValidate(t *testing.T) {
	if err := (Permutation{0, 1, 2}).Validate(); err != nil {
		t.Errorf("valid permutation rejected: %v", err)
	}
	if err := (Permutation{0, 0, 2}).Validate(); err == nil {
		t.Error("duplicate accepted")
	}
	if err := (Permutation{0, 5, 2}).Validate(); err == nil {
		t.Error("out-of-range accepted")
	}
	if err := (Permutation{}).Validate(); err != nil {
		t.Errorf("empty permutation rejected: %v", err)
	}
}

func TestInverseAndCompose(t *testing.T) {
	p := Permutation{2, 0, 1, 3}
	inv := p.Inverse()
	id := p.Compose(inv)
	if !reflect.DeepEqual(id, Identity(4)) {
		t.Errorf("p∘p⁻¹ = %v, want identity", id)
	}
	q := Permutation{1, 2, 3, 0}
	r := p.Compose(q)
	for v := range p {
		if r[v] != q[p[v]] {
			t.Errorf("Compose[%d] = %d, want %d", v, r[v], q[p[v]])
		}
	}
}

func TestComposePanicsOnLengthMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on length mismatch")
		}
	}()
	Permutation{0}.Compose(Permutation{0, 1})
}

// allTechniques returns every technique, seeded deterministically.
func allTechniques() []Technique {
	return []Technique{
		IdentityTechnique{},
		SortTechnique{},
		HubSort{},
		HubCluster{},
		HubSortO{},
		HubClusterO{},
		NewDBG(),
		Gorder{},
		RandomVertex{Seed: 7},
		RandomCacheBlock{Seed: 7, Blocks: 1},
		RandomCacheBlock{Seed: 7, Blocks: 4},
		Compose(Gorder{}, NewDBG()),
	}
}

func TestAllTechniquesProduceValidPermutations(t *testing.T) {
	g, err := gen.Generate(gen.MustDataset("lj", gen.Tiny))
	if err != nil {
		t.Fatal(err)
	}
	for _, tech := range allTechniques() {
		for _, kind := range []graph.DegreeKind{graph.InDegree, graph.OutDegree} {
			p, err := tech.Permute(g, kind)
			if err != nil {
				t.Fatalf("%s: %v", tech.Name(), err)
			}
			if len(p) != g.NumVertices() {
				t.Fatalf("%s: permutation length %d, want %d", tech.Name(), len(p), g.NumVertices())
			}
			if err := p.Validate(); err != nil {
				t.Errorf("%s/%s: %v", tech.Name(), kind, err)
			}
		}
	}
}

func TestTechniquesDeterministic(t *testing.T) {
	g, err := gen.Generate(gen.MustDataset("pl", gen.Tiny))
	if err != nil {
		t.Fatal(err)
	}
	for _, tech := range allTechniques() {
		p1, _ := tech.Permute(g, graph.OutDegree)
		p2, _ := tech.Permute(g, graph.OutDegree)
		if !reflect.DeepEqual(p1, p2) {
			t.Errorf("%s: non-deterministic permutation", tech.Name())
		}
	}
}

func TestDegreeBasedBijectionProperty(t *testing.T) {
	// Property: every degree-based technique produces a bijection for
	// arbitrary degree arrays, including degenerate ones.
	techniques := []DegreeBased{
		SortTechnique{}, HubSort{}, HubCluster{}, HubSortO{}, HubClusterO{}, NewDBG(),
	}
	f := func(seed uint64, nRaw uint16) bool {
		r := rng.New(seed)
		n := int(nRaw%512) + 1
		degs := make([]uint32, n)
		for i := range degs {
			degs[i] = uint32(r.Zipf(1000, 1.1))
		}
		var avg float64
		for _, d := range degs {
			avg += float64(d)
		}
		avg /= float64(n)
		for _, tech := range techniques {
			if err := tech.PermuteDegrees(degs, avg).Validate(); err != nil {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestSortAgainstReference(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		n := 1 + r.Intn(200)
		degs := make([]uint32, n)
		for i := range degs {
			degs[i] = uint32(r.Intn(30))
		}
		got := SortTechnique{}.PermuteDegrees(degs, 0)
		want := referenceSortDesc(degs)
		if !reflect.DeepEqual(got, want) {
			return false
		}
		// HubSort: the hot vertices as the reference sorts them (they are
		// its first positions), then the cold ones in original order.
		var avg float64
		for _, d := range degs {
			avg += float64(d) / float64(n)
		}
		next := 0
		for _, d := range degs {
			if float64(d) >= avg {
				next++
			}
		}
		for v, d := range degs {
			if float64(d) < avg {
				want[v] = graph.VertexID(next)
				next++
			}
		}
		return reflect.DeepEqual(HubSort{}.PermuteDegrees(degs, avg), want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// byDegDesc orders vertex IDs by (degree descending, ID ascending) for
// sort.Stable.
type byDegDesc struct {
	ids  []graph.VertexID
	degs []uint32
}

func (s byDegDesc) Len() int { return len(s.ids) }
func (s byDegDesc) Less(i, j int) bool {
	if s.degs[s.ids[i]] != s.degs[s.ids[j]] {
		return s.degs[s.ids[i]] > s.degs[s.ids[j]]
	}
	return s.ids[i] < s.ids[j]
}
func (s byDegDesc) Swap(i, j int) { s.ids[i], s.ids[j] = s.ids[j], s.ids[i] }

// referenceSortDesc is a slow, obviously-correct descending stable sort
// the counting layout is checked against.
func referenceSortDesc(degs []uint32) Permutation {
	ids := make([]graph.VertexID, len(degs))
	for i := range ids {
		ids[i] = graph.VertexID(i)
	}
	sort.Stable(byDegDesc{ids, degs})
	perm := make(Permutation, len(degs))
	for pos, v := range ids {
		perm[v] = graph.VertexID(pos)
	}
	return perm
}

func TestDBGEqualsHubClusterWithTwoGroups(t *testing.T) {
	// Table V: HubCluster == DBG with groups [A,M] and [0,A).
	d, err := NewDBGBounds([]float64{1, 0})
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(5)
	degs := make([]uint32, 500)
	for i := range degs {
		degs[i] = uint32(r.Zipf(200, 1.1))
	}
	var avg float64
	for _, x := range degs {
		avg += float64(x)
	}
	avg /= float64(len(degs))
	pd := d.PermuteDegrees(degs, avg)
	ph := HubCluster{}.PermuteDegrees(degs, avg)
	if !reflect.DeepEqual(pd, ph) {
		t.Error("DBG with 2 groups != HubCluster")
	}
}

func TestDBGPreservesOrderWithinGroups(t *testing.T) {
	d := NewDBG()
	r := rng.New(17)
	degs := make([]uint32, 1000)
	for i := range degs {
		degs[i] = uint32(r.Zipf(500, 1.05))
	}
	var avg float64
	for _, x := range degs {
		avg += float64(x)
	}
	avg /= float64(len(degs))
	p := d.PermuteDegrees(degs, avg)
	// Vertices in the same group must keep relative order: group ID can be
	// recovered from new-ID ranges via GroupSizes.
	sizes := d.GroupSizes(degs, avg)
	groupOfNewID := make([]int, len(degs))
	pos := 0
	for gi, sz := range sizes {
		for i := 0; i < sz; i++ {
			groupOfNewID[pos] = gi
			pos++
		}
	}
	lastNewID := make(map[int]int)
	for v := 0; v < len(degs); v++ {
		gid := groupOfNewID[p[v]]
		if prev, ok := lastNewID[gid]; ok && int(p[v]) < prev {
			t.Fatalf("group %d: vertex %d got new ID %d < previous %d (order not preserved)",
				gid, v, p[v], prev)
		}
		lastNewID[gid] = int(p[v])
	}
}

func TestDBGGroupSizesSumToN(t *testing.T) {
	d := NewDBG()
	degs := []uint32{0, 1, 5, 100, 7, 3, 2, 900}
	sizes := d.GroupSizes(degs, 4.0)
	total := 0
	for _, s := range sizes {
		total += s
	}
	if total != len(degs) {
		t.Errorf("group sizes sum %d, want %d", total, len(degs))
	}
}

func TestNewDBGBoundsValidation(t *testing.T) {
	if _, err := NewDBGBounds(nil); err == nil {
		t.Error("empty bounds accepted")
	}
	if _, err := NewDBGBounds([]float64{1, 2, 0}); err == nil {
		t.Error("non-descending bounds accepted")
	}
	if _, err := NewDBGBounds([]float64{4, 2, 1}); err == nil {
		t.Error("bounds not ending at 0 accepted")
	}
}

func TestNewDBGGeometric(t *testing.T) {
	d, err := NewDBGGeometric(4)
	if err != nil {
		t.Fatal(err)
	}
	// k=4 with C = A/2: bounds 0.5*2^(k-2-i) = 2, 1, 0.5, then 0.
	want := []float64{2, 1, 0.5, 0}
	if !reflect.DeepEqual(d.GroupBounds(), want) {
		t.Errorf("bounds = %v, want %v", d.GroupBounds(), want)
	}
	if _, err := NewDBGGeometric(1); err == nil {
		t.Error("k=1 accepted")
	}
	if _, err := NewDBGGeometric(maxGeometricGroups + 1); err == nil {
		t.Error("k past the cap accepted")
	}

	// Large k: bounds past the uint32 range saturate instead of wrapping
	// to a threshold every vertex reaches. One planted hub, A = 25: at
	// k = 20 the top bound (2^17 A) already exceeds the hub's degree, so
	// every larger k only adds empty groups above it.
	r := rng.New(3)
	degs := make([]uint32, 1000)
	for i := range degs {
		degs[i] = uint32(r.Intn(50))
	}
	const hub = 700
	degs[hub] = 100000
	base, err := NewDBGGeometric(20)
	if err != nil {
		t.Fatal(err)
	}
	basePerm := base.PermuteDegrees(degs, 25)
	for _, k := range []int{40, 64} {
		d, err := NewDBGGeometric(k)
		if err != nil {
			t.Fatal(err)
		}
		p := d.PermuteDegrees(degs, 25)
		if p[hub] != 0 {
			t.Errorf("k=%d: hub landed at %d, want 0", k, p[hub])
		}
		if !reflect.DeepEqual(p, basePerm) {
			t.Errorf("k=%d: permutation differs from k=20's", k)
		}
		if sizes := d.GroupSizes(degs, 25); sizes[0] != 0 {
			t.Errorf("k=%d: hottest group holds %d vertices, want 0", k, sizes[0])
		}
	}
}

func TestDefaultDBGHasPaperConfig(t *testing.T) {
	d := NewDBG()
	want := []float64{32, 16, 8, 4, 2, 1, 0.5, 0}
	if !reflect.DeepEqual(d.GroupBounds(), want) {
		t.Errorf("default DBG bounds = %v, want paper's %v", d.GroupBounds(), want)
	}
	if d.NumGroups() != 8 {
		t.Errorf("default DBG groups = %d, want 8", d.NumGroups())
	}
}

func TestRandomCacheBlockPreservesBlocks(t *testing.T) {
	g, err := gen.Generate(gen.MustDataset("kr", gen.Tiny))
	if err != nil {
		t.Fatal(err)
	}
	for _, blocks := range []int{1, 2, 4} {
		tech := RandomCacheBlock{Seed: 3, Blocks: blocks}
		p, err := tech.Permute(g, graph.OutDegree)
		if err != nil {
			t.Fatal(err)
		}
		if err := p.Validate(); err != nil {
			t.Fatalf("RCB-%d: %v", blocks, err)
		}
		unit := blocks * VerticesPerCacheBlock
		// Vertices within a full unit must stay consecutive and in order.
		for u := 0; u+unit <= g.NumVertices(); u += unit {
			base := p[u]
			for i := 1; i < unit; i++ {
				if p[u+i] != base+graph.VertexID(i) {
					t.Fatalf("RCB-%d: unit at %d broken: p[%d]=%d, base=%d",
						blocks, u, u+i, p[u+i], base)
				}
			}
		}
	}
}

func TestRandomVertexActuallyScrambles(t *testing.T) {
	g, err := gen.Generate(gen.MustDataset("kr", gen.Tiny))
	if err != nil {
		t.Fatal(err)
	}
	p, _ := RandomVertex{Seed: 1}.Permute(g, graph.OutDegree)
	moved := 0
	for v, id := range p {
		if int(id) != v {
			moved++
		}
	}
	if moved < g.NumVertices()/2 {
		t.Errorf("RV moved only %d/%d vertices", moved, g.NumVertices())
	}
}

func TestHotVerticesPackedFirst(t *testing.T) {
	// After any skew-aware technique, all hot vertices (by the reordering
	// degree kind) must land before all cold ones.
	g, err := gen.Generate(gen.MustDataset("sd", gen.Tiny))
	if err != nil {
		t.Fatal(err)
	}
	degs := g.Degrees(graph.OutDegree)
	avg := g.AvgDegree()
	for _, tech := range []Technique{SortTechnique{}, HubSort{}, HubCluster{}} {
		p, err := tech.Permute(g, graph.OutDegree)
		if err != nil {
			t.Fatal(err)
		}
		hotCount := 0
		for _, d := range degs {
			if float64(d) >= avg {
				hotCount++
			}
		}
		for v, d := range degs {
			isHot := float64(d) >= avg
			inHotRegion := int(p[v]) < hotCount
			if isHot != inHotRegion {
				t.Errorf("%s: vertex %d (deg %d, hot=%v) landed at %d (hot region ends %d)",
					tech.Name(), v, d, isHot, p[v], hotCount)
			}
		}
	}
	// DBG packs hot vertices in the first 6 of its 8 groups (the two cold
	// groups are [A/2,A) and [0,A/2)); check hot-before-cold still holds.
	d := NewDBG()
	p, _ := d.Permute(g, graph.OutDegree)
	sizes := d.GroupSizes(degs, avg)
	hotRegion := 0
	for _, s := range sizes[:6] {
		hotRegion += s
	}
	for v, deg := range degs {
		if float64(deg) >= avg && int(p[v]) >= hotRegion {
			t.Errorf("DBG: hot vertex %d (deg %d) landed at %d outside hot region %d",
				v, deg, p[v], hotRegion)
		}
	}
}

func TestApplyMeasuresAndRelabels(t *testing.T) {
	g, err := gen.Generate(gen.MustDataset("wl", gen.Tiny))
	if err != nil {
		t.Fatal(err)
	}
	res, err := PlanOf(NewDBG()).Apply(g, graph.OutDegree)
	if err != nil {
		t.Fatal(err)
	}
	if res.Graph.NumEdges() != g.NumEdges() || res.Graph.NumVertices() != g.NumVertices() {
		t.Error("Apply changed graph dimensions")
	}
	if res.ReorderTime < 0 || res.RebuildTime <= 0 {
		t.Errorf("implausible times: reorder %v rebuild %v", res.ReorderTime, res.RebuildTime)
	}
	if err := res.Perm.Validate(); err != nil {
		t.Error(err)
	}
}

func TestGorderPlacesNeighborsNearby(t *testing.T) {
	// Two 6-cliques connected by one edge, vertex IDs interleaved so the
	// original ordering is bad. Gorder must place clique members closer
	// together than the interleaved original ordering does.
	cliqueA := []graph.VertexID{0, 2, 4, 6, 8, 10}
	cliqueB := []graph.VertexID{1, 3, 5, 7, 9, 11}
	var edges []graph.Edge
	for _, cl := range [][]graph.VertexID{cliqueA, cliqueB} {
		for _, u := range cl {
			for _, v := range cl {
				if u != v {
					edges = append(edges, graph.Edge{Src: u, Dst: v})
				}
			}
		}
	}
	edges = append(edges, graph.Edge{Src: 0, Dst: 1})
	g, err := graph.Build(edges)
	if err != nil {
		t.Fatal(err)
	}
	p, err := Gorder{Window: 3}.Permute(g, graph.OutDegree)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	spread := func(cl []graph.VertexID, perm Permutation) int {
		min, max := int(perm[cl[0]]), int(perm[cl[0]])
		for _, v := range cl {
			if int(perm[v]) < min {
				min = int(perm[v])
			}
			if int(perm[v]) > max {
				max = int(perm[v])
			}
		}
		return max - min
	}
	id := Identity(12)
	for i, cl := range [][]graph.VertexID{cliqueA, cliqueB} {
		if got, orig := spread(cl, p), spread(cl, id); got >= orig {
			t.Errorf("clique %d: Gorder spread %d not better than original %d", i, got, orig)
		}
	}
}

func TestGorderHandlesDisconnectedAndEmpty(t *testing.T) {
	empty, _ := graph.Build(nil)
	if p, err := (Gorder{}).Permute(empty, graph.OutDegree); err != nil || len(p) != 0 {
		t.Errorf("empty graph: %v %v", p, err)
	}
	// Isolated vertices force the fallback path.
	g, err := graph.BuildWith([]graph.Edge{{Src: 0, Dst: 1}}, graph.BuildOptions{NumVertices: 6})
	if err != nil {
		t.Fatal(err)
	}
	p, err := Gorder{}.Permute(g, graph.OutDegree)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Validate(); err != nil {
		t.Error(err)
	}
}

func TestByName(t *testing.T) {
	cases := map[string]string{
		"original":     "Original",
		"sort":         "Sort",
		"hubsort":      "HubSort",
		"hubcluster":   "HubCluster",
		"hubsort-o":    "HubSort-O",
		"hubcluster-o": "HubCluster-O",
		"dbg":          "DBG",
		"gorder":       "Gorder",
		"gorder+dbg":   "Gorder|DBG",
		"rv":           "RV",
		"rcb-2":        "RCB-2",
		"DBG":          "DBG",
	}
	for in, want := range cases {
		tech, err := ByName(in)
		if err != nil {
			t.Errorf("ByName(%q): %v", in, err)
			continue
		}
		if tech.Name() != want {
			t.Errorf("ByName(%q).Name() = %q, want %q", in, tech.Name(), want)
		}
	}
	// dbg4 was the legacy spelling of dbg:4; it is an unknown technique now.
	for _, bad := range []string{"", "bogus", "rcb-", "rcb-0", "dbg4"} {
		if _, err := ByName(bad); err == nil {
			t.Errorf("ByName(%q) accepted", bad)
		}
	}
}

func TestEvaluatedSetShape(t *testing.T) {
	ev := Evaluated()
	if len(ev) != 5 {
		t.Fatalf("Evaluated has %d techniques, want 5", len(ev))
	}
	wantNames := []string{"Sort", "HubSort", "HubCluster", "DBG", "Gorder"}
	for i, tech := range ev {
		if tech.Name() != wantNames[i] {
			t.Errorf("Evaluated[%d] = %q, want %q", i, tech.Name(), wantNames[i])
		}
	}
}

func TestOVariantsDisruptMoreThanFrameworkVersions(t *testing.T) {
	// The O-variants must preserve the original sequence worse than the
	// DBG-framework reimplementations (the premise of Fig. 5). Measure by
	// counting adjacent original pairs (v, v+1) that remain adjacent and
	// ordered after reordering, among cold vertices.
	g, err := gen.Generate(gen.MustDataset("lj", gen.Tiny))
	if err != nil {
		t.Fatal(err)
	}
	adjacencyKept := func(tech Technique) int {
		p, err := tech.Permute(g, graph.OutDegree)
		if err != nil {
			t.Fatal(err)
		}
		kept := 0
		for v := 0; v+1 < g.NumVertices(); v++ {
			if p[v+1] == p[v]+1 {
				kept++
			}
		}
		return kept
	}
	if o, n := adjacencyKept(HubSortO{}), adjacencyKept(HubSort{}); o >= n {
		t.Errorf("HubSort-O kept %d adjacencies, >= HubSort's %d", o, n)
	}
	if o, n := adjacencyKept(HubClusterO{}), adjacencyKept(HubCluster{}); o >= n {
		t.Errorf("HubCluster-O kept %d adjacencies, >= HubCluster's %d", o, n)
	}
}

func BenchmarkDBGPermute(b *testing.B) {
	g, err := gen.Generate(gen.MustDataset("sd", gen.Small))
	if err != nil {
		b.Fatal(err)
	}
	d := NewDBG()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := d.Permute(g, graph.OutDegree); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSortPermute(b *testing.B) {
	g, err := gen.Generate(gen.MustDataset("sd", gen.Small))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := (SortTechnique{}).Permute(g, graph.OutDegree); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGorderPermute(b *testing.B) {
	g, err := gen.Generate(gen.MustDataset("sd", gen.Tiny))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := (Gorder{}).Permute(g, graph.OutDegree); err != nil {
			b.Fatal(err)
		}
	}
}
