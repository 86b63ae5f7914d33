package graph

import (
	"bytes"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"graphreorder/internal/rng"
)

// paperExample is the graph of Fig. 1(a): in-edges per vertex encoded as
// edge list (src -> dst).
func paperExample(t *testing.T) *Graph {
	t.Helper()
	edges := []Edge{
		{Src: 3, Dst: 0},
		{Src: 2, Dst: 1}, {Src: 0, Dst: 1}, {Src: 5, Dst: 1},
		{Src: 1, Dst: 2}, {Src: 5, Dst: 2},
		{Src: 4, Dst: 3}, {Src: 5, Dst: 3}, {Src: 2, Dst: 3},
		{Src: 5, Dst: 4},
	}
	g, err := Build(edges)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return g
}

func TestBuildPaperExample(t *testing.T) {
	g := paperExample(t)
	if g.NumVertices() != 6 {
		t.Fatalf("NumVertices = %d, want 6", g.NumVertices())
	}
	if g.NumEdges() != 10 {
		t.Fatalf("NumEdges = %d, want 10", g.NumEdges())
	}
	if err := g.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	// Fig. 1(b): in-neighbor index is [0 1 4 6 9 10 10].
	wantIndex := []uint64{0, 1, 4, 6, 9, 10, 10}
	if !reflect.DeepEqual(g.InIndex(), wantIndex) {
		t.Errorf("InIndex = %v, want %v", g.InIndex(), wantIndex)
	}
	// In-neighbors of vertex 3 are {4, 5, 2} (sorted: 2,4,5).
	if got := g.InNeighbors(3); !reflect.DeepEqual(got, []VertexID{2, 4, 5}) {
		t.Errorf("InNeighbors(3) = %v, want [2 4 5]", got)
	}
	// Out-degree reuse property from Fig. 1(b): vertices 2 and 5 are hot.
	if g.OutDegree(5) != 4 || g.OutDegree(2) != 2 {
		t.Errorf("OutDegree(5)=%d OutDegree(2)=%d, want 4 and 2",
			g.OutDegree(5), g.OutDegree(2))
	}
}

func TestDegreesAndKinds(t *testing.T) {
	g := paperExample(t)
	in := g.Degrees(InDegree)
	out := g.Degrees(OutDegree)
	tot := g.Degrees(TotalDegree)
	for v := 0; v < g.NumVertices(); v++ {
		if tot[v] != in[v]+out[v] {
			t.Errorf("vertex %d: total %d != in %d + out %d", v, tot[v], in[v], out[v])
		}
	}
	sumIn, sumOut := 0, 0
	for v := range in {
		sumIn += int(in[v])
		sumOut += int(out[v])
	}
	if sumIn != g.NumEdges() || sumOut != g.NumEdges() {
		t.Errorf("degree sums %d/%d, want %d", sumIn, sumOut, g.NumEdges())
	}
	if g.MaxDegree(OutDegree) != 4 {
		t.Errorf("MaxDegree(out) = %d, want 4", g.MaxDegree(OutDegree))
	}
}

func TestDegreeKindString(t *testing.T) {
	if InDegree.String() != "in" || OutDegree.String() != "out" || TotalDegree.String() != "total" {
		t.Error("DegreeKind String() mismatch")
	}
}

func TestBuildEmpty(t *testing.T) {
	g, err := Build(nil)
	if err != nil {
		t.Fatalf("Build(nil): %v", err)
	}
	if g.NumVertices() != 0 || g.NumEdges() != 0 {
		t.Errorf("empty graph has %d vertices, %d edges", g.NumVertices(), g.NumEdges())
	}
	if err := g.Validate(); err != nil {
		t.Errorf("Validate: %v", err)
	}
}

func TestBuildSingleVertexSelfLoop(t *testing.T) {
	g, err := Build([]Edge{{Src: 0, Dst: 0}})
	if err != nil {
		t.Fatal(err)
	}
	if g.NumVertices() != 1 || g.NumEdges() != 1 {
		t.Fatalf("got %d vertices %d edges", g.NumVertices(), g.NumEdges())
	}
}

// TestBuildNumVerticesTooSmall: an endpoint past NumVertices is an error
// on the sequential and the parallel count pass, whether it is a source or
// a destination.
func TestBuildNumVerticesTooSmall(t *testing.T) {
	long := make([]Edge, parallelBuildThreshold+100)
	for i := range long {
		long[i] = Edge{Src: VertexID(i % 5), Dst: VertexID((i + 1) % 5)}
	}
	for _, tc := range []struct {
		name  string
		edges []Edge
		opts  BuildOptions
	}{
		{"destination", []Edge{{Src: 0, Dst: 9}}, BuildOptions{}},
		{"source, last of many", append(slices.Clone(long), Edge{Src: 9, Dst: 0}), BuildOptions{SortNeighbors: true}},
		{"destination, first of many", append([]Edge{{Src: 1, Dst: 5}}, long...), BuildOptions{Weighted: true}},
	} {
		for _, workers := range []int{1, 4} {
			opts := tc.opts
			opts.NumVertices, opts.Workers = 5, workers
			_, err := BuildWith(tc.edges, opts)
			if err == nil || err.Error() != "graph: edge endpoint exceeds NumVertices=5" {
				t.Errorf("%s, workers=%d: error %v, want the NumVertices error", tc.name, workers, err)
			}
		}
	}
}

func TestBuildIsolatedVertices(t *testing.T) {
	g, err := BuildWith([]Edge{{Src: 0, Dst: 1}}, BuildOptions{NumVertices: 10})
	if err != nil {
		t.Fatal(err)
	}
	if g.NumVertices() != 10 {
		t.Fatalf("NumVertices = %d, want 10", g.NumVertices())
	}
	for v := 2; v < 10; v++ {
		if g.OutDegree(VertexID(v)) != 0 || g.InDegree(VertexID(v)) != 0 {
			t.Errorf("vertex %d should be isolated", v)
		}
	}
}

// edgeSet returns a canonical sorted edge multiset representation.
func edgeSet(g *Graph) []Edge {
	es := g.Edges()
	sort.Slice(es, func(i, j int) bool {
		if es[i].Src != es[j].Src {
			return es[i].Src < es[j].Src
		}
		if es[i].Dst != es[j].Dst {
			return es[i].Dst < es[j].Dst
		}
		return es[i].Weight < es[j].Weight
	})
	return es
}

func TestRelabelIdentity(t *testing.T) {
	g := paperExample(t)
	id := make([]VertexID, g.NumVertices())
	for i := range id {
		id[i] = VertexID(i)
	}
	h, err := g.Relabel(id)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(edgeSet(g), edgeSet(h)) {
		t.Error("identity relabel changed the graph")
	}
}

func TestRelabelRejectsNonPermutation(t *testing.T) {
	g := paperExample(t)
	bad := []VertexID{0, 0, 1, 2, 3, 4}
	if _, err := g.Relabel(bad); err == nil {
		t.Error("duplicate mapping accepted")
	}
	short := []VertexID{0, 1}
	if _, err := g.Relabel(short); err == nil {
		t.Error("short mapping accepted")
	}
	outOfRange := []VertexID{0, 1, 2, 3, 4, 99}
	if _, err := g.Relabel(outOfRange); err == nil {
		t.Error("out-of-range mapping accepted")
	}
}

func TestRelabelPreservesStructure(t *testing.T) {
	// Property: relabeling preserves the degree multiset and the edge
	// multiset up to renaming.
	f := func(seed uint64) bool {
		r := rng.New(seed)
		n := 2 + r.Intn(40)
		var edges []Edge
		m := r.Intn(120)
		for i := 0; i < m; i++ {
			edges = append(edges, Edge{
				Src:    VertexID(r.Intn(n)),
				Dst:    VertexID(r.Intn(n)),
				Weight: uint32(r.Intn(100)),
			})
		}
		g, err := BuildWith(edges, BuildOptions{NumVertices: n, Weighted: true, SortNeighbors: true})
		if err != nil {
			return false
		}
		perm := r.Perm(n)
		h, err := g.Relabel(perm)
		if err != nil {
			return false
		}
		if h.Validate() != nil {
			return false
		}
		// Degree multiset preserved.
		gd, hd := g.Degrees(TotalDegree), h.Degrees(TotalDegree)
		sort.Slice(gd, func(i, j int) bool { return gd[i] < gd[j] })
		sort.Slice(hd, func(i, j int) bool { return hd[i] < hd[j] })
		if !reflect.DeepEqual(gd, hd) {
			return false
		}
		// Edge multiset preserved under the mapping.
		want := make(map[Edge]int)
		for _, e := range g.Edges() {
			want[Edge{Src: perm[e.Src], Dst: perm[e.Dst], Weight: e.Weight}]++
		}
		for _, e := range h.Edges() {
			want[e]--
		}
		for _, c := range want {
			if c != 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestReadEdgeListValid(t *testing.T) {
	in := "# comment\n% also comment\n0 1\n1 2 7\n\n2 0\n"
	edges, err := ReadEdgeList(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	want := []Edge{{0, 1, 0}, {1, 2, 7}, {2, 0, 0}}
	if !reflect.DeepEqual(edges, want) {
		t.Errorf("got %v, want %v", edges, want)
	}
}

func TestReadEdgeListMalformed(t *testing.T) {
	cases := []string{
		"0\n",                      // too few fields
		"0 1 2 3\n",                // too many fields
		"a b\n",                    // non-numeric
		"0 -1\n",                   // negative
		"0 99999999999999999999\n", // overflow
		"1 2 x\n",                  // bad weight
	}
	for _, c := range cases {
		if _, err := ReadEdgeList(strings.NewReader(c)); err == nil {
			t.Errorf("input %q: expected parse error", c)
		}
	}
}

func TestEdgeListRoundTrip(t *testing.T) {
	g := paperExample(t)
	var buf bytes.Buffer
	if err := WriteEdgeList(&buf, g); err != nil {
		t.Fatal(err)
	}
	edges, err := ReadEdgeList(&buf)
	if err != nil {
		t.Fatal(err)
	}
	h, err := Build(edges)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(edgeSet(g), edgeSet(h)) {
		t.Error("edge-list round trip changed the graph")
	}
}

func TestBinaryRoundTrip(t *testing.T) {
	for _, weighted := range []bool{false, true} {
		r := rng.New(99)
		n := 50
		var edges []Edge
		for i := 0; i < 300; i++ {
			e := Edge{Src: VertexID(r.Intn(n)), Dst: VertexID(r.Intn(n))}
			if weighted {
				e.Weight = uint32(1 + r.Intn(63))
			}
			edges = append(edges, e)
		}
		g, err := BuildWith(edges, BuildOptions{NumVertices: n, Weighted: weighted, SortNeighbors: true})
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := WriteBinary(&buf, g); err != nil {
			t.Fatal(err)
		}
		h, err := ReadBinary(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(edgeSet(g), edgeSet(h)) {
			t.Errorf("binary round trip (weighted=%v) changed the graph", weighted)
		}
		if h.Weighted() != weighted {
			t.Errorf("weighted flag lost: got %v want %v", h.Weighted(), weighted)
		}
	}
}

func TestReadBinaryRejectsGarbage(t *testing.T) {
	cases := [][]byte{
		nil,
		[]byte("not a graph"),
		bytes.Repeat([]byte{0xff}, 64),
	}
	for i, c := range cases {
		if _, err := ReadBinary(bytes.NewReader(c)); err == nil {
			t.Errorf("case %d: corrupt input accepted", i)
		}
	}
}

func TestReadBinaryRejectsWrongVersion(t *testing.T) {
	g := paperExample(t)
	var buf bytes.Buffer
	if err := WriteBinary(&buf, g); err != nil {
		t.Fatal(err)
	}
	b := buf.Bytes()
	b[8] = 0xFE // clobber version field
	if _, err := ReadBinary(bytes.NewReader(b)); err == nil {
		t.Error("wrong version accepted")
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	g := paperExample(t)
	g.outIndex[2] = g.outIndex[3] + 5 // break monotonicity
	if err := g.Validate(); err == nil {
		t.Error("Validate accepted non-monotonic index")
	}
}
