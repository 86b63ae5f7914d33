package ligra

import (
	"reflect"
	"sort"
	"testing"

	"graphreorder/internal/gen"
	"graphreorder/internal/graph"
)

func chainGraph(t *testing.T, n int) *graph.Graph {
	t.Helper()
	var edges []graph.Edge
	for v := 0; v+1 < n; v++ {
		edges = append(edges, graph.Edge{Src: graph.VertexID(v), Dst: graph.VertexID(v + 1)})
	}
	g, err := graph.BuildWith(edges, graph.BuildOptions{NumVertices: n, SortNeighbors: true})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestVertexSetBasics(t *testing.T) {
	s := NewVertexSet(10, 1, 3, 5)
	if s.Len() != 3 || s.Empty() || s.NumVertices() != 10 {
		t.Fatalf("bad sparse set: len=%d", s.Len())
	}
	if !s.Has(3) || s.Has(2) {
		t.Error("Has wrong")
	}
	b := s.Bitmap()
	if !b[1] || !b[3] || !b[5] || b[0] {
		t.Error("Bitmap wrong")
	}
	d := NewDenseVertexSet(b)
	if d.Len() != 3 || !d.Has(5) || d.Has(6) {
		t.Error("dense set wrong")
	}
	got := d.Members()
	want := []graph.VertexID{1, 3, 5}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Members = %v, want %v", got, want)
	}
	full := FullVertexSet(4)
	if full.Len() != 4 {
		t.Errorf("FullVertexSet len %d", full.Len())
	}
	empty := NewVertexSet(5)
	if !empty.Empty() {
		t.Error("empty set not empty")
	}
}

// bfsLevels runs a BFS from root using EdgeMap in the given direction and
// returns the level of each vertex (-1 if unreached).
func bfsLevels(g graph.View, root graph.VertexID, dir Direction) []int {
	n := g.NumVertices()
	level := make([]int, n)
	for i := range level {
		level[i] = -1
	}
	level[root] = 0
	frontier := NewVertexSet(n, root)
	for depth := 1; !frontier.Empty(); depth++ {
		fns := EdgeMapFns{
			Update: func(src, dst graph.VertexID) bool {
				if level[dst] == -1 {
					level[dst] = depth
					return true
				}
				return false
			},
			Cond: func(dst graph.VertexID) bool { return level[dst] == -1 },
		}
		frontier = EdgeMap(g, frontier, fns, EdgeMapOpts{Dir: dir})
	}
	return level
}

// refBFS is a queue-based reference BFS.
func refBFS(g *graph.Graph, root graph.VertexID) []int {
	level := make([]int, g.NumVertices())
	for i := range level {
		level[i] = -1
	}
	level[root] = 0
	queue := []graph.VertexID{root}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, v := range g.OutNeighbors(u) {
			if level[v] == -1 {
				level[v] = level[u] + 1
				queue = append(queue, v)
			}
		}
	}
	return level
}

func TestEdgeMapBFSAllDirectionsAgree(t *testing.T) {
	g, err := gen.Generate(gen.MustDataset("wl", gen.Tiny))
	if err != nil {
		t.Fatal(err)
	}
	root := graph.VertexID(0)
	// Pick a root with decent out-degree so the BFS goes somewhere.
	for v := 0; v < g.NumVertices(); v++ {
		if g.OutDegree(graph.VertexID(v)) > 5 {
			root = graph.VertexID(v)
			break
		}
	}
	want := refBFS(g, root)
	for _, dir := range []Direction{Push, Pull, Auto} {
		got := bfsLevels(g, root, dir)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("direction %d: BFS levels diverge from reference", dir)
		}
	}
}

func TestEdgeMapChain(t *testing.T) {
	g := chainGraph(t, 6)
	levels := bfsLevels(g, 0, Auto)
	for v, l := range levels {
		if l != v {
			t.Errorf("chain level[%d] = %d, want %d", v, l, v)
		}
	}
}

func TestEdgeMapDeduplicatesOutput(t *testing.T) {
	// Diamond: 0->1, 0->2, 1->3, 2->3. From {1,2}, vertex 3 must appear
	// once in the output frontier even though two edges reach it.
	g, err := graph.Build([]graph.Edge{{Src: 0, Dst: 1}, {Src: 0, Dst: 2}, {Src: 1, Dst: 3}, {Src: 2, Dst: 3}})
	if err != nil {
		t.Fatal(err)
	}
	visited := make([]bool, 4)
	out := EdgeMap(g, NewVertexSet(4, 1, 2), EdgeMapFns{
		Update: func(_, dst graph.VertexID) bool {
			visited[dst] = true
			return true
		},
	}, EdgeMapOpts{Dir: Push})
	if out.Len() != 1 || !out.Has(3) {
		t.Errorf("output frontier = %v, want {3}", out.Members())
	}
}

func TestEdgeMapPullEarlyExit(t *testing.T) {
	// Star into vertex 0 from 1..9. With Cond "not yet claimed", the dense
	// scan must stop examining 0's in-edges after the first claim.
	var edges []graph.Edge
	for v := 1; v < 10; v++ {
		edges = append(edges, graph.Edge{Src: graph.VertexID(v), Dst: 0})
	}
	g, err := graph.Build(edges)
	if err != nil {
		t.Fatal(err)
	}
	claimed := false
	updates := 0
	EdgeMap(g, FullVertexSet(10), EdgeMapFns{
		Update: func(_, _ graph.VertexID) bool {
			updates++
			claimed = true
			return true
		},
		Cond: func(dst graph.VertexID) bool { return dst != 0 || !claimed },
	}, EdgeMapOpts{Dir: Pull})
	if updates != 1 {
		t.Errorf("pull early exit broken: %d updates, want 1", updates)
	}
}

func TestEdgeMapAutoSwitchesDirection(t *testing.T) {
	g, err := gen.Generate(gen.MustDataset("kr", gen.Tiny))
	if err != nil {
		t.Fatal(err)
	}
	tr := &recordingTracer{}
	// Tiny frontier -> push.
	EdgeMap(g, NewVertexSet(g.NumVertices(), 0), EdgeMapFns{
		Update: func(_, _ graph.VertexID) bool { return false },
	}, EdgeMapOpts{Trace: tr})
	if tr.pullEdges > 0 {
		t.Error("small frontier unexpectedly ran dense")
	}
	// Full frontier -> pull.
	tr2 := &recordingTracer{}
	EdgeMap(g, FullVertexSet(g.NumVertices()), EdgeMapFns{
		Update: func(_, _ graph.VertexID) bool { return false },
	}, EdgeMapOpts{Trace: tr2})
	if tr2.pushEdges > 0 {
		t.Error("full frontier unexpectedly ran sparse")
	}
}

type recordingTracer struct {
	pushEdges, pullEdges int
	vertices             int
}

func (r *recordingTracer) EdgeExamined(_, _ graph.VertexID, pull bool) {
	if pull {
		r.pullEdges++
	} else {
		r.pushEdges++
	}
}
func (r *recordingTracer) VertexVisited(_ graph.VertexID, _ bool) { r.vertices++ }

// TestTracerSeesEveryPushEdge: a push callback that reads its list shows
// the tracer each member, then each of its out-edges, in list order.
func TestTracerSeesEveryPushEdge(t *testing.T) {
	g, err := graph.Build([]graph.Edge{{Src: 0, Dst: 1}, {Src: 0, Dst: 3}, {Src: 1, Dst: 2}, {Src: 3, Dst: 0}})
	if err != nil {
		t.Fatal(err)
	}
	var log visitLog
	EdgeMap(g, NewVertexSet(4, 3, 0, 2), listFns, EdgeMapOpts{Dir: Push, Trace: &log})
	want := visitLog{{3, 3, false, false}, {3, 0, true, false}, {0, 0, false, false}, {0, 1, true, false}, {0, 3, true, false}, {2, 2, false, false}}
	if !reflect.DeepEqual(log, want) {
		t.Errorf("tracer saw %v, want %v", log, want)
	}
}

func TestVertexMap(t *testing.T) {
	s := NewVertexSet(10, 2, 4, 6)
	evenOver3 := VertexMap(s, func(v graph.VertexID) bool { return v > 3 })
	got := append([]graph.VertexID(nil), evenOver3.Members()...)
	sort.Slice(got, func(i, j int) bool { return got[i] < got[j] })
	if !reflect.DeepEqual(got, []graph.VertexID{4, 6}) {
		t.Errorf("VertexMap = %v", got)
	}
	d := NewDenseVertexSet([]bool{true, true, false, true})
	kept := VertexMap(d, func(v graph.VertexID) bool { return v != 1 })
	if kept.Len() != 2 || !kept.Has(0) || !kept.Has(3) {
		t.Errorf("dense VertexMap wrong: %v", kept.Members())
	}
}
