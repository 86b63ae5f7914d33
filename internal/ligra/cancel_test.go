package ligra

import (
	"context"
	"testing"

	"graphreorder/internal/graph"
)

// TestEdgeMapContext exercises the per-round cancellation hook: a done
// context makes EdgeMap return nil before scanning anything, a live (or
// absent) context leaves behaviour untouched, and the paths agree in
// both directions and at both worker counts.
func TestEdgeMapContext(t *testing.T) {
	g := lineGraph(t, 64)
	frontier := NewVertexSet(g.NumVertices(), 0)
	fns := EdgeMapFns{Update: func(src, dst graph.VertexID) bool { return true }}

	done, cancel := context.WithCancel(context.Background())
	cancel()
	live := context.Background()

	for _, dir := range []Direction{Push, Pull} {
		for _, workers := range []int{1, 4} {
			opts := EdgeMapOpts{Dir: dir, Workers: workers}

			opts.Ctx = done
			if out := EdgeMap(g, frontier, fns, opts); out != nil {
				t.Errorf("dir=%v workers=%d: done ctx returned a frontier", dir, workers)
			}

			opts.Ctx = live
			out := EdgeMap(g, frontier, fns, opts)
			if out == nil || out.Len() != 1 {
				t.Fatalf("dir=%v workers=%d: live ctx returned %v", dir, workers, out)
			}

			opts.Ctx = nil
			out = EdgeMap(g, frontier, fns, opts)
			if out == nil || out.Len() != 1 {
				t.Fatalf("dir=%v workers=%d: nil ctx returned %v", dir, workers, out)
			}
		}
	}
}

// lineGraph builds 0 -> 1 -> ... -> n-1.
func lineGraph(t *testing.T, n int) *graph.Graph {
	t.Helper()
	edges := make([]graph.Edge, 0, n-1)
	for i := 0; i < n-1; i++ {
		edges = append(edges, graph.Edge{Src: graph.VertexID(i), Dst: graph.VertexID(i + 1)})
	}
	g, err := graph.Build(edges)
	if err != nil {
		t.Fatal(err)
	}
	return g
}
