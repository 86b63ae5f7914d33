package graph_test

import (
	"bytes"
	"errors"
	"io"
	"testing"

	"graphreorder/internal/gen"
	"graphreorder/internal/graph"
	"graphreorder/internal/reorder"
)

// dbgOrder is the order graphd loads a DBG snapshot in.
func dbgOrder(degs []uint32, m int) ([]graph.VertexID, error) {
	return reorder.NewDBG().PermuteDegrees(degs, float64(m)/float64(max(len(degs), 1))), nil
}

// reverseOrder renames v to n-1-v, which moves every list.
func reverseOrder(degs []uint32, _ int) ([]graph.VertexID, error) {
	p := make([]graph.VertexID, len(degs))
	for v := range p {
		p[v] = graph.VertexID(len(p) - 1 - v)
	}
	return p, nil
}

func identityOrder(degs []uint32, _ int) ([]graph.VertexID, error) {
	return reorder.Identity(len(degs)), nil
}

func keepOrder([]uint32, int) ([]graph.VertexID, error) { return nil, nil }

func binaryOf(t *testing.T, g *graph.Graph) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := graph.WriteBinary(&buf, g); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// loadThenRelabel is what an ordered load must equal: ReadBinary, then
// RelabelWorkers by the order choose picks from the loaded degrees.
func loadThenRelabel(t *testing.T, data []byte, choose graph.OrderChooser) *graph.Graph {
	t.Helper()
	g, err := graph.ReadBinary(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	perm, err := choose(g.Degrees(graph.OutDegree), g.NumEdges())
	if err != nil || perm == nil {
		return g
	}
	if g, err = g.RelabelWorkers(perm, 1); err != nil {
		t.Fatal(err)
	}
	return g
}

// requireOrderedLoad holds an ordered load of binary data, on a sized
// stream and an unsized one, to load-then-relabel.
func requireOrderedLoad(t *testing.T, what string, data []byte, choose graph.OrderChooser) {
	t.Helper()
	want := loadThenRelabel(t, data, choose)
	for _, stream := range []struct {
		name string
		r    io.Reader
	}{
		{"sized", bytes.NewReader(data)},
		{"unsized", struct{ io.Reader }{bytes.NewReader(data)}},
	} {
		got, format, err := graph.ReadAutoOrdered(stream.r, choose)
		if err == nil && format != graph.FormatBinary {
			t.Fatalf("%s, %s stream: read as %v", what, stream.name, format)
		}
		if err != nil {
			t.Fatalf("%s, %s stream: %v", what, stream.name, err)
		}
		if err := graph.SameArrays(got, want); err != nil {
			t.Fatalf("%s, %s stream: ordered load differs from load-then-relabel: %v", what, stream.name, err)
		}
	}
}

// withoutWeights is g with its weights dropped.
func withoutWeights(t *testing.T, g *graph.Graph) *graph.Graph {
	t.Helper()
	h, err := graph.BuildWith(g.Edges(), graph.BuildOptions{NumVertices: g.NumVertices(), SortNeighbors: true})
	if err != nil {
		t.Fatal(err)
	}
	return h
}

// TestOrderedLoadIsLoadThenRelabel: a load that relabels as it
// reads gives ReadBinary + RelabelWorkers(perm) array for array (out and
// in index, out and in edges, packed weights and their width) on the
// skewed, structured and no-skew datasets, weighted and not, under the
// DBG order graphd loads in and under a reversal; the identity order, and
// a chooser that keeps the file's order, give ReadBinary itself.
func TestOrderedLoadIsLoadThenRelabel(t *testing.T) {
	scale := gen.Small
	if testing.Short() {
		scale = gen.Tiny
	}
	for _, name := range []string{"sd", "lj", "mp", "road", "uni"} {
		g, err := gen.Generate(gen.MustDataset(name, scale))
		if err != nil {
			t.Fatal(err)
		}
		for _, weighted := range []bool{true, false} {
			h := g
			if !weighted {
				h = withoutWeights(t, g)
			}
			data := binaryOf(t, h)
			what := name
			if !weighted {
				what += "/unweighted"
			}
			requireOrderedLoad(t, what+"/dbg", data, dbgOrder)
			requireOrderedLoad(t, what+"/reverse", data, reverseOrder)
			for _, choose := range []graph.OrderChooser{identityOrder, keepOrder} {
				got, _, err := graph.ReadAutoOrdered(bytes.NewReader(data), choose)
				if err != nil {
					t.Fatal(err)
				}
				if err := graph.SameArrays(got, h); err != nil {
					t.Fatalf("%s: the identity order differs from ReadBinary: %v", what, err)
				}
			}
		}
	}
}

// TestOrderedLoadEdgeCases: parallel edges of different weight,
// self-loops, isolated vertices, a zero-degree tail and weights of every
// packed width load in order as they load and relabel, the text format
// included; the empty graph loads under an empty order.
func TestOrderedLoadEdgeCases(t *testing.T) {
	edges := []graph.Edge{
		{Src: 0, Dst: 3, Weight: 7}, {Src: 0, Dst: 3, Weight: 2}, {Src: 0, Dst: 1, Weight: 1},
		{Src: 2, Dst: 2, Weight: 300}, {Src: 2, Dst: 0, Weight: 5}, {Src: 3, Dst: 3, Weight: 1},
		{Src: 3, Dst: 0, Weight: 70000}, {Src: 6, Dst: 0, Weight: 9}, {Src: 6, Dst: 6, Weight: 9},
	}
	const n = 10 // 4 and 5 are isolated, 7..9 the zero-degree tail
	for _, weighted := range []bool{true, false} {
		g, err := graph.BuildWith(edges, graph.BuildOptions{NumVertices: n, Weighted: weighted})
		if err != nil {
			t.Fatal(err)
		}
		data := binaryOf(t, g)
		for _, choose := range []graph.OrderChooser{dbgOrder, reverseOrder, identityOrder} {
			requireOrderedLoad(t, "hand-built", data, choose)
		}
		var text bytes.Buffer
		if err := graph.WriteEdgeList(&text, g); err != nil {
			t.Fatal(err)
		}
		fromText, format, err := graph.ReadAutoOrdered(bytes.NewReader(text.Bytes()), reverseOrder)
		if err != nil || format != graph.FormatText {
			t.Fatalf("text: %v %v", format, err)
		}
		built, err := graph.Build(edges)
		if err != nil {
			t.Fatal(err)
		}
		if !weighted {
			built = withoutWeights(t, built)
		}
		perm, _ := reverseOrder(built.Degrees(graph.OutDegree), built.NumEdges())
		if built, err = built.Relabel(perm); err != nil {
			t.Fatal(err)
		}
		// The text has no zero-degree tail: its graph ends at vertex 6.
		if fromText.NumVertices() != 7 {
			t.Fatalf("text graph has %d vertices, want 7", fromText.NumVertices())
		}
		if err := graph.SameArrays(fromText, built); err != nil {
			t.Fatalf("text: ordered load differs from build-then-relabel: %v", err)
		}
	}
	empty := binaryOf(t, withoutWeights(t, &graph.Graph{}))
	requireOrderedLoad(t, "empty", empty, identityOrder)
}

// TestOrderedLoadRejectsBadOrders: an order that is short, long,
// out of range or not one-to-one, and a chooser that fails, make the
// load fail with an error, never a panic, on either stream.
func TestOrderedLoadRejectsBadOrders(t *testing.T) {
	g, err := graph.Build([]graph.Edge{{Src: 0, Dst: 1}, {Src: 1, Dst: 2}, {Src: 2, Dst: 0}, {Src: 3, Dst: 0}})
	if err != nil {
		t.Fatal(err)
	}
	data := binaryOf(t, g)
	failed := errors.New("no order")
	for _, tc := range []struct {
		name  string
		order []graph.VertexID
		err   error
	}{
		{"short", []graph.VertexID{0, 1, 2}, nil},
		{"long", []graph.VertexID{0, 1, 2, 3, 4}, nil},
		{"out of range", []graph.VertexID{0, 1, 2, 4}, nil},
		{"duplicate", []graph.VertexID{0, 1, 1, 3}, nil},
		{"empty", []graph.VertexID{}, nil},
		{"chooser error", nil, failed},
	} {
		choose := func([]uint32, int) ([]graph.VertexID, error) { return tc.order, tc.err }
		for _, r := range []io.Reader{bytes.NewReader(data), struct{ io.Reader }{bytes.NewReader(data)}} {
			if _, _, err := graph.ReadAutoOrdered(r, choose); err == nil {
				t.Errorf("%s: the load accepted the order", tc.name)
			} else if tc.err != nil && !errors.Is(err, tc.err) {
				t.Errorf("%s: error %v does not wrap the chooser's", tc.name, err)
			}
		}
	}
}
