package graphreorder

import (
	"bytes"
	"cmp"
	"context"
	"fmt"
	"math"
	"math/rand"
	"path/filepath"
	"reflect"
	"slices"
	"testing"

	"graphreorder/internal/graph"
)

// weightedEdgesUpTo draws a random weighted edge list whose weights come
// from 1..maxW, with at least one edge carrying maxW itself, so the
// largest weight — what decides how wide a stored weight must be — is
// exactly maxW.
func weightedEdgesUpTo(maxW uint32) []Edge {
	const n = 1500
	rng := rand.New(rand.NewSource(int64(maxW)))
	edges := make([]Edge, 0, 8*n)
	for v := 0; v < n; v++ {
		for i := rng.Intn(12); i > 0; i-- {
			w := 1 + uint32(rng.Int63n(int64(maxW)))
			edges = append(edges, Edge{Src: VertexID(v), Dst: VertexID(rng.Intn(n)), Weight: w})
		}
	}
	edges[len(edges)/2].Weight = maxW
	return edges
}

// TestCompressedSSSPAtEveryWeightWidth pins weights at the boundaries of
// every storage width: the largest weight is 63, 255 (one byte), 256,
// 65535 (two bytes), 65536 and 2^32-1 (four). Every path that lays out a
// weighted graph must give the SSSP distances (one and two workers) that
// Bellman-Ford finds on the graph built from the same edges, and hold its
// weights. On the plain backend these are the sorted and the unsorted
// build, a relabel at one and two workers, a patch that inserts a weight
// one width wider and one that removes it again, and the .gr round trip,
// whose Edges() must match as a multiset; on the compressed one the
// encoded graph, a copy read back through ReadCSRZ and a memory-mapped
// file, whose Decode must give back every list's weights in order.
func TestCompressedSSSPAtEveryWeightWidth(t *testing.T) {
	for _, maxW := range []uint32{63, 255, 256, 65535, 65536, math.MaxUint32} {
		t.Run(fmt.Sprint(maxW), func(t *testing.T) {
			edges := weightedEdgesUpTo(maxW)
			build := func(edges []Edge, sorted bool) *Graph {
				g, err := graph.BuildWith(edges, graph.BuildOptions{Weighted: true, SortNeighbors: sorted, Workers: 2})
				if err != nil {
					t.Fatal(err)
				}
				return g
			}
			g := build(edges, true)

			// A layout holds the graph want, whose vertex v it names
			// perm[v] (nil: the identity).
			type layout struct {
				name string
				view GraphView
				want *Graph
				perm []VertexID
			}
			var layouts []layout
			plain := func(name string, got, want *Graph, perm []VertexID) {
				t.Helper()
				if err := sameWeightedEdges(got, want, perm); err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				layouts = append(layouts, layout{name, got, want, perm})
			}

			plain("sorted build", g, g, nil)
			plain("unsorted build", build(edges, false), g, nil)

			perm := make([]VertexID, g.NumVertices())
			for i := range perm {
				perm[i] = VertexID(i)
			}
			rand.New(rand.NewSource(3)).Shuffle(len(perm), func(i, j int) { perm[i], perm[j] = perm[j], perm[i] })
			for _, workers := range []int{1, 2} {
				rg, err := g.RelabelWorkers(perm, workers)
				if err != nil {
					t.Fatal(err)
				}
				plain(fmt.Sprintf("relabel, %d workers", workers), rg, g, perm)
			}

			wider := uint32(math.MaxUint32)
			switch {
			case maxW < 1<<8:
				wider = 1 << 8
			case maxW < 1<<16:
				wider = 1 << 16
			}
			edit := graph.EdgeEdit{Src: 5, Dst: 9, Weight: wider}
			up, err := g.Patch([]graph.EdgeEdit{edit}, g.NumVertices(), nil)
			if err != nil {
				t.Fatal(err)
			}
			plain("patch inserting a wider weight", up, build(append(slices.Clone(edges), Edge{Src: 5, Dst: 9, Weight: wider}), true), nil)
			edit.Remove = true
			down, err := up.Patch([]graph.EdgeEdit{edit}, g.NumVertices(), nil)
			if err != nil {
				t.Fatal(err)
			}
			plain("patch removing it", down, g, nil)

			var gr bytes.Buffer
			if err := WriteGraphBinary(&gr, g); err != nil {
				t.Fatal(err)
			}
			back, err := ReadGraphBinary(&gr)
			if err != nil {
				t.Fatal(err)
			}
			plain(".gr round trip", back, g, nil)

			cz := CompressGraph(g)
			path := filepath.Join(t.TempDir(), "g.csrz")
			if err := WriteCSRZ(cz, path); err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			if _, err := cz.Write(&buf); err != nil {
				t.Fatal(err)
			}
			heap, err := ReadCSRZ(&buf)
			if err != nil {
				t.Fatal(err)
			}
			mapped, err := OpenCSRZ(path)
			if err != nil {
				t.Fatal(err)
			}
			defer mapped.Close()

			for _, z := range []struct {
				name string
				cg   *CompressedGraph
			}{{"encoded", cz}, {"read", heap}, {"mapped", mapped}} {
				dec, err := z.cg.Decode()
				if err != nil {
					t.Fatalf("%s: decode: %v", z.name, err)
				}
				for v := 0; v < g.NumVertices(); v++ {
					id := VertexID(v)
					if !reflect.DeepEqual(dec.OutWeightList(id).Append(nil), g.OutWeightList(id).Append(nil)) {
						t.Fatalf("%s: decoded weights of vertex %d differ from the plain graph's", z.name, v)
					}
				}
				layouts = append(layouts, layout{z.name, z.cg, g, nil})
			}

			for _, root := range []VertexID{0, 7, 700} {
				wants := make(map[*Graph][]int64)
				for _, workers := range []int{1, 2} {
					for _, l := range layouts {
						want, ok := wants[l.want]
						if !ok {
							want = ssspReference(l.want, root)
							wants[l.want] = want
						}
						gotRoot := root
						if l.perm != nil {
							gotRoot = l.perm[root]
						}
						r, err := Run(context.Background(), l.view, AppSSSP, WithRoot(gotRoot), WithWorkers(workers))
						if err != nil {
							t.Fatalf("%s: %v", l.name, err)
						}
						got := r.Distances()
						for v := range want {
							u := VertexID(v)
							if l.perm != nil {
								u = l.perm[v]
							}
							if got[u] != want[v] {
								t.Fatalf("%s root %d workers %d: distance of vertex %d is %d, want %d", l.name, root, workers, v, got[u], want[v])
							}
						}
					}
				}
			}
		})
	}
}

// ssspReference is Bellman-Ford over g's decoded Edges(): distances from
// root that share no code with the engine's in-place weight reads
// (math.MaxInt64 for unreachable, as Run reports).
func ssspReference(g *Graph, root VertexID) []int64 {
	dist := make([]int64, g.NumVertices())
	for v := range dist {
		dist[v] = math.MaxInt64
	}
	dist[root] = 0
	edges := g.Edges()
	for changed := true; changed; {
		changed = false
		for _, e := range edges {
			if d := dist[e.Src]; d != math.MaxInt64 && d+int64(e.Weight) < dist[e.Dst] {
				dist[e.Dst], changed = d+int64(e.Weight), true
			}
		}
	}
	return dist
}

// sameWeightedEdges reports whether got holds want's weighted edges, with
// want's vertex v named perm[v] in got (nil: the identity), as a multiset:
// an unsorted build lays the same edges out in another order.
func sameWeightedEdges(got, want *Graph, perm []VertexID) error {
	if !got.Weighted() {
		return fmt.Errorf("not weighted")
	}
	inv := make([]VertexID, len(perm))
	for v, id := range perm {
		inv[id] = VertexID(v)
	}
	a := got.Edges()
	for i, e := range a {
		if perm != nil {
			a[i].Src, a[i].Dst = inv[e.Src], inv[e.Dst]
		}
	}
	b := want.Edges()
	byTriple := func(x, y Edge) int {
		return cmp.Or(cmp.Compare(x.Src, y.Src), cmp.Compare(x.Dst, y.Dst), cmp.Compare(x.Weight, y.Weight))
	}
	slices.SortFunc(a, byTriple)
	slices.SortFunc(b, byTriple)
	if !slices.Equal(a, b) {
		return fmt.Errorf("edges (with weights) differ from the built graph's")
	}
	return nil
}
