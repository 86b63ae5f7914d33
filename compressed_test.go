package graphreorder

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"math/rand"
	"path/filepath"
	"reflect"
	"testing"
)

// weightedGraphUpTo builds a random weighted graph whose weights are drawn
// from 1..maxW, with at least one edge carrying maxW itself, so the
// largest weight — what decides how wide a stored weight must be — is
// exactly maxW.
func weightedGraphUpTo(t *testing.T, maxW uint32) *Graph {
	t.Helper()
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
	g, err := BuildGraph(edges)
	if err != nil {
		t.Fatal(err)
	}
	if !g.Weighted() {
		t.Fatal("built graph is not weighted")
	}
	return g
}

// TestCompressedSSSPAtEveryWeightWidth pins the compressed backend's
// weights at the boundaries of every storage width: the largest weight is
// 63, 255 (one byte), 256, 65535 (two bytes), 65536 and 2^32-1 (four).
// SSSP on the encoded graph, on a copy read back through ReadCSRZ and on
// a memory-mapped file must give the plain graph's distances at one and
// two workers, and Decode must give back every weight in both directions.
func TestCompressedSSSPAtEveryWeightWidth(t *testing.T) {
	for _, maxW := range []uint32{63, 255, 256, 65535, 65536, math.MaxUint32} {
		t.Run(fmt.Sprint(maxW), func(t *testing.T) {
			g := weightedGraphUpTo(t, maxW)
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

			for name, z := range map[string]*CompressedGraph{"encoded": cz, "read": heap, "mapped": mapped} {
				dec, err := z.Decode()
				if err != nil {
					t.Fatalf("%s: decode: %v", name, err)
				}
				for v := 0; v < g.NumVertices(); v++ {
					id := VertexID(v)
					if !reflect.DeepEqual(dec.OutWeights(id), g.OutWeights(id)) {
						t.Fatalf("%s: decoded weights of vertex %d differ from the plain graph's", name, v)
					}
				}
			}

			for _, root := range []VertexID{0, 7, 700} {
				for _, workers := range []int{1, 2} {
					want, err := Run(context.Background(), g, AppSSSP, WithRoot(root), WithWorkers(workers))
					if err != nil {
						t.Fatal(err)
					}
					for name, z := range map[string]GraphView{"encoded": cz, "read": heap, "mapped": mapped} {
						got, err := Run(context.Background(), z, AppSSSP, WithRoot(root), WithWorkers(workers))
						if err != nil {
							t.Fatalf("%s: %v", name, err)
						}
						if !reflect.DeepEqual(got.Distances(), want.Distances()) {
							t.Errorf("%s root %d workers %d: distances differ from the plain graph's", name, root, workers)
						}
					}
				}
			}
		})
	}
}
