package apps

import (
	"fmt"
	"math"
	"path/filepath"
	"reflect"
	"testing"

	"graphreorder/internal/csrz"
	"graphreorder/internal/gen"
	"graphreorder/internal/graph"
)

// TestAppsBitIdenticalOnCompressedBackend is the compressed backend's
// differential gate: every application must compute the same answer on
// the plain CSR, the heap-backed compressed graph, and a memory-mapped
// .csrz file of the same layout. The codec preserves stored neighbor
// order, so wherever the engine itself is deterministic — every
// workers=1 run, and pull-mode PR at any worker count — the contract is
// bit-identity: checksum, full value vector and traversal shape.
// Parallel push (PRD, SSSP, BC, Radii at workers>1) claims vertices and
// adds floats in scheduling order on every backend, plain included, so
// there the integer results (SSSP distances, Radii) must still be exact,
// the float ones (PRD, BC) agree to a relative L1 of 1e-9, and the
// traversal shape is not compared.
func TestAppsBitIdenticalOnCompressedBackend(t *testing.T) {
	g, err := gen.Generate(gen.MustDataset("lj", gen.Tiny))
	if err != nil {
		t.Fatal(err)
	}
	cz := csrz.Encode(g)

	path := filepath.Join(t.TempDir(), "lj.csrz")
	if err := cz.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	mapped, err := csrz.OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer mapped.Close()

	roots := make([]graph.VertexID, 32)
	for i := range roots {
		roots[i] = graph.VertexID((i * 37) % g.NumVertices())
	}
	backends := []struct {
		name string
		g    graph.View
	}{{"csrz-heap", cz}, {"csrz-mmap", mapped}}

	for _, spec := range All() {
		for _, workers := range []int{1, 4} {
			base, err := spec.Run(Input{Graph: g, Roots: roots, Workers: workers})
			if err != nil {
				t.Fatalf("%s/plain/w%d: %v", spec.Name, workers, err)
			}
			scheduled := workers > 1 && spec.Name != "PR"
			for _, be := range backends {
				out, err := spec.Run(Input{Graph: be.g, Roots: roots, Workers: workers})
				if err != nil {
					t.Fatalf("%s/%s/w%d: %v", spec.Name, be.name, workers, err)
				}
				name := fmt.Sprintf("%s/%s/w%d", spec.Name, be.name, workers)
				want, floats := base.Values.([]float64)
				if scheduled && floats {
					if d := relL1(out.Values.([]float64), want); d > 1e-9 {
						t.Errorf("%s: value vector differs from plain backend by relative L1 %g", name, d)
					}
					continue
				}
				if out.Checksum != base.Checksum {
					t.Errorf("%s: checksum %v != plain %v", name, out.Checksum, base.Checksum)
				}
				if !reflect.DeepEqual(out.Values, base.Values) {
					t.Errorf("%s: value vector differs from plain backend", name)
				}
				if scheduled {
					continue
				}
				if out.Iterations != base.Iterations || out.EdgesTraversed != base.EdgesTraversed {
					t.Errorf("%s: traversal shape (%d iters, %d edges) != plain (%d, %d)",
						name, out.Iterations, out.EdgesTraversed, base.Iterations, base.EdgesTraversed)
				}
			}
		}
	}
}

// relL1 is sum|got-want| / sum|want|.
func relL1(got, want []float64) float64 {
	if len(got) != len(want) {
		return math.Inf(1)
	}
	var diff, norm float64
	for i := range want {
		diff += math.Abs(got[i] - want[i])
		norm += math.Abs(want[i])
	}
	if norm == 0 {
		return diff
	}
	return diff / norm
}
