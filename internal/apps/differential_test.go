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

// TestAppsBitIdenticalOnCompressedBackend is the determinism contract,
// backend by backend and worker count by worker count: every application
// must compute the same answer on the plain CSR, the heap-backed
// compressed graph, and a memory-mapped .csrz file of the same layout,
// at 1, 2 and 4 workers. The codec preserves stored neighbor order and
// the engine hands every backend's lists to the same two kernels, so
// wherever the engine itself is deterministic the contract is
// bit-identity with the one-worker run on the plain graph: checksum, full
// value vector and traversal shape (iterations, edges). That is every
// workers=1 run, and PR and PRD at any worker count — both are
// destination-owned, each sum added by one worker in stored in-list
// order. Parallel push (SSSP, BC, Radii at workers>1) claims vertices in
// scheduling order on every backend, plain included: the integer results
// (SSSP distances, Radii) must still be exact, BC — whose push rounds add
// path counts by compare-and-swap — agrees to a relative L1 of 1e-9, and
// the traversal shape is not compared.
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
	}{{"plain", g}, {"csrz-heap", cz}, {"csrz-mmap", mapped}}

	for _, spec := range All() {
		ref, err := spec.Run(Input{Graph: g, Roots: roots, Workers: 1})
		if err != nil {
			t.Fatalf("%s/plain/w1: %v", spec.Name, err)
		}
		destinationOwned := spec.Name == "PR" || spec.Name == "PRD"
		for _, workers := range []int{1, 2, 4} {
			scheduled := workers > 1 && !destinationOwned
			for _, be := range backends {
				out, err := spec.Run(Input{Graph: be.g, Roots: roots, Workers: workers})
				if err != nil {
					t.Fatalf("%s/%s/w%d: %v", spec.Name, be.name, workers, err)
				}
				name := fmt.Sprintf("%s/%s/w%d", spec.Name, be.name, workers)
				want, floats := ref.Values.([]float64)
				if scheduled && floats {
					if d := relL1(out.Values.([]float64), want); d > 1e-9 {
						t.Errorf("%s: value vector differs from plain/w1 by relative L1 %g", name, d)
					}
					continue
				}
				if out.Checksum != ref.Checksum {
					t.Errorf("%s: checksum %v != plain/w1 %v", name, out.Checksum, ref.Checksum)
				}
				if !reflect.DeepEqual(out.Values, ref.Values) {
					t.Errorf("%s: value vector differs from plain/w1", name)
				}
				if scheduled {
					continue
				}
				if out.Iterations != ref.Iterations || out.EdgesTraversed != ref.EdgesTraversed ||
					!reflect.DeepEqual(out.Frontiers, ref.Frontiers) {
					t.Errorf("%s: traversal shape (%d iters, %d edges) != plain/w1 (%d, %d)",
						name, out.Iterations, out.EdgesTraversed, ref.Iterations, ref.EdgesTraversed)
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

// pushCounter is a write-tracking Tracer that counts events by direction.
type pushCounter struct {
	pushEdges, pullEdges, visits, writes uint64
}

func (c *pushCounter) VertexVisited(graph.VertexID, bool) { c.visits++ }
func (c *pushCounter) PropertyWritten(graph.VertexID)     { c.writes++ }
func (c *pushCounter) EdgeExamined(_, _ graph.VertexID, pull bool) {
	if pull {
		c.pullEdges++
	} else {
		c.pushEdges++
	}
}

// TestTracedAndExecutedFormsAgree pins the one-form contract: a traced
// run executes the same callbacks as an untraced one, pinned to one worker
// whatever it asks for, so it must equal the untraced one-worker run bit
// for bit — values, frontiers, iterations and edges, PRD included. What
// the tracer sees is what runs: PR and PRD pull every in-edge every round
// and report no write, SSSP pushes the frontier's out-edges and reports
// at most one write per edge.
func TestTracedAndExecutedFormsAgree(t *testing.T) {
	g := parallelTestGraph(t, true)
	m := uint64(g.NumEdges())
	roots := []graph.VertexID{pickRoot(g), 5, 9, 100, 200, 300}
	for _, spec := range All() {
		var c pushCounter
		traced, err := spec.Run(Input{Graph: g, Roots: roots, MaxIters: 10, Tracer: &c, Workers: 4})
		if err != nil {
			t.Fatalf("%s traced: %v", spec.Name, err)
		}
		executed, err := spec.Run(Input{Graph: g, Roots: roots, MaxIters: 10, Workers: 1})
		if err != nil {
			t.Fatalf("%s: %v", spec.Name, err)
		}
		if !reflect.DeepEqual(executed.Values, traced.Values) || executed.Checksum != traced.Checksum {
			t.Errorf("%s: traced values differ from the untraced one-worker run's", spec.Name)
		}
		if executed.Iterations != traced.Iterations || executed.EdgesTraversed != traced.EdgesTraversed ||
			!reflect.DeepEqual(executed.Frontiers, traced.Frontiers) {
			t.Errorf("%s: traced run walks frontiers %v (%d edges), untraced %v (%d)",
				spec.Name, traced.Frontiers, traced.EdgesTraversed, executed.Frontiers, executed.EdgesTraversed)
		}
		switch spec.Name {
		case "PR", "PRD":
			if want := uint64(traced.Iterations) * m; c.pullEdges != want || c.pushEdges != 0 || c.writes != 0 {
				t.Errorf("traced %s: %d pull edges, %d push edges, %d writes; want %d pull edges (every in-edge, %d rounds) and nothing else",
					spec.Name, c.pullEdges, c.pushEdges, c.writes, want, traced.Iterations)
			}
		case "SSSP":
			if c.pullEdges != 0 || c.pushEdges != traced.EdgesTraversed || c.writes == 0 || c.writes > c.pushEdges {
				t.Errorf("traced SSSP: %d push edges, %d pull edges, %d writes; want %d push edges, no pull, 0 < writes <= edges",
					c.pushEdges, c.pullEdges, c.writes, traced.EdgesTraversed)
			}
		}
	}
}
