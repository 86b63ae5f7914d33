package dynamic

import (
	"bytes"
	"fmt"
	"runtime"
	"slices"
	"testing"

	"graphreorder/internal/gen"
	"graphreorder/internal/graph"
	"graphreorder/internal/rng"
)

// refGraph is the map-based implementation the flat index replaced
// (map[edgeKey][]int, one position list per key), kept here as the model
// the index is checked against: same validation, same choice of which
// parallel instance a removal takes, same swap-with-last edge list.
type refGraph struct {
	n        int
	edges    []graph.Edge
	weighted bool
	index    map[edgeKey][]int
	outDeg   []int32
	inDeg    []int32
	batches  int
}

func refFromGraph(g *graph.Graph) *refGraph {
	r := &refGraph{
		n:        g.NumVertices(),
		edges:    g.Edges(),
		weighted: g.Weighted(),
		index:    make(map[edgeKey][]int),
		outDeg:   make([]int32, g.NumVertices()),
		inDeg:    make([]int32, g.NumVertices()),
	}
	for i, e := range r.edges {
		k := edgeKey{e.Src, e.Dst}
		r.index[k] = append(r.index[k], i)
		r.outDeg[e.Src]++
		r.inDeg[e.Dst]++
	}
	return r
}

func (r *refGraph) applyGrow(addVertices int, batch []Update) error {
	if addVertices < 0 {
		return fmt.Errorf("negative growth")
	}
	n := r.n + addVertices
	delta := make(map[edgeKey]int)
	for _, u := range batch {
		if int(u.Edge.Src) >= n || int(u.Edge.Dst) >= n {
			return fmt.Errorf("edge outside vertex space")
		}
		k := edgeKey{u.Edge.Src, u.Edge.Dst}
		if !u.Remove {
			delta[k]++
			continue
		}
		if len(r.index[k])+delta[k] <= 0 {
			return fmt.Errorf("removing absent edge")
		}
		delta[k]--
	}
	r.n = n
	r.outDeg = append(r.outDeg, make([]int32, addVertices)...)
	r.inDeg = append(r.inDeg, make([]int32, addVertices)...)
	for _, u := range batch {
		if u.Remove {
			r.remove(u.Edge.Src, u.Edge.Dst)
		} else {
			k := edgeKey{u.Edge.Src, u.Edge.Dst}
			r.index[k] = append(r.index[k], len(r.edges))
			r.edges = append(r.edges, u.Edge)
			r.outDeg[u.Edge.Src]++
			r.inDeg[u.Edge.Dst]++
		}
	}
	r.batches++
	return nil
}

func (r *refGraph) remove(src, dst graph.VertexID) {
	k := edgeKey{src, dst}
	ids := r.index[k]
	pos := ids[len(ids)-1]
	if len(ids) == 1 {
		delete(r.index, k)
	} else {
		r.index[k] = ids[:len(ids)-1]
	}
	last := len(r.edges) - 1
	moved := r.edges[last]
	r.edges[pos] = moved
	r.edges = r.edges[:last]
	if pos != last {
		mids := r.index[edgeKey{moved.Src, moved.Dst}]
		for i := len(mids) - 1; i >= 0; i-- {
			if mids[i] == last {
				mids[i] = pos
				break
			}
		}
	}
	r.outDeg[src]--
	r.inDeg[dst]--
}

func (r *refGraph) snapshot(t *testing.T) *graph.Graph {
	t.Helper()
	g, err := graph.BuildWith(r.edges, graph.BuildOptions{
		NumVertices: r.n, Weighted: r.weighted, SortNeighbors: true})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func csrBytes(t *testing.T, g *graph.Graph) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := graph.WriteBinary(&buf, g); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// checkAgainstModel compares everything observable — and the edge list
// itself, which fixes the CSR an unstable neighbor sort produces.
func checkAgainstModel(t *testing.T, step string, d *Graph, r *refGraph) {
	t.Helper()
	if d.NumVertices() != r.n || d.NumEdges() != len(r.edges) || d.Batches() != r.batches {
		t.Fatalf("%s: n/m/batches = %d/%d/%d, model %d/%d/%d", step,
			d.NumVertices(), d.NumEdges(), d.Batches(), r.n, len(r.edges), r.batches)
	}
	if !slices.Equal(d.edges, r.edges) {
		t.Fatalf("%s: edge lists diverged", step)
	}
	if !slices.Equal(d.outDeg, r.outDeg) || !slices.Equal(d.inDeg, r.inDeg) {
		t.Fatalf("%s: degrees diverged", step)
	}
	for k, ids := range r.index {
		if got := d.Count(k.src, k.dst); got != len(ids) {
			t.Fatalf("%s: Count(%d,%d) = %d, model %d", step, k.src, k.dst, got, len(ids))
		}
	}
	if d.keys != len(r.index) {
		t.Fatalf("%s: %d distinct keys indexed, model %d", step, d.keys, len(r.index))
	}
	for v := 0; v < r.n; v++ { // absent keys, including ones whose last instance was just removed
		k := edgeKey{graph.VertexID(v), graph.VertexID((v * 7) % r.n)}
		if got := d.Count(k.src, k.dst); got != len(r.index[k]) {
			t.Fatalf("%s: Count(%d,%d) = %d, model %d", step, k.src, k.dst, got, len(r.index[k]))
		}
	}
	snap, err := d.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(csrBytes(t, snap), csrBytes(t, r.snapshot(t))) {
		t.Fatalf("%s: snapshot CSR differs from the model's", step)
	}
}

// TestIndexMatchesMapModel drives the flat index and the map model with
// the same seeded schedules of insert / remove / grow batches and
// requires identical state after every batch, failed ones included.
func TestIndexMatchesMapModel(t *testing.T) {
	for seed := uint64(1); seed <= 6; seed++ {
		rnd := rng.New(seed)
		// A small vertex space makes parallel edges, probe-run collisions
		// and table growth (8 slots at the start) all common.
		n := 6 + rnd.Intn(20)
		vertex := func() graph.VertexID { return graph.VertexID(rnd.Intn(n)) }
		weight := func() uint32 { return uint32(1 + rnd.Intn(1000)) } // parallel edges get distinct weights
		var initial []graph.Edge
		for i := rnd.Intn(40); i > 0; i-- {
			initial = append(initial, graph.Edge{Src: vertex(), Dst: vertex(), Weight: weight()})
		}
		g, err := graph.BuildWith(initial, graph.BuildOptions{NumVertices: n, Weighted: true, SortNeighbors: true})
		if err != nil {
			t.Fatal(err)
		}
		d, r := FromGraph(g), refFromGraph(g)
		checkAgainstModel(t, fmt.Sprintf("seed %d start", seed), d, r)

		for step := 0; step < 150; step++ {
			var batch []Update
			grow := 0
			if rnd.Intn(10) == 0 {
				grow = 1 + rnd.Intn(3)
				n += grow // the batch may reference the new vertices
			}
			for i := 1 + rnd.Intn(12); i > 0; i-- {
				switch c := rnd.Intn(10); {
				case c < 4 || len(r.edges) == 0:
					batch = append(batch, Update{Edge: graph.Edge{Src: vertex(), Dst: vertex(), Weight: weight()}})
				case c < 8: // removal of a present edge (may repeat a key: valid only while instances last)
					e := r.edges[rnd.Intn(len(r.edges))]
					batch = append(batch, Update{Remove: true, Edge: e})
				default: // remove-then-reinsert inside one batch, with a new weight
					e := r.edges[rnd.Intn(len(r.edges))]
					batch = append(batch, Update{Remove: true, Edge: e},
						Update{Edge: graph.Edge{Src: e.Src, Dst: e.Dst, Weight: weight()}})
				}
			}
			switch rnd.Intn(8) { // poison some batches after valid updates
			case 0:
				batch = append(batch, Update{Edge: graph.Edge{Src: graph.VertexID(n), Dst: 0, Weight: 1}})
			case 1:
				k := edgeKey{vertex(), vertex()}
				for i := 0; i <= len(r.index[k]); i++ {
					batch = append(batch, Update{Remove: true, Edge: graph.Edge{Src: k.src, Dst: k.dst}})
				}
			}
			_, gotErr := d.ApplyGrow(grow, batch)
			wantErr := r.applyGrow(grow, batch)
			if (gotErr == nil) != (wantErr == nil) {
				t.Fatalf("seed %d step %d: error %v, model %v", seed, step, gotErr, wantErr)
			}
			if wantErr != nil {
				n -= grow // a failed batch does not even grow
			}
			checkAgainstModel(t, fmt.Sprintf("seed %d step %d", seed, step), d, r)
		}
	}
}

// TestFromGraphFootprint pins what the index retains for a serving-size
// graph: at most 45 bytes per edge all in (edge list included), in a
// handful of allocations — nothing per edge, nothing the collector scans.
func TestFromGraphFootprint(t *testing.T) {
	g, err := gen.Generate(gen.MustDataset("sd", gen.Small))
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	d := FromGraph(g)
	runtime.GC()
	runtime.ReadMemStats(&after)
	perEdge := float64(after.HeapAlloc-before.HeapAlloc) / float64(d.NumEdges())
	allocs := after.Mallocs - before.Mallocs
	t.Logf("FromGraph(sd/small): %.1f B/edge in %d allocations (%d edges)", perEdge, allocs, d.NumEdges())
	if perEdge > 45 {
		t.Errorf("FromGraph retains %.1f B/edge, want <= 45", perEdge)
	}
	if allocs > 64 {
		t.Errorf("FromGraph made %d allocations, want a constant handful", allocs)
	}
	runtime.KeepAlive(d)
}
