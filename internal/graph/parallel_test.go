package graph

import (
	"cmp"
	"reflect"
	"slices"
	"testing"

	"graphreorder/internal/rng"
)

// randomEdges synthesizes a messy edge list: skewed degrees, duplicate
// parallel edges, self loops, optional weights — everything the builder
// has to preserve bit-identically across worker counts.
func randomEdges(n, m int, weighted bool, seed uint64) []Edge {
	r := rng.NewStream(seed, 0xE)
	edges := make([]Edge, 0, m)
	for i := 0; i < m; i++ {
		src := VertexID(r.Intn(n))
		// Square the destination draw toward low IDs for skew.
		d1, d2 := r.Intn(n), r.Intn(n)
		dst := VertexID(min(d1, d2))
		e := Edge{Src: src, Dst: dst}
		if weighted {
			e.Weight = uint32(1 + r.Intn(100))
		}
		edges = append(edges, e)
		if i%17 == 0 { // sprinkle exact duplicates
			edges = append(edges, e)
		}
		if i%23 == 0 { // and self loops
			edges = append(edges, Edge{Src: src, Dst: src, Weight: e.Weight})
		}
	}
	return edges
}

func graphsEqual(t *testing.T, tag string, a, b *Graph) {
	t.Helper()
	if a.n != b.n || a.m != b.m {
		t.Fatalf("%s: dimensions (%d,%d) vs (%d,%d)", tag, a.n, a.m, b.n, b.m)
	}
	if !reflect.DeepEqual(a.outIndex, b.outIndex) {
		t.Errorf("%s: outIndex differs", tag)
	}
	if !reflect.DeepEqual(a.outEdges, b.outEdges) {
		t.Errorf("%s: outEdges differs", tag)
	}
	if !reflect.DeepEqual(a.inIndex, b.inIndex) {
		t.Errorf("%s: inIndex differs", tag)
	}
	if !reflect.DeepEqual(a.inEdges, b.inEdges) {
		t.Errorf("%s: inEdges differs", tag)
	}
	if a.wb != b.wb || !reflect.DeepEqual(a.outWeights, b.outWeights) {
		t.Errorf("%s: outWeights differs", tag)
	}
}

// TestBuildParallelBitIdentical: the parallel count/prefix/scatter must
// reproduce the sequential counting sort exactly — including duplicate
// edge order and weight alignment — for every worker count and both
// neighbor-sort settings.
func TestBuildParallelBitIdentical(t *testing.T) {
	const n = 500
	for _, weighted := range []bool{false, true} {
		// Enough edges to clear parallelBuildThreshold so the parallel
		// path actually runs.
		edges := randomEdges(n, parallelBuildThreshold+2000, weighted, 0xC0)
		for _, sortNbrs := range []bool{false, true} {
			opts := BuildOptions{NumVertices: n, Weighted: weighted, SortNeighbors: sortNbrs, Workers: 1}
			seq, err := BuildWith(edges, opts)
			if err != nil {
				t.Fatal(err)
			}
			if err := seq.Validate(); err != nil {
				t.Fatal(err)
			}
			for _, w := range []int{2, 3, 7} {
				opts.Workers = w
				par, err := BuildWith(edges, opts)
				if err != nil {
					t.Fatal(err)
				}
				graphsEqual(t, "build", seq, par)
			}
		}
	}
}

// csrOfSorted lays out one direction of a CSR from edge triples already in
// list order: key picks the vertex that owns the edge, val its neighbor.
func csrOfSorted(edges []Edge, n int, weighted bool, key, val func(Edge) VertexID) ([]uint64, []VertexID, []uint32) {
	index := make([]uint64, n+1)
	adj := make([]VertexID, 0, len(edges))
	var ws []uint32
	if weighted {
		ws = make([]uint32, 0, len(edges))
	}
	for _, e := range edges {
		index[key(e)+1]++
		adj = append(adj, val(e))
		if weighted {
			ws = append(ws, e.Weight)
		}
	}
	for v := 0; v < n; v++ {
		index[v+1] += index[v]
	}
	return index, adj, ws
}

// TestBuildMatchesSortedTriples holds the sorted build against an oracle
// that shares nothing with it: the edge triples sorted as (src, dst, w)
// are the out-CSR and sorted as (dst, src) the in-CSR, array for array,
// at every worker count — on a multigraph with duplicates and self loops,
// one vertex whose out- and in-list are both past radixSortMin, one whose
// out-list arrives already sorted, and one whose out-list arrives in
// neighbor order with its parallel edges in descending weight order.
// Weights are absent, few (long runs of equal keys) or over the whole
// uint32 range (every weight digit of the packed key varies).
func TestBuildMatchesSortedTriples(t *testing.T) {
	const n = 502 // randomEdges uses [0, 500); 500 and 501 are the hubs in neighbor order
	src, dst := func(e Edge) VertexID { return e.Src }, func(e Edge) VertexID { return e.Dst }
	for _, tc := range []struct {
		name     string
		weighted bool
		weight   func(r *rng.Rand) uint32
	}{
		{"unweighted", false, func(*rng.Rand) uint32 { return 0 }},
		{"few weights", true, func(r *rng.Rand) uint32 { return uint32(1 + r.Intn(5)) }},
		{"uint32 weights", true, func(r *rng.Rand) uint32 { return r.Uint32() }},
	} {
		edges := randomEdges(n-2, parallelBuildThreshold+2000, tc.weighted, 0xC7)
		r := rng.NewStream(0xC7, 1)
		if tc.weighted {
			for i := range edges {
				edges[i].Weight = tc.weight(r)
			}
		}
		for i := 0; i < 4*radixSortMin; i++ {
			w := tc.weight(r)
			edges = append(edges,
				Edge{Src: 7, Dst: VertexID(r.Intn(40)), Weight: w},
				Edge{Src: VertexID(r.Intn(40)), Dst: 7, Weight: w})
		}
		for i := len(edges) - 1; i > 0; i-- {
			j := r.Intn(i + 1)
			edges[i], edges[j] = edges[j], edges[i]
		}
		for d := VertexID(0); d < n-2; d++ {
			lo, hi := tc.weight(r), tc.weight(r)
			lo, hi = min(lo, hi), max(lo, hi)
			edges = append(edges,
				Edge{Src: n - 2, Dst: d, Weight: lo}, Edge{Src: n - 2, Dst: d, Weight: hi},
				Edge{Src: n - 1, Dst: d, Weight: hi}, Edge{Src: n - 1, Dst: d, Weight: lo})
		}

		want := &Graph{n: n, m: len(edges)}
		sorted := slices.Clone(edges)
		slices.SortFunc(sorted, func(a, b Edge) int {
			return cmp.Or(cmp.Compare(a.Src, b.Src), cmp.Compare(a.Dst, b.Dst), cmp.Compare(a.Weight, b.Weight))
		})
		var ws []uint32
		want.outIndex, want.outEdges, ws = csrOfSorted(sorted, n, tc.weighted, src, dst)
		if tc.weighted {
			want.outWeights, want.wb = packWeights(ws)
		}
		slices.SortFunc(sorted, func(a, b Edge) int {
			return cmp.Or(cmp.Compare(a.Dst, b.Dst), cmp.Compare(a.Src, b.Src))
		})
		want.inIndex, want.inEdges, _ = csrOfSorted(sorted, n, false, dst, src)
		if want.OutDegree(7) < radixSortMin || want.InDegree(7) < radixSortMin {
			t.Fatal("no list reaches the radix sort")
		}

		for _, w := range []int{1, 2, 3, 7} {
			got, err := BuildWith(edges, BuildOptions{NumVertices: n, Weighted: tc.weighted, SortNeighbors: true, Workers: w})
			if err != nil {
				t.Fatal(err)
			}
			if err := got.Validate(); err != nil {
				t.Fatalf("%s, workers=%d: %v", tc.name, w, err)
			}
			graphsEqual(t, tc.name+": build vs sorted triples", want, got)
		}
	}
}

// randomPerm returns a seeded random permutation of [0, n).
func randomPerm(n int, seed uint64) []VertexID {
	perm := make([]VertexID, n)
	for i := range perm {
		perm[i] = VertexID(i)
	}
	r := rng.NewStream(seed, 5)
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		perm[i], perm[j] = perm[j], perm[i]
	}
	return perm
}

// TestRelabelComposes: Relabel renames and keeps every list's order in
// both directions, so relabeling twice is relabeling once by the composed
// permutation, array for array — whatever order the lists were in.
func TestRelabelComposes(t *testing.T) {
	const n = 700
	for _, weighted := range []bool{false, true} {
		for _, sortNbrs := range []bool{true, false} {
			edges := randomEdges(n, parallelBuildThreshold+3000, weighted, 0xD2)
			g, err := BuildWith(edges, BuildOptions{NumVertices: n, Weighted: weighted, SortNeighbors: sortNbrs})
			if err != nil {
				t.Fatal(err)
			}
			p, q := randomPerm(n, 6), randomPerm(n, 7)
			qp := make([]VertexID, n)
			for v := range qp {
				qp[v] = q[p[v]]
			}
			for _, w := range []int{1, 3} {
				once, err := g.RelabelWorkers(qp, w)
				if err != nil {
					t.Fatal(err)
				}
				mid, err := g.RelabelWorkers(p, w)
				if err != nil {
					t.Fatal(err)
				}
				twice, err := mid.RelabelWorkers(q, w)
				if err != nil {
					t.Fatal(err)
				}
				graphsEqual(t, "relabel(p) then relabel(q) vs relabel(q∘p)", once, twice)
			}
		}
	}
}

// TestRelabelParallelBitIdentical: on a canonically ordered graph the
// list-by-list copy must reproduce what the old edge-list rebuild
// produced, at every worker count, on weighted multigraphs with self
// loops.
func TestRelabelParallelBitIdentical(t *testing.T) {
	const n = 700
	for _, weighted := range []bool{false, true} {
		edges := randomEdges(n, parallelBuildThreshold+3000, weighted, 0xD1)
		g, err := BuildWith(edges, BuildOptions{NumVertices: n, Weighted: weighted, SortNeighbors: true, Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		perm := randomPerm(n, 5)
		want := relabelViaEdgeList(t, g, perm)
		for _, w := range []int{1, 2, 3, 8} {
			got, err := g.RelabelWorkers(perm, w)
			if err != nil {
				t.Fatal(err)
			}
			if err := got.Validate(); err != nil {
				t.Fatalf("workers=%d: %v", w, err)
			}
			graphsEqual(t, "relabel", want, got)
		}
	}
}

// relabelViaEdgeList is the previous Relabel implementation (materialize
// the renamed edge list, rebuild sequentially), kept as the reference the
// direct scatter must match.
func relabelViaEdgeList(t *testing.T, g *Graph, newID []VertexID) *Graph {
	t.Helper()
	edges := make([]Edge, 0, g.m)
	for v := 0; v < g.n; v++ {
		nbrs := g.OutNeighbors(VertexID(v))
		ws := g.OutWeightList(VertexID(v)).Append(nil)
		for i, dst := range nbrs {
			e := Edge{Src: newID[v], Dst: newID[dst]}
			if ws != nil {
				e.Weight = ws[i]
			}
			edges = append(edges, e)
		}
	}
	ng, err := BuildWith(edges, BuildOptions{
		NumVertices: g.n, Weighted: g.Weighted(), SortNeighbors: false, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	return ng
}

func TestRelabelWorkersRejectsBadPermutation(t *testing.T) {
	g, err := Build([]Edge{{Src: 0, Dst: 1}, {Src: 1, Dst: 2}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g.RelabelWorkers([]VertexID{0, 1}, 2); err == nil {
		t.Error("short permutation accepted")
	}
	if _, err := g.RelabelWorkers([]VertexID{0, 0, 1}, 2); err == nil {
		t.Error("non-bijective permutation accepted")
	}
	if _, err := g.RelabelWorkers([]VertexID{0, 1, 3}, 2); err == nil {
		t.Error("out-of-range permutation accepted")
	}
}
