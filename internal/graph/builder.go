package graph

import (
	"fmt"
	"slices"
	"sort"
)

// BuildOptions controls edge-list to CSR conversion.
type BuildOptions struct {
	// NumVertices fixes N. If 0, N is 1 + the maximum vertex ID seen
	// (0 for an empty edge list).
	NumVertices int
	// RemoveSelfLoops drops edges with Src == Dst.
	RemoveSelfLoops bool
	// RemoveDuplicates keeps a single copy of parallel edges (same
	// src, dst); the first weight wins.
	RemoveDuplicates bool
	// Weighted records edge weights; when false weights are discarded.
	Weighted bool
	// SortNeighbors sorts each adjacency list by neighbor ID, the layout
	// real CSR toolchains (GAP, Ligra) produce, and parallel edges of one
	// neighbor by weight — so the CSR is a function of the edge multiset,
	// not of the order the edge list happens to be in (which is what lets
	// Patch define its result as "equal to the rebuild"). No application
	// result depends on the tie-break: parallel edges share both endpoints.
	// Defaults to true in Build.
	SortNeighbors bool
	// Workers is the number of goroutines CSR construction may use: 0 or 1
	// (the zero value) pins the sequential path, negative means GOMAXPROCS,
	// and every parallel request is capped at 16. Parallel builds are
	// bit-identical to sequential ones (count/prefix/scatter over
	// contiguous chunks preserves edge order per vertex), so opting in
	// changes timing and transient memory only: each counting pass holds
	// N 8-byte cursors per chunk, with chunks <= min(Workers, M/2N), so at
	// most 4 B x M — one adjacency array of the graph being built — at any
	// worker count (8 M vertices, 160 M edges: 128 MB at two workers, 640 MB
	// at sixteen).
	Workers int
}

// Build converts an edge list to a dual-CSR Graph with neighbor lists
// sorted, self-loops and duplicates retained, and weights kept only if any
// edge has a nonzero weight.
func Build(edges []Edge) (*Graph, error) {
	weighted := false
	for _, e := range edges {
		if e.Weight != 0 {
			weighted = true
			break
		}
	}
	return BuildWith(edges, BuildOptions{Weighted: weighted, SortNeighbors: true})
}

// BuildWith converts an edge list to a dual-CSR Graph under opts.
func BuildWith(edges []Edge, opts BuildOptions) (*Graph, error) {
	n := opts.NumVertices
	for _, e := range edges {
		if int(e.Src) >= n {
			n = int(e.Src) + 1
		}
		if int(e.Dst) >= n {
			n = int(e.Dst) + 1
		}
	}
	if opts.NumVertices != 0 && n > opts.NumVertices {
		return nil, fmt.Errorf("graph: edge endpoint exceeds NumVertices=%d", opts.NumVertices)
	}

	if opts.RemoveSelfLoops {
		kept := edges[:0:0] // fresh backing array; edges arg stays intact
		for _, e := range edges {
			if e.Src != e.Dst {
				kept = append(kept, e)
			}
		}
		edges = kept
	}
	if opts.RemoveDuplicates {
		edges = dedupEdges(edges)
	}

	workers := buildWorkers(opts.Workers, len(edges))
	g := &Graph{n: n, m: len(edges)}
	g.outIndex, g.outEdges, g.outWeights = buildCSR(edges, n, opts.Weighted, false, workers)
	if opts.SortNeighbors {
		// Sources ascend and each sorted out-list holds its parallel edges
		// in weight order, so the transpose emits every in-list already in
		// the (neighbor, weight) order: one direction is sorted, not two.
		sortAdjacency(g.outIndex, g.outEdges, g.outWeights, workers)
		g.inIndex, g.inEdges, g.inWeights = transposeCSR(g.outIndex, g.outEdges, g.outWeights, workers)
	} else {
		g.inIndex, g.inEdges, g.inWeights = buildCSR(edges, n, opts.Weighted, true, workers)
	}
	return g, nil
}

// packedSortMax is the longest weighted list sorted through a scratch
// array of packed keys; the few longer ones (hubs) are sorted in place,
// so the scratch stays a quarter of a megabyte per worker however skewed
// the graph.
const packedSortMax = 1 << 15

// sortLists sorts the adjacency lists of vertices [lo, hi) in place, by
// the total order (neighbor, weight): the sort is unstable, so anything
// less than a total order would leave the layout of parallel edges to
// its internals and to the order of the edge list. A weighted list is
// sorted as packed (neighbor << 32 | weight) keys, which orders exactly
// so and spares the sort an interface call per comparison.
func sortLists(index []uint64, adj []VertexID, ws []uint32, lo, hi int) {
	var keys []uint64
	for v := lo; v < hi; v++ {
		s, e := index[v], index[v+1]
		if e-s < 2 {
			continue
		}
		seg := adj[s:e]
		if ws == nil {
			slices.Sort(seg)
			continue
		}
		wseg := ws[s:e]
		if len(seg) > packedSortMax {
			sort.Sort(&nbrWeightSort{seg, wseg})
			continue
		}
		keys = keys[:0]
		for i, nbr := range seg {
			keys = append(keys, uint64(nbr)<<32|uint64(wseg[i]))
		}
		slices.Sort(keys)
		for i, k := range keys {
			seg[i], wseg[i] = VertexID(k>>32), uint32(k)
		}
	}
}

// nbrWeightSort is the same total order over the two arrays in place.
type nbrWeightSort struct {
	nbrs []VertexID
	ws   []uint32
}

func (s *nbrWeightSort) Len() int { return len(s.nbrs) }
func (s *nbrWeightSort) Less(i, j int) bool {
	return s.nbrs[i] < s.nbrs[j] || s.nbrs[i] == s.nbrs[j] && s.ws[i] < s.ws[j]
}
func (s *nbrWeightSort) Swap(i, j int) {
	s.nbrs[i], s.nbrs[j] = s.nbrs[j], s.nbrs[i]
	s.ws[i], s.ws[j] = s.ws[j], s.ws[i]
}

func dedupEdges(edges []Edge) []Edge {
	seen := make(map[uint64]struct{}, len(edges))
	out := make([]Edge, 0, len(edges))
	for _, e := range edges {
		key := uint64(e.Src)<<32 | uint64(e.Dst)
		if _, dup := seen[key]; dup {
			continue
		}
		seen[key] = struct{}{}
		out = append(out, e)
	}
	return out
}

// Relabel applies a vertex permutation and returns the relabeled graph:
// newID[v] is the new ID of original vertex v and must be a bijection on
// [0, N). Relabel renames, preserving every list's order in both
// directions — the out- and in-list of newID[v] are v's lists with each
// neighbor renamed — and lays the arrays out in new-ID order, the "reorder
// vertices in memory" step of the paper (§II-E). So g.Relabel(p).Relabel(q)
// equals g.Relabel(q∘p) array for array, and a list sorted by neighbor ID
// before is sorted by the neighbor's old ID after: lists are deliberately
// not re-sorted, which would roughly double the CSR rebuild that already
// dominates reordering cost (Table XI / Fig. 10). It runs sequentially,
// keeping measured rebuild times host-independent; RelabelWorkers opts
// into the cores.
func (g *Graph) Relabel(newID []VertexID) (*Graph, error) {
	return g.RelabelWorkers(newID, 1)
}

// Transpose returns the graph with every edge reversed. In- and out-CSRs
// swap roles, so this is O(1) apart from struct copying.
func (g *Graph) Transpose() *Graph {
	return &Graph{
		n:          g.n,
		m:          g.m,
		outIndex:   g.inIndex,
		outEdges:   g.inEdges,
		outWeights: g.inWeights,
		inIndex:    g.outIndex,
		inEdges:    g.outEdges,
		inWeights:  g.outWeights,
	}
}
