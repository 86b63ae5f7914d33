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
	// and every parallel request is capped at 16 because each build worker
	// carries an O(N) counting array. Parallel builds are bit-identical to
	// sequential ones (count/prefix/scatter over contiguous edge chunks
	// preserves edge order per vertex), so opting in changes timing and
	// transient memory only.
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
	if workers > 1 {
		g.outIndex, g.outEdges, g.outWeights = buildCSRPar(edges, n, opts.Weighted, false, opts.SortNeighbors, workers)
		g.inIndex, g.inEdges, g.inWeights = buildCSRPar(edges, n, opts.Weighted, true, opts.SortNeighbors, workers)
	} else {
		g.outIndex, g.outEdges, g.outWeights = buildCSR(edges, n, opts.Weighted, false, opts.SortNeighbors)
		g.inIndex, g.inEdges, g.inWeights = buildCSR(edges, n, opts.Weighted, true, opts.SortNeighbors)
	}
	return g, nil
}

// buildCSR lays out one direction of the CSR with a counting sort. When
// reverse is true the in-CSR is built (keyed by Dst, storing Src). The
// parallel counterpart is buildCSRPar.
func buildCSR(edges []Edge, n int, weighted, reverse, sortNbrs bool) ([]uint64, []VertexID, []uint32) {
	index := make([]uint64, n+1)
	for _, e := range edges {
		key := e.Src
		if reverse {
			key = e.Dst
		}
		index[key+1]++
	}
	for i := 1; i <= n; i++ {
		index[i] += index[i-1]
	}

	adj := make([]VertexID, len(edges))
	var ws []uint32
	if weighted {
		ws = make([]uint32, len(edges))
	}
	cursor := make([]uint64, n)
	copy(cursor, index[:n])
	for _, e := range edges {
		key, val := e.Src, e.Dst
		if reverse {
			key, val = e.Dst, e.Src
		}
		pos := cursor[key]
		cursor[key]++
		adj[pos] = val
		if weighted {
			ws[pos] = e.Weight
		}
	}

	if sortNbrs {
		sortLists(index, adj, ws, 0, n)
	}
	return index, adj, ws
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

// Relabel applies a vertex permutation and returns the relabeled graph.
// newID[v] is the new ID of original vertex v; newID must be a bijection on
// [0, N). Edges are rewritten as (newID[src] -> newID[dst]) and both CSRs
// are rebuilt so arrays are physically laid out in new-ID order — exactly
// the "reorder vertices in memory" step of the paper (§II-E).
//
// The rebuild scatters straight from the old CSR into the new one (no
// intermediate edge list — the former implementation generated 16 bytes
// of garbage per edge per reorder) and runs sequentially, keeping
// measured rebuild times host-independent; RelabelWorkers opts into the
// multicore rebuild (bit-identical output). Adjacency lists are
// deliberately NOT re-sorted: no algorithm in this repository depends on
// neighbor order, and the per-vertex sort would roughly double the CSR
// rebuild that already dominates reordering cost (Table XI / Fig. 10
// accounting).
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
