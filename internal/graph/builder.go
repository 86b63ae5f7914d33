package graph

import (
	"fmt"
	"math/bits"
	"slices"
)

// BuildOptions controls edge-list to CSR conversion.
type BuildOptions struct {
	// NumVertices fixes N. If 0, N is 1 + the maximum vertex ID seen
	// (0 for an empty edge list).
	NumVertices int
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
	// at sixteen); sorting holds 16 B per edge of the longest list per
	// worker.
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
	if n == 0 {
		for _, e := range edges {
			n = max(n, int(e.Src)+1, int(e.Dst)+1)
		}
	}

	workers := buildWorkers(opts.Workers, len(edges))
	g := &Graph{n: n, m: len(edges)}
	outIndex, outEdges, ws, inRange := buildCSR(edges, n, opts.Weighted, false, workers)
	if !inRange {
		return nil, fmt.Errorf("graph: edge endpoint exceeds NumVertices=%d", opts.NumVertices)
	}
	g.outIndex, g.outEdges = outIndex, outEdges
	if opts.SortNeighbors {
		// Sources ascend, so the transpose emits every in-list already
		// sorted: one direction is sorted, not two. The in-CSR carries no
		// weights; parallel in-edges from one source are the same ID.
		sortAdjacency(g.outIndex, g.outEdges, ws, workers)
		g.inIndex, g.inEdges = transposeCSR(g.outIndex, g.outEdges, nil, workers)
	} else {
		g.inIndex, g.inEdges, _, _ = buildCSR(edges, n, false, true, workers)
	}
	if opts.Weighted {
		// The lists are laid out and sorted as uint32s; the graph keeps
		// them at the width their largest weight needs.
		g.outWeights, g.wb = packWeights(ws)
	}
	return g, nil
}

// Lists are sorted as packed keys. radixSortMin is the shortest list
// sorted by radix; below it a 2048-bucket count per digit costs more than
// the comparisons it saves, and slices.Sort takes the list.
const (
	radixSortMin = 256
	radixBits    = 11
	radixBuckets = 1 << radixBits
	radixDigits  = (64 + radixBits - 1) / radixBits
)

// listSorter is one worker's scratch for sorting adjacency lists: the
// packed keys and the radix sort's second buffer, which grow to the
// longest list the worker sorts (16 B per edge), and the digit counts.
type listSorter struct {
	keys, tmp []uint64
	counts    *[radixDigits][radixBuckets]int
}

// sortLists sorts the adjacency lists of vertices [lo, hi) in place, by
// the total order (neighbor, weight): anything less than a total order
// would leave the layout of parallel edges to the sort's internals and to
// the order of the edge list. A list is sorted as packed (neighbor << 32 |
// weight) keys, which orders exactly so; a list already in order, as every
// list of an edge list in CSR order is, costs one check.
func (s *listSorter) sortLists(index []uint64, adj []VertexID, ws []uint32, lo, hi int) {
	for v := lo; v < hi; v++ {
		seg := adj[index[v]:index[v+1]]
		var wseg []uint32
		if ws != nil {
			wseg = ws[index[v]:index[v+1]]
		}
		if inOrder(seg, wseg) {
			continue
		}
		keys := s.keys[:0]
		for i, nbr := range seg {
			k := uint64(nbr) << 32
			if wseg != nil {
				k |= uint64(wseg[i])
			}
			keys = append(keys, k)
		}
		s.keys = keys
		if len(keys) < radixSortMin {
			slices.Sort(keys)
		} else {
			s.tmp = slices.Grow(s.tmp[:0], len(keys))[:len(keys)]
			if s.counts == nil {
				s.counts = new([radixDigits][radixBuckets]int)
			}
			radixSort(keys, s.tmp, s.counts)
		}
		for i, k := range keys {
			seg[i] = VertexID(k >> 32)
			if wseg != nil {
				wseg[i] = uint32(k)
			}
		}
	}
}

// inOrder reports whether a list is in (neighbor, weight) order.
func inOrder(seg []VertexID, wseg []uint32) bool {
	for i := 1; i < len(seg); i++ {
		if seg[i-1] > seg[i] || seg[i-1] == seg[i] && wseg != nil && wseg[i-1] > wseg[i] {
			return false
		}
	}
	return true
}

// radixSort sorts keys ascending with tmp (as long as keys) as scratch: one
// stable counting pass per 11-bit digit, least significant first, over only
// bits that differ between keys (a graph's neighbor IDs and weights leave
// most of the 64 constant: weights below 2^11 and IDs below 2^22 take three
// passes). Equal keys are identical, so the result is slices.Sort's.
func radixSort(keys, tmp []uint64, counts *[radixDigits][radixBuckets]int) {
	if len(keys) < 2 {
		return
	}
	var diff uint64
	for _, k := range keys[1:] {
		diff |= k ^ keys[0]
	}
	// Each digit starts at the lowest varying bit the digits before it
	// leave uncovered, so the passes are as few as the varying bits allow.
	var shifts [radixDigits]uint
	nd := 0
	for diff != 0 {
		sh := uint(bits.TrailingZeros64(diff))
		shifts[nd] = sh
		nd++
		diff &^= (radixBuckets - 1) << sh
	}
	for d := range nd {
		clear(counts[d][:])
	}
	for _, k := range keys {
		for d, sh := range shifts[:nd] {
			counts[d][k>>sh&(radixBuckets-1)]++
		}
	}
	src, dst := keys, tmp
	for d, sh := range shifts[:nd] {
		c := &counts[d]
		sum := 0
		for b, cnt := range c {
			c[b] = sum
			sum += cnt
		}
		for _, k := range src {
			b := k >> sh & (radixBuckets - 1)
			dst[c[b]] = k
			c[b]++
		}
		src, dst = dst, src
	}
	if nd%2 == 1 {
		// An odd number of passes left the result in tmp.
		copy(keys, src)
	}
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
