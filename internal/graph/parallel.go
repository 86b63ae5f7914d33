package graph

import (
	"sync/atomic"

	"graphreorder/internal/par"
)

// CSR construction and relabeling kernels. A build is a counting sort:
// workers own contiguous input chunks, a sequential prefix pass turns
// per-(chunk, key) counts into scatter offsets, and because chunk order
// preserves input order the output is the same at every worker count (one
// chunk is the sequential build). A relabel needs no counters: every list
// is copied whole into the segment its renamed owner gets.

// parallelBuildThreshold is the edge count below which goroutine fan-out
// costs more than it saves and construction stays sequential.
const parallelBuildThreshold = 1 << 13

// maxBuildWorkers bounds CSR-construction parallelism regardless of the
// request; countingChunks bounds the O(N) cursor arrays they carry.
const maxBuildWorkers = 16

// buildWorkers normalizes a requested worker count for CSR construction:
// 0 or 1 pins the sequential path (the zero value means sequential
// everywhere in this repository), negative means GOMAXPROCS, and every
// parallel request is capped at maxBuildWorkers. Tiny inputs always run
// sequentially.
func buildWorkers(requested, numEdges int) int {
	if numEdges < parallelBuildThreshold || requested == 0 || requested == 1 {
		return 1
	}
	w := requested
	if w < 0 {
		w = par.Resolve(w)
	}
	if w > maxBuildWorkers {
		w = maxBuildWorkers
	}
	return w
}

// evenBounds splits [0, n) into parts equal contiguous ranges.
func evenBounds(n, parts int) []int {
	if parts > n {
		parts = n
	}
	if parts < 1 {
		parts = 1
	}
	bounds := make([]int, parts+1)
	for c := 0; c <= parts; c++ {
		bounds[c] = c * n / parts
	}
	return bounds
}

// countingChunks is how many chunks a counting pass over m edges into n
// keys is split into. Each chunk carries n uint64 cursors and the prefix
// over them is sequential, so chunks x n is held to m/2: the cursors of a
// build never take more memory than one adjacency array of its output
// (4 B x M), and a graph too sparse for that is counted by fewer workers
// than were asked for.
func countingChunks(workers, n, m int) int {
	if n > 0 && workers > m/(2*n) {
		workers = m / (2 * n)
	}
	return max(workers, 1)
}

// prefixCounts turns per-chunk key counts into scatter cursors, in place,
// and returns the CSR index. The prefix runs key-major, chunk-minor: chunk
// c's cursor for key k starts after all edges of earlier keys plus earlier
// chunks of k, which is exactly the position a sequential counting sort
// assigns.
func prefixCounts(counts [][]uint64, n int) []uint64 {
	index := make([]uint64, n+1)
	var running uint64
	for k := 0; k < n; k++ {
		index[k] = running
		for _, cnt := range counts {
			c := cnt[k]
			cnt[k] = running
			running += c
		}
	}
	index[n] = running
	return index
}

// buildCSR lays out one direction of the CSR with a counting sort over
// contiguous chunks of the edge list (one chunk is the sequential build).
// When reverse is true the in-CSR is built (keyed by Dst, storing Src).
// Within a list, edges keep their edge-list order. The count pass checks
// every endpoint against n and buildCSR reports false, building nothing,
// if one is out of range.
func buildCSR(edges []Edge, n int, weighted, reverse bool, workers int) ([]uint64, []VertexID, []uint32, bool) {
	bounds := evenBounds(len(edges), countingChunks(workers, n, len(edges)))
	numChunks := len(bounds) - 1

	counts := make([][]uint64, numChunks)
	var outOfRange atomic.Bool
	par.For(numChunks, workers, 1, func(clo, chi int) {
		for c := clo; c < chi; c++ {
			cnt := make([]uint64, n)
			for _, e := range edges[bounds[c]:bounds[c+1]] {
				if int(max(e.Src, e.Dst)) >= n {
					outOfRange.Store(true)
					return
				}
				key := e.Src
				if reverse {
					key = e.Dst
				}
				cnt[key]++
			}
			counts[c] = cnt
		}
	})
	if outOfRange.Load() {
		return nil, nil, nil, false
	}
	index := prefixCounts(counts, n)

	adj := make([]VertexID, len(edges))
	var ws []uint32
	if weighted {
		ws = make([]uint32, len(edges))
	}
	par.For(numChunks, workers, 1, func(clo, chi int) {
		for c := clo; c < chi; c++ {
			cursor := counts[c]
			for _, e := range edges[bounds[c]:bounds[c+1]] {
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
		}
	})
	return index, adj, ws, true
}

// transposeCSR returns the opposite direction of a compact CSR, without weights:
// the same counting sort, fed from the lists instead of an edge list. It
// visits the sources in ascending order of their original ID — v's list
// is stored under newID[v], or under v when newID is nil — over ranges of
// original IDs (edge-balanced without newID), so every output list holds
// its neighbors in original-ID order, renamed.
func transposeCSR(index []uint64, adj []VertexID, newID []VertexID, workers int) ([]uint64, []VertexID) {
	n := len(index) - 1
	var bounds []int
	if chunks := countingChunks(workers, n, len(adj)); newID == nil {
		bounds = par.BalancedBounds(index, n, chunks, 1)
	} else {
		bounds = evenBounds(n, chunks)
	}
	numChunks := len(bounds) - 1

	counts := make([][]uint64, numChunks)
	par.For(numChunks, workers, 1, func(clo, chi int) {
		for c := clo; c < chi; c++ {
			cnt := make([]uint64, n)
			if newID == nil { // the chunk's lists are one run of adj
				for _, nbr := range adj[index[bounds[c]]:index[bounds[c+1]]] {
					cnt[nbr]++
				}
			} else {
				for v := bounds[c]; v < bounds[c+1]; v++ {
					u := newID[v]
					for _, nbr := range adj[index[u]:index[u+1]] {
						cnt[nbr]++
					}
				}
			}
			counts[c] = cnt
		}
	})
	tIndex := prefixCounts(counts, n)

	tAdj := make([]VertexID, len(adj))
	par.For(numChunks, workers, 1, func(clo, chi int) {
		for c := clo; c < chi; c++ {
			cursor := counts[c]
			for v := bounds[c]; v < bounds[c+1]; v++ {
				u := v
				if newID != nil {
					u = int(newID[v])
				}
				for _, nbr := range adj[index[u]:index[u+1]] {
					tAdj[cursor[nbr]] = VertexID(u)
					cursor[nbr]++
				}
			}
		}
	})
	return tIndex, tAdj
}

// sortAdjacency sorts each vertex's neighbor segment in place,
// parallelized over edge-balanced vertex ranges. Each range borrows one of
// workers sorters and returns it, so the sort scratch is per worker, not
// per range.
func sortAdjacency(index []uint64, adj []VertexID, ws []uint32, workers int) {
	vb := par.BalancedBounds(index, len(index)-1, workers*4, 1)
	sorters := make(chan *listSorter, workers) // holds every sorter not in use
	for range workers {
		sorters <- new(listSorter)
	}
	par.ForBounds(vb, workers, func(lo, hi int) {
		s := <-sorters
		s.sortLists(index, adj, ws, lo, hi)
		sorters <- s
	})
}

// RelabelWorkers is Relabel with an explicit worker count, following the
// same rules as BuildOptions.Workers: 0 or 1 sequential, negative means
// GOMAXPROCS, parallel requests capped at 16, small graphs always
// sequential. Every worker count yields the same graph, and beyond the
// output arrays it allocates O(N) bytes, whatever the worker count.
func (g *Graph) RelabelWorkers(newID []VertexID, workers int) (*Graph, error) {
	if err := checkPermutation(newID, g.n); err != nil {
		return nil, err
	}
	workers = buildWorkers(workers, g.m)
	// The large arrays are allocated before anything small: a reorder
	// usually replaces a layout of the same shape, and taken in this order
	// they fit the holes it left, where an index array taken in between
	// splits one and sends the last of them to fresh memory (batch-sd peak
	// RSS 455 vs 483 MiB; EXPERIMENTS.md "Lightweight reorder").
	// The weights come last: at most one byte per edge on generated data,
	// the smallest of the three.
	ng := &Graph{n: g.n, m: g.m, outEdges: make([]VertexID, g.m), inEdges: make([]VertexID, g.m), wb: g.wb}
	if g.Weighted() {
		ng.outWeights = make([]byte, g.m*g.wb)
	}
	ng.outIndex = relabelLists(g.direction(false), newID, ng.outEdges, ng.outWeights, workers)
	ng.inIndex = relabelLists(g.direction(true), newID, ng.inEdges, nil, workers)
	if g.outStart != nil && g.wb > 1 {
		// A patch that shared its arrays kept their width; a relabel is
		// compact, at the width the weights need.
		ng.outWeights, ng.wb = narrowWeights(ng.outWeights, ng.wb, g.m)
	}
	return ng, nil
}

// relabelLists renames one direction of a CSR, c, into newAdj and newWs
// (c's weights copied as stored) and returns its index. The new list of
// newID[v] is old v's list with every neighbor renamed, in the same
// order, so each old vertex owns a disjoint output segment: scatter the
// degrees, prefix, then copy the segments over edge-balanced vertex
// ranges — one sequential read and write per edge and one newID gather.
// c's lists may lie where a patch put them: the output is compact.
func relabelLists(c csrDir, newID, newAdj []VertexID, newWs []byte, workers int) []uint64 {
	n := len(newID)
	newIndex := relabelIndex(c.index, newID, workers)
	par.ForBounds(par.BalancedBounds(c.index, n, workers*4, 1), workers, func(lo, hi int) {
		for v := lo; v < hi; v++ {
			s, e := listSpan(c.index, c.start, VertexID(v))
			base := newIndex[newID[v]]
			out := newAdj[base : base+(e-s)]
			for i, nbr := range c.adj[s:e] {
				out[i] = newID[nbr]
			}
			if c.ws != nil {
				b := uint64(c.wb)
				copy(newWs[base*b:], c.ws[s*b:e*b])
			}
		}
	})
	return newIndex
}

// relabelIndex returns the index of the CSR whose list of newID[v] is as
// long as v's list in index: the degrees scattered, then prefix-summed.
func relabelIndex(index []uint64, newID []VertexID, workers int) []uint64 {
	n := len(newID)
	newIndex := make([]uint64, n+1)
	par.For(n, workers, 1, func(lo, hi int) {
		for v := lo; v < hi; v++ {
			newIndex[newID[v]+1] = index[v+1] - index[v]
		}
	})
	for i := 1; i <= n; i++ {
		newIndex[i] += newIndex[i-1]
	}
	return newIndex
}
