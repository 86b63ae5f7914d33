package graph

import (
	"fmt"

	"graphreorder/internal/par"
)

// Parallel CSR construction and relabeling, following the count/prefix/
// scatter pattern of internal/reorder.ParallelDBG: workers own contiguous
// input chunks, a sequential prefix pass turns per-(chunk, key) counts
// into scatter offsets, and because chunk order preserves input order the
// output is bit-identical to the sequential construction.

// parallelBuildThreshold is the edge count below which goroutine fan-out
// costs more than it saves and construction stays sequential.
const parallelBuildThreshold = 1 << 13

// maxBuildWorkers bounds CSR-construction parallelism regardless of the
// request: each build worker carries an O(N) uint64 counting array, so an
// uncapped many-core host would balloon transient memory.
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

// buildCSRPar is the parallel counterpart of buildCSR: per-chunk counting,
// a sequential prefix pass over (key-major, chunk-minor), and a parallel
// scatter replaying each chunk against its own cursor array.
func buildCSRPar(edges []Edge, n int, weighted, reverse, sortNbrs bool, workers int) ([]uint64, []VertexID, []uint32) {
	bounds := evenBounds(len(edges), workers)
	numChunks := len(bounds) - 1

	counts := make([][]uint64, numChunks)
	par.For(numChunks, workers, 1, func(clo, chi int) {
		for c := clo; c < chi; c++ {
			cnt := make([]uint64, n)
			for _, e := range edges[bounds[c]:bounds[c+1]] {
				key := e.Src
				if reverse {
					key = e.Dst
				}
				cnt[key]++
			}
			counts[c] = cnt
		}
	})

	// Prefix over (key-major, chunk-minor): chunk c's cursor for key k
	// starts after all edges of earlier keys plus earlier chunks of k,
	// which is exactly the position the sequential counting sort assigns.
	index := make([]uint64, n+1)
	var running uint64
	for k := 0; k < n; k++ {
		index[k] = running
		for c := 0; c < numChunks; c++ {
			cnt := counts[c][k]
			counts[c][k] = running
			running += cnt
		}
	}
	index[n] = running

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

	if sortNbrs {
		sortAdjacency(index, adj, ws, n, workers)
	}
	return index, adj, ws
}

// sortAdjacency sorts each vertex's neighbor segment in place,
// parallelized over edge-balanced vertex ranges.
func sortAdjacency(index []uint64, adj []VertexID, ws []uint32, n, workers int) {
	vb := par.BalancedBounds(index, n, workers*4, 1)
	par.ForBounds(vb, workers, func(lo, hi int) {
		sortLists(index, adj, ws, lo, hi)
	})
}

// RelabelWorkers is Relabel with an explicit worker count, following the
// same rules as BuildOptions.Workers: 0 or 1 sequential, negative means
// GOMAXPROCS, parallel requests capped at 16, small graphs always
// sequential. Both paths scatter directly from the old CSR into the new
// one — no intermediate edge list is materialized — and every worker
// count yields the same graph the sequential edge-list rebuild used to
// produce.
func (g *Graph) RelabelWorkers(newID []VertexID, workers int) (*Graph, error) {
	if len(newID) != g.n {
		return nil, fmt.Errorf("graph: permutation has length %d, want %d", len(newID), g.n)
	}
	seen := make([]bool, g.n)
	for _, id := range newID {
		if int(id) >= g.n || seen[id] {
			return nil, fmt.Errorf("graph: newID is not a permutation (value %d)", id)
		}
		seen[id] = true
	}
	workers = buildWorkers(workers, g.m)
	n, m := g.n, g.m
	ng := &Graph{n: n, m: m}
	weighted := g.Weighted()

	// Out-CSR. The new adjacency list of newID[v] is exactly old v's list
	// with endpoints renamed, so each old vertex owns a disjoint output
	// segment: scatter degrees, prefix, then copy segments in parallel.
	outIndex := make([]uint64, n+1)
	par.For(n, workers, 1, func(lo, hi int) {
		for v := lo; v < hi; v++ {
			outIndex[newID[v]+1] = uint64(g.OutDegree(VertexID(v)))
		}
	})
	for i := 1; i <= n; i++ {
		outIndex[i] += outIndex[i-1]
	}
	outEdges := make([]VertexID, m)
	var outWs []uint32
	if weighted {
		outWs = make([]uint32, m)
	}
	outBounds := par.BalancedBounds(g.outIndex, n, workers*4, 1)
	par.ForBounds(outBounds, workers, func(lo, hi int) {
		for v := lo; v < hi; v++ {
			base := outIndex[newID[v]]
			nbrs := g.OutNeighbors(VertexID(v))
			ws := g.OutWeights(VertexID(v))
			for i, dst := range nbrs {
				outEdges[base+uint64(i)] = newID[dst]
				if ws != nil {
					outWs[base+uint64(i)] = ws[i]
				}
			}
		}
	})
	ng.outIndex, ng.outEdges, ng.outWeights = outIndex, outEdges, outWs

	// In-CSR: a counting sort keyed by newID[dst] over the edges in old
	// out-CSR enumeration order — the same order the sequential rebuild
	// fed to its counting sort, so in-neighbor lists come out identical.
	// Chunks are contiguous old-vertex ranges, balanced by out-edge count.
	inBounds := par.BalancedBounds(g.outIndex, n, workers, 1)
	numChunks := len(inBounds) - 1
	counts := make([][]uint64, numChunks)
	par.ForChunks(numChunks, workers, 1, func(_, clo, chi int) {
		for c := clo; c < chi; c++ {
			cnt := make([]uint64, n)
			for v := inBounds[c]; v < inBounds[c+1]; v++ {
				for _, dst := range g.OutNeighbors(VertexID(v)) {
					cnt[newID[dst]]++
				}
			}
			counts[c] = cnt
		}
	})
	inIndex := make([]uint64, n+1)
	var running uint64
	for k := 0; k < n; k++ {
		inIndex[k] = running
		for c := 0; c < numChunks; c++ {
			cnt := counts[c][k]
			counts[c][k] = running
			running += cnt
		}
	}
	inIndex[n] = running
	inEdges := make([]VertexID, m)
	var inWs []uint32
	if weighted {
		inWs = make([]uint32, m)
	}
	par.ForChunks(numChunks, workers, 1, func(_, clo, chi int) {
		for c := clo; c < chi; c++ {
			cursor := counts[c]
			for v := inBounds[c]; v < inBounds[c+1]; v++ {
				nv := newID[v]
				nbrs := g.OutNeighbors(VertexID(v))
				ws := g.OutWeights(VertexID(v))
				for i, dst := range nbrs {
					k := newID[dst]
					pos := cursor[k]
					cursor[k]++
					inEdges[pos] = nv
					if ws != nil {
						inWs[pos] = ws[i]
					}
				}
			}
		}
	})
	ng.inIndex, ng.inEdges, ng.inWeights = inIndex, inEdges, inWs
	return ng, nil
}
