package reorder

import (
	"fmt"

	"graphreorder/internal/graph"
	"graphreorder/internal/rng"
	"graphreorder/internal/stats"
)

// RandomVertex randomly permutes all vertices — the paper's "RV"
// configuration (§III-B), which destroys both graph structure and hot-vertex
// packing. Used to quantify the cost of not preserving structure (Fig. 3).
type RandomVertex struct {
	// Seed makes the permutation deterministic.
	Seed uint64
}

// Name implements Technique.
func (RandomVertex) Name() string { return "RV" }

// Permute implements Technique.
func (t RandomVertex) Permute(g *graph.Graph, _ graph.DegreeKind) (Permutation, error) {
	return Permutation(rng.NewStream(t.Seed, 0x5EED).Perm(g.NumVertices())), nil
}

// VerticesPerCacheBlock is how many 8-byte vertex properties fit in a 64-byte
// cache block — the paper's Table II arithmetic.
const VerticesPerCacheBlock = stats.CacheBlockBytes / stats.DefaultPropertyBytes

// RandomCacheBlock randomly permutes *blocks* of vertices while keeping the
// order within each block — the paper's "RCB-n" configuration. With
// Blocks=n, groups of n×8 consecutive vertices move as a unit, so the cache
// footprint of hot vertices is unchanged and any slowdown is attributable
// purely to structure disruption (§III-B).
type RandomCacheBlock struct {
	Seed uint64
	// Blocks is the granularity in cache blocks (n of RCB-n); 0 means 1.
	Blocks int
}

// Name implements Technique.
func (t RandomCacheBlock) Name() string {
	n := t.Blocks
	if n <= 0 {
		n = 1
	}
	return fmt.Sprintf("RCB-%d", n)
}

// Permute implements Technique.
func (t RandomCacheBlock) Permute(g *graph.Graph, _ graph.DegreeKind) (Permutation, error) {
	blocks := t.Blocks
	if blocks <= 0 {
		blocks = 1
	}
	unit := blocks * VerticesPerCacheBlock
	n := g.NumVertices()
	numUnits := (n + unit - 1) / unit
	blockPerm := rng.NewStream(t.Seed, 0xB10C).Perm(numUnits)

	// Unit u moves to slot blockPerm[u]. Units can have a short tail, so
	// new IDs are assigned by walking slots in order and packing densely.
	unitAt := make([]uint32, numUnits) // slot -> original unit
	for u, slot := range blockPerm {
		unitAt[slot] = uint32(u)
	}
	perm := make(Permutation, n)
	next := 0
	for slot := 0; slot < numUnits; slot++ {
		u := int(unitAt[slot])
		lo := u * unit
		hi := lo + unit
		if hi > n {
			hi = n
		}
		for v := lo; v < hi; v++ {
			perm[v] = graph.VertexID(next)
			next++
		}
	}
	return perm, nil
}

// scrambleChunks models the original implementations' parallel
// assignment width.
const scrambleChunks = 8

// chunkScramble rewrites a layout order by splitting it into
// scrambleChunks contiguous chunks and emitting the chunks in a
// deterministic scrambled order. This models the coarse structure damage
// done by the authors' original multi-pass implementations of
// HubSort/HubCluster, whose parallel ID assignment did not keep a single
// global stable order (see HubSortO/HubClusterO below and Fig. 5 of the
// paper).
func chunkScramble(order []graph.VertexID, seed uint64) []graph.VertexID {
	const nChunks = scrambleChunks
	if len(order) < nChunks {
		return order
	}
	chunkPerm := rng.NewStream(seed, 0xC4A0).Perm(nChunks)
	out := make([]graph.VertexID, 0, len(order))
	size := (len(order) + nChunks - 1) / nChunks
	for _, c := range chunkPerm {
		lo := int(c) * size
		hi := lo + size
		if lo >= len(order) {
			continue
		}
		if hi > len(order) {
			hi = len(order)
		}
		out = append(out, order[lo:hi]...)
	}
	return out
}

// HubSortO models the *original* Hub Sorting implementation evaluated in
// Fig. 5 / Table XI of the paper: functionally it also sorts hot vertices
// first, but (a) its hot sort breaks degree ties pseudo-randomly instead of
// preserving original order, and (b) its chunked parallel assignment of
// cold IDs perturbs the cold sequence at a coarse grain. Both effects make
// it preserve structure worse than the DBG-framework HubSort, and its
// extra full-array pass makes it slower — matching the paper's finding
// that the reimplementations dominate the originals.
type HubSortO struct{}

// Name implements Technique.
func (HubSortO) Name() string { return "HubSort-O" }

// Permute implements Technique.
func (t HubSortO) Permute(g *graph.Graph, kind graph.DegreeKind) (Permutation, error) {
	return degreeBasedPermute(g, kind, t)
}

// PermuteDegrees implements DegreeBased.
func (HubSortO) PermuteDegrees(degs []uint32, avg float64) Permutation {
	hot, cold := splitHotCold(degs, avg)
	// Tie-scrambled hot sort: key on (degree desc, Mix64(id)) — an extra
	// O(n log n) comparison-sort pass over scrambled keys, like the
	// original's sort of (degree, id) pairs gathered in parallel.
	sortByScrambledKey(hot, degs)
	return layoutInOrder(len(degs), hot, chunkScramble(cold, 0x05C1))
}

// HubClusterO models the original Hub Clustering implementation: the same
// two-group segregation as HubCluster, but with the coarse chunk
// perturbation of both sequences from its parallel two-pass assignment.
type HubClusterO struct{}

// Name implements Technique.
func (HubClusterO) Name() string { return "HubCluster-O" }

// Permute implements Technique.
func (t HubClusterO) Permute(g *graph.Graph, kind graph.DegreeKind) (Permutation, error) {
	return degreeBasedPermute(g, kind, t)
}

// PermuteDegrees implements DegreeBased.
func (HubClusterO) PermuteDegrees(degs []uint32, avg float64) Permutation {
	hot, cold := splitHotCold(degs, avg)
	return layoutInOrder(len(degs), chunkScramble(hot, 0x05C2), chunkScramble(cold, 0x05C3))
}

// splitHotCold returns the hot (degree >= avg) and the cold vertices,
// each in original order.
func splitHotCold(degs []uint32, avg float64) (hot, cold []graph.VertexID) {
	for v, d := range degs {
		if float64(d) >= avg {
			hot = append(hot, graph.VertexID(v))
		} else {
			cold = append(cold, graph.VertexID(v))
		}
	}
	return hot, cold
}

// layoutInOrder returns the permutation that places the vertices of the
// given sequences one after another; together they must hold each of the
// n vertices once.
func layoutInOrder(n int, seqs ...[]graph.VertexID) Permutation {
	perm := make(Permutation, n)
	next := graph.VertexID(0)
	for _, seq := range seqs {
		for _, v := range seq {
			perm[v] = next
			next++
		}
	}
	return perm
}
