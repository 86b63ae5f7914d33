package reorder

import (
	"sort"

	"graphreorder/internal/graph"
	"graphreorder/internal/rng"
)

// Gorder is the structure-aware reordering of Wei et al. (SIGMOD'16),
// the paper's "most powerful but impractically expensive" comparison
// point. It greedily appends, at each step, the unplaced vertex with the
// highest locality score against a sliding window of the last W placed
// vertices, where score(u,v) = |N_in(u) ∩ N_in(v)| + [u→v or v→u].
//
// The exact algorithm is O(W·ΣvΣw∈Nin(v) outdeg(w)), which explodes on
// power-law graphs (hub in-neighbors fan out to everything). Like
// practical Gorder ports, we cap the sibling fan-out per in-neighbor at
// FanoutCap; the paper itself treats Gorder's cost as prohibitive, and the
// cap only makes our reported reordering times *charitable* to Gorder.
type Gorder struct {
	// Window is the sliding-window width W; 0 means 5 (the authors'
	// recommended default).
	Window int
	// FanoutCap bounds, per placed vertex, how many out-edges of each of
	// its in-neighbors receive score increments; 0 means 32.
	FanoutCap int
}

// Name implements Technique.
func (Gorder) Name() string { return "Gorder" }

// Permute implements Technique. Scores always use the directed structure
// (in-neighbor sets), independent of kind — matching the original
// algorithm, which is not skew-aware.
func (t Gorder) Permute(g *graph.Graph, _ graph.DegreeKind) (Permutation, error) {
	w := t.Window
	if w <= 0 {
		w = 5
	}
	fanCap := t.FanoutCap
	if fanCap <= 0 {
		fanCap = 32
	}
	n := g.NumVertices()
	perm := make(Permutation, n)
	if n == 0 {
		return perm, nil
	}

	q := newBucketQueue(n)
	placed := make([]bool, n)
	window := make([]graph.VertexID, 0, w)

	// adjustScores adds delta to the window-score of every candidate
	// scoring against vertex u: u's out-neighbors (direct edge) and the
	// out-neighbors of u's in-neighbors (shared in-neighbor), the latter
	// capped at fanoutCap per in-neighbor. In-edges to u also contribute:
	// sources of u's in-edges score via the direct-edge term too.
	adjustScores := func(u graph.VertexID, delta int32) {
		for _, v := range g.OutNeighbors(u) {
			if !placed[v] {
				q.adjust(v, delta)
			}
		}
		for _, v := range g.InNeighbors(u) {
			if !placed[v] {
				q.adjust(v, delta)
			}
		}
		for _, w := range g.InNeighbors(u) {
			sibs := g.OutNeighbors(w)
			if len(sibs) > fanCap {
				sibs = sibs[:fanCap]
			}
			for _, v := range sibs {
				if !placed[v] {
					q.adjust(v, delta)
				}
			}
		}
	}

	// Start from the maximum in-degree vertex, as in the reference code.
	start := graph.VertexID(0)
	for v := 1; v < n; v++ {
		if g.InDegree(graph.VertexID(v)) > g.InDegree(start) {
			start = graph.VertexID(v)
		}
	}

	next := start
	for pos := 0; pos < n; pos++ {
		perm[next] = graph.VertexID(pos)
		placed[next] = true
		q.remove(next)

		if len(window) == w {
			oldest := window[0]
			window = window[1:]
			adjustScores(oldest, -1)
		}
		window = append(window, next)
		adjustScores(next, +1)

		if pos == n-1 {
			break
		}
		v, ok := q.popMax()
		if !ok {
			// Disconnected remainder: fall back to the smallest unplaced
			// ID, preserving original order among untouched vertices.
			for u := 0; u < n; u++ {
				if !placed[u] {
					v = graph.VertexID(u)
					break
				}
			}
		}
		next = v
	}
	return perm, nil
}

// bucketQueue is a max-priority queue over vertices with small non-negative
// integer keys, supporting O(1) amortized adjust and popMax. Keys change by
// ±1 under Gorder's window updates, so a bucket array with a descending max
// pointer is both simpler and faster than a binary heap with lazy entries.
type bucketQueue struct {
	key     []int32
	buckets [][]graph.VertexID // may hold stale entries; validated on pop
	dead    []bool
	maxKey  int
}

func newBucketQueue(n int) *bucketQueue {
	q := &bucketQueue{
		key:     make([]int32, n),
		buckets: make([][]graph.VertexID, 1, 64),
		dead:    make([]bool, n),
	}
	// All vertices start at key 0.
	q.buckets[0] = make([]graph.VertexID, n)
	for i := range q.buckets[0] {
		q.buckets[0][i] = graph.VertexID(i)
	}
	return q
}

func (q *bucketQueue) adjust(v graph.VertexID, delta int32) {
	if q.dead[v] {
		return
	}
	nk := q.key[v] + delta
	if nk < 0 {
		nk = 0
	}
	q.key[v] = nk
	for int(nk) >= len(q.buckets) {
		q.buckets = append(q.buckets, nil)
	}
	// Push lazily; stale positions are skipped during popMax.
	q.buckets[nk] = append(q.buckets[nk], v)
	if int(nk) > q.maxKey {
		q.maxKey = int(nk)
	}
}

func (q *bucketQueue) remove(v graph.VertexID) { q.dead[v] = true }

// popMax returns an unremoved vertex with the maximum key, or ok=false if
// the queue is empty.
func (q *bucketQueue) popMax() (graph.VertexID, bool) {
	for q.maxKey >= 0 {
		b := q.buckets[q.maxKey]
		for len(b) > 0 {
			v := b[len(b)-1]
			b = b[:len(b)-1]
			if !q.dead[v] && int(q.key[v]) == q.maxKey {
				q.buckets[q.maxKey] = b
				return v, true
			}
		}
		q.buckets[q.maxKey] = b
		q.maxKey--
	}
	return 0, false
}

// sortByScrambledKey sorts ids by (degree descending, Mix64(id) ascending).
// Lives here to keep the rng dependency in one file shared by the O-variant
// models.
func sortByScrambledKey(ids []graph.VertexID, degs []uint32) {
	sort.Slice(ids, func(i, j int) bool {
		di, dj := degs[ids[i]], degs[ids[j]]
		if di != dj {
			return di > dj
		}
		return rng.Mix64(uint64(ids[i])) < rng.Mix64(uint64(ids[j]))
	})
}
