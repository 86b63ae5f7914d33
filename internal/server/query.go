package server

import (
	"context"
	"fmt"
	"math/bits"
	"slices"

	"graphreorder"
	"graphreorder/internal/apps"
	"graphreorder/internal/graph"
	"graphreorder/internal/obs"
	"graphreorder/internal/reorder"
	"graphreorder/internal/rng"
)

// traceProgress bridges the engine's per-round Progress hook to the
// request's trace. Only detailed-tier traces pay for the hook; the
// common case runs the traversal with no observer at all.
func traceProgress(ctx context.Context, opts []graphreorder.RunOption) []graphreorder.RunOption {
	tr := obs.FromContext(ctx)
	if !tr.Detailed() {
		return opts
	}
	return append(opts, graphreorder.WithProgress(func(rs graphreorder.RoundStats) {
		tr.Round(rs.Edges)
	}))
}

// infDistance marks unreachable vertices in SSSP distance vectors.
const infDistance = apps.InfDistance

// Query results. Every response embeds QueryMeta so a client (and the
// race test) can tell exactly which snapshot produced it. The cluster
// router answers with the same types.

// QueryMeta identifies the snapshot behind a reply.
type QueryMeta struct {
	Snapshot string `json:"snapshot"`
	Epoch    uint64 `json:"epoch"`
	Vertices int    `json:"vertices"`
	Edges    int    `json:"edges"`
	Cached   bool   `json:"cached,omitempty"`
	// Stale marks a graceful-degradation answer: fresh compute was shed
	// (the predicted queue wait was past the deadline) and the response
	// was served from an older epoch's cached result — Epoch above is
	// that older epoch.
	Stale bool `json:"stale,omitempty"`
}

func metaFor(s *Snapshot) QueryMeta {
	return QueryMeta{
		Snapshot: s.name,
		Epoch:    s.epoch,
		Vertices: s.graph.NumVertices(),
		Edges:    s.graph.NumEdges(),
	}
}

// NeighborsResult is the reply of GET /v1/query/neighbors.
type NeighborsResult struct {
	QueryMeta
	Vertex    graph.VertexID   `json:"vertex"`
	Dir       string           `json:"dir"`
	Degree    int              `json:"degree"`
	Truncated bool             `json:"truncated,omitempty"`
	Neighbors []graph.VertexID `json:"neighbors"`
}

func queryNeighbors(sp idSpace, v graph.VertexID, dir string, limit int) (NeighborsResult, error) {
	s := sp.snap
	cur := sp.in(v)
	var nbrs []graph.VertexID
	switch dir {
	case "", "out":
		dir = "out"
		nbrs = s.graph.OutNeighbors(cur)
	case "in":
		nbrs = s.graph.InNeighbors(cur)
	default:
		return NeighborsResult{}, fmt.Errorf("bad dir %q (want in|out)", dir)
	}
	res := NeighborsResult{
		QueryMeta: metaFor(s),
		Vertex:    v,
		Dir:       dir,
		Degree:    len(nbrs),
	}
	keep := len(nbrs)
	if limit > 0 && keep > limit {
		keep = limit
		res.Truncated = true
	}
	// Copy out of the shared CSR so the JSON encoder never aliases
	// snapshot memory after release — only the keep entries the reply
	// carries, never the whole adjacency of a hub.
	out := make([]graph.VertexID, keep)
	res.Neighbors = out
	if !sp.orig {
		copy(out, nbrs)
		return res, nil
	}
	// Orig space: the adjacency is sorted in current IDs, and a limit must
	// keep the lowest *wire* IDs for the answer to be stable across
	// orderings (and mergeable by a router). out is a max-heap of the keep
	// lowest seen so far; a later neighbor only ever replaces its root.
	for i, nb := range nbrs[:keep] {
		out[i] = sp.out(nb)
	}
	for i := keep/2 - 1; i >= 0; i-- {
		siftDown(out, i)
	}
	for _, nb := range nbrs[keep:] {
		if w := sp.out(nb); w < out[0] {
			out[0] = w
			siftDown(out, 0)
		}
	}
	slices.Sort(out)
	return res, nil
}

// siftDown restores the max-heap property of h below index i.
func siftDown(h []graph.VertexID, i int) {
	for c := 2*i + 1; c < len(h); i, c = c, 2*c+1 {
		if c+1 < len(h) && h[c+1] > h[c] {
			c++
		}
		if h[c] <= h[i] {
			return
		}
		h[i], h[c] = h[c], h[i]
	}
}

// DegreeResult is the reply of GET /v1/query/degree.
type DegreeResult struct {
	QueryMeta
	Vertex graph.VertexID `json:"vertex"`
	Kind   string         `json:"kind"`
	Degree int            `json:"degree"`
}

func queryDegree(s *Snapshot, v graph.VertexID, kind string) (DegreeResult, error) {
	res := DegreeResult{QueryMeta: metaFor(s), Vertex: v, Kind: kind}
	switch kind {
	case "", "out":
		res.Kind = "out"
		res.Degree = s.graph.OutDegree(v)
	case "in":
		res.Degree = s.graph.InDegree(v)
	case "total":
		res.Degree = s.graph.InDegree(v) + s.graph.OutDegree(v)
	default:
		return DegreeResult{}, fmt.Errorf("bad kind %q (want in|out|total)", kind)
	}
	return res, nil
}

// RankResult is the reply of GET /v1/query/rank.
type RankResult struct {
	QueryMeta
	Vertex graph.VertexID `json:"vertex"`
	Rank   float64        `json:"rank"`
	Iters  int            `json:"iters"`
}

func queryRank(s *Snapshot, v graph.VertexID) RankResult {
	return RankResult{
		QueryMeta: metaFor(s),
		Vertex:    v,
		Rank:      s.ranks[v],
		Iters:     s.rankIters,
	}
}

// RankedVertex is one entry of a top-k reply.
type RankedVertex struct {
	Vertex graph.VertexID `json:"vertex"`
	Rank   float64        `json:"rank"`
}

// TopKResult is the reply of GET /v1/query/topk.
type TopKResult struct {
	QueryMeta
	K   int            `json:"k"`
	Top []RankedVertex `json:"top"`
}

// topKRanks selects the k highest-ranked vertices with a size-k min-heap
// (O(n log k)); ties break toward the lower vertex ID so results are
// deterministic.
func topKRanks(ranks []float64, k int) []RankedVertex {
	return topKRanksIn(idSpace{}, ranks, nil, k)
}

// topKRanksIn is topKRanks in the wire space of sp: candidates enter
// the heap already translated, so ties break toward the lower *wire*
// ID — the tie order the single-node baseline would produce in that
// space. A non-nil owned set (shard mode) restricts candidates to the
// vertices this shard is the rank authority for; ownership partitions
// the cluster's vertex set, so per-shard answers are disjoint and a
// router heap-merge reproduces the global top-k exactly.
func topKRanksIn(sp idSpace, ranks []float64, owned []bool, k int) []RankedVertex {
	if k > len(ranks) {
		k = len(ranks)
	}
	if k <= 0 {
		return []RankedVertex{}
	}
	// less reports whether a is strictly worse than b (belongs below it in
	// the min-heap at the top of which sits the worst kept vertex).
	less := func(a, b RankedVertex) bool {
		if a.Rank != b.Rank {
			return a.Rank < b.Rank
		}
		return a.Vertex > b.Vertex
	}
	heap := make([]RankedVertex, 0, k)
	down := func(i int) {
		for {
			l, r := 2*i+1, 2*i+2
			small := i
			if l < len(heap) && less(heap[l], heap[small]) {
				small = l
			}
			if r < len(heap) && less(heap[r], heap[small]) {
				small = r
			}
			if small == i {
				return
			}
			heap[i], heap[small] = heap[small], heap[i]
			i = small
		}
	}
	up := func(i int) {
		for i > 0 {
			parent := (i - 1) / 2
			if !less(heap[i], heap[parent]) {
				return
			}
			heap[i], heap[parent] = heap[parent], heap[i]
			i = parent
		}
	}
	for v, r := range ranks {
		if owned != nil && !owned[v] {
			continue
		}
		cand := RankedVertex{Vertex: sp.out(graph.VertexID(v)), Rank: r}
		if len(heap) < k {
			heap = append(heap, cand)
			up(len(heap) - 1)
			continue
		}
		if less(heap[0], cand) {
			heap[0] = cand
			down(0)
		}
	}
	// Pop into descending order.
	out := make([]RankedVertex, len(heap))
	for i := len(heap) - 1; i >= 0; i-- {
		out[i] = heap[0]
		heap[0] = heap[len(heap)-1]
		heap = heap[:len(heap)-1]
		down(0)
	}
	return out
}

// SSSPResult is the reply of GET /v1/query/sssp without a target.
type SSSPResult struct {
	QueryMeta
	Source      graph.VertexID `json:"source"`
	Rounds      int            `json:"rounds"`
	Reached     int            `json:"reached"`
	Unreachable int            `json:"unreachable"`
	MaxDistance int64          `json:"max_distance"`
}

// DistVector is an SSSP distance vector bit-packed at w bits per vertex,
// the fewest that hold its largest finite distance plus an unreachable
// sentinel (all ones at width w). Vertex i's bits start at bit i·w of
// words, low bits first, so a value straddles at most two words.
type DistVector struct {
	words []uint64
	n     int
	w     uint
}

// packDistances packs dist, whose largest finite entry is maxDistance.
// infDistance is all ones in the low 63 bits and w is at most 63, so
// masking it lands on the sentinel.
func packDistances(dist []int64, maxDistance int64) DistVector {
	w := uint(bits.Len64(uint64(maxDistance) + 1))
	v := DistVector{words: make([]uint64, (len(dist)*int(w)+63)/64), n: len(dist), w: w}
	mask := uint64(1)<<w - 1
	for i, dv := range dist {
		x, bit := uint64(dv)&mask, uint(i)*w
		v.words[bit/64] |= x << (bit % 64)
		if bit%64+w > 64 {
			v.words[bit/64+1] |= x >> (64 - bit%64)
		}
	}
	return v
}

// At returns vertex i's distance, or (0, false) when it is unreachable.
// An index past the end reads as unreachable: a stale (older-epoch)
// vector may predate the vertex.
func (v DistVector) At(i int) (int64, bool) {
	if uint(i) >= uint(v.n) {
		return 0, false
	}
	bit, mask := uint(i)*v.w, uint64(1)<<v.w-1
	x := v.words[bit/64] >> (bit % 64)
	if bit%64+v.w > 64 {
		x |= v.words[bit/64+1] << (64 - bit%64)
	}
	if x &= mask; x == mask {
		return 0, false
	}
	return int64(x), true
}

// Len is the number of vertices the vector covers.
func (v DistVector) Len() int { return v.n }

// Bytes is the vector's resident size, 8·⌈n·w/64⌉.
func (v DistVector) Bytes() int64 { return 8 * int64(len(v.words)) }

// SSSPSummary is what a reply to an SSSP without a target reads beside
// its source and snapshot: rounds, reached, unreachable and max
// distance. It is all both tiers cache for such a query, which never
// packs or keeps a distance vector.
type SSSPSummary struct {
	rounds      int
	reached     int
	unreachable int
	maxDistance int64
}

// SSSPSummaryBytes is the payload a cached SSSPSummary keeps resident:
// its four 8-byte fields.
const SSSPSummaryBytes = 32

// SummarizeSSSP summarizes dist, in which apps.InfDistance marks the
// unreachable vertices; rounds is the number of rounds the traversal
// took.
func SummarizeSSSP(dist []int64, rounds int) SSSPSummary {
	s := SSSPSummary{rounds: rounds}
	for _, dv := range dist {
		if dv == infDistance {
			s.unreachable++
		} else {
			s.reached++
			s.maxDistance = max(s.maxDistance, dv)
		}
	}
	return s
}

// Summary is the reply to an SSSP from src without a target.
func (s SSSPSummary) Summary(meta QueryMeta, src graph.VertexID) SSSPResult {
	return SSSPResult{
		QueryMeta:   meta,
		Source:      src,
		Rounds:      s.rounds,
		Reached:     s.reached,
		Unreachable: s.unreachable,
		MaxDistance: s.maxDistance,
	}
}

// SSSPDistances is what both tiers cache per (epoch, source) for an SSSP
// with a target: the full distance vector, bit-packed, plus its summary,
// computed once per vector — a summary query of the same epoch is
// answered from it without rescanning the O(n) vector.
type SSSPDistances struct {
	SSSPSummary
	Dist DistVector
}

// NewSSSPDistances packs dist, in which apps.InfDistance marks the
// unreachable vertices, and summarizes it; rounds is the number of
// rounds the traversal took.
func NewSSSPDistances(dist []int64, rounds int) SSSPDistances {
	s := SummarizeSSSP(dist, rounds)
	return SSSPDistances{SSSPSummary: s, Dist: packDistances(dist, s.maxDistance)}
}

// ssspEntry is a node's cached SSSP vector: the distances, in the current
// ID space of the snapshot that computed them, and that snapshot's
// permutation (nil for the identity). The permutation is the snapshot's
// own slice, shared by every entry computed under it, and is not charged
// to the entry.
type ssspEntry struct {
	SSSPDistances
	perm reorder.Permutation
}

// index returns where the distance of original vertex v sits in the
// vector: past its end for a vertex the producing snapshot did not have.
func (e ssspEntry) index(v graph.VertexID) int {
	switch {
	case e.perm == nil:
		return int(v)
	case int(v) < len(e.perm):
		return int(e.perm[v])
	}
	return len(e.perm)
}

// computeSSSP runs SSSP through the library's context-aware Run API: the
// request context is passed straight through, so a client disconnect or
// deadline aborts the traversal cooperatively within one round. It
// returns the distances and the rounds the traversal took.
func computeSSSP(ctx context.Context, s *Snapshot, src graph.VertexID, workers int) ([]int64, int, error) {
	res, err := graphreorder.Run(ctx, s.graph, graphreorder.AppSSSP,
		traceProgress(ctx, []graphreorder.RunOption{
			graphreorder.WithRoot(src), graphreorder.WithWorkers(workers)})...)
	if err != nil {
		return nil, 0, err
	}
	return res.Distances(), res.Iterations, nil
}

// SSSPTargetResult is the reply of GET /v1/query/sssp with a target.
type SSSPTargetResult struct {
	SSSPResult
	Target    graph.VertexID `json:"target"`
	Reachable bool           `json:"reachable"`
	// Distance is meaningful only when Reachable; note src==target
	// legitimately yields 0, so no omitempty.
	Distance int64 `json:"distance"`
}

type radiiResult struct {
	QueryMeta
	Samples    int     `json:"samples"`
	Seed       uint64  `json:"seed"`
	MaxRadius  int32   `json:"max_radius"`
	MeanRadius float64 `json:"mean_radius"`
	Unreached  int     `json:"unreached"`
}

// computeRadii runs Radii through the context-aware Run API with
// deterministic seeded sample sources; the request context passes
// straight through to the traversal.
func computeRadii(ctx context.Context, s *Snapshot, samples int, seed uint64, workers int) (radiiResult, error) {
	n := s.graph.NumVertices()
	if samples > 64 {
		samples = 64
	}
	if samples > n {
		samples = n
	}
	if samples < 1 {
		samples = 1
	}
	r := rng.New(seed)
	sources := make([]graph.VertexID, samples)
	for i := range sources {
		sources[i] = graph.VertexID(r.Intn(n))
	}
	run, err := graphreorder.Run(ctx, s.graph, graphreorder.AppRadii,
		traceProgress(ctx, []graphreorder.RunOption{
			graphreorder.WithSamples(sources), graphreorder.WithWorkers(workers)})...)
	if err != nil {
		return radiiResult{}, err
	}
	radii := run.Eccentricities()
	res := radiiResult{
		QueryMeta: metaFor(s),
		Samples:   samples,
		Seed:      seed,
	}
	sum, counted := 0.0, 0
	for _, rad := range radii {
		if rad < 0 {
			res.Unreached++
			continue
		}
		counted++
		sum += float64(rad)
		if rad > res.MaxRadius {
			res.MaxRadius = rad
		}
	}
	if counted > 0 {
		res.MeanRadius = sum / float64(counted)
	}
	return res, nil
}
