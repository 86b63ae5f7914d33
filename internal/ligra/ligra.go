// Package ligra is a compact reimplementation of the Ligra shared-memory
// graph-processing model (Shun & Blelloch, PPoPP'13) that the paper uses
// as its evaluation framework: vertex subsets (frontiers), EdgeMap with
// push- and pull-based traversal and automatic direction switching, and
// VertexMap.
//
// The engine runs sequentially by default and goes multicore when
// EdgeMapOpts.Workers > 1, matching the original Ligra (a parallel
// framework) and the paper's fully-parallelized skew-aware
// implementations (§V-C). There is one kernel per direction, over any
// graph.View, and it works at list granularity: it calls back once per
// vertex with that vertex's whole neighbor list (EdgeMapFns.PullList,
// PushList), so the loop over the edges — and whatever it can keep in
// registers — belongs to the application; per-edge update functions are
// served by a small adapter of the same shape. A parallel round runs the
// same kernel over a partition of the round's work, and the two
// directions partition differently:
//
//   - Pull mode partitions the destination-vertex range into contiguous
//     chunks aligned to 64 vertices. Every destination is owned by exactly
//     one worker, so update functions that only write dst state need no
//     atomics and the output frontier is bit-identical to the sequential
//     one.
//   - Push mode partitions the sparse frontier across workers; output
//     slots are claimed with compare-and-swap on a word-level bitset, so
//     the output is deduplicated but its member order depends on the
//     interleaving ("frontier-order-independent": the same set, any
//     order). Update functions must be safe for concurrent invocation.
//
// Tracing (EdgeMapOpts.Trace != nil) lives in the two kernels: they report
// each list they hand to a callback, so what the cache simulator replays is
// the traversal the callbacks execute, whichever form they take. A traced
// EdgeMap always runs at one worker, on every backend, so the traces stay
// deterministic.
package ligra

import (
	"context"
	"math/bits"

	"graphreorder/internal/graph"
	"graphreorder/internal/par"
)

// sparseHasThreshold is the sparse-set size above which Has builds a
// lazily-cached membership bitmap instead of scanning linearly.
const sparseHasThreshold = 8

// VertexSet is a frontier: a subset of vertices, stored sparse (ID list)
// or dense (word-packed Bitset) depending on size, as in Ligra.
//
// A set is an ordinary value. EdgeMapInto and VertexMapInto refill a set
// the caller holds, keeping its storage, so an application loop that
// alternates two sets allocates nothing once their buffers have grown;
// EdgeMap returns a fresh one. A set nobody references is garbage.
type VertexSet struct {
	n       int
	sparse  []graph.VertexID
	dense   Bitset
	isDense bool
	count   int

	// outEdges is the cached sum of member out-degrees driving direction
	// switching; outEdgesValid distinguishes "not computed" from a genuine
	// zero (a frontier of sinks must not recompute forever).
	outEdges      uint64
	outEdgesValid bool

	// lookup is a lazily-built membership bitmap for sparse sets, so Has
	// is O(1) instead of a linear scan (quadratic when applications probe
	// membership per edge).
	lookup      Bitset
	lookupValid bool

	// scratch is the traversal storage of the set's lineage (see scratch).
	scratch *scratch
}

// reset empties the set over a universe of n vertices, retaining slice
// capacity.
func (s *VertexSet) reset(n int) {
	s.n = n
	s.sparse = s.sparse[:0]
	s.isDense = false
	s.count = 0
	s.outEdges = 0
	s.outEdgesValid = false
	s.lookupValid = false
}

// ensureDense sizes and zeroes the dense bitset, retaining capacity.
func (s *VertexSet) ensureDense() {
	s.dense = s.dense.zeroed(s.n)
	s.isDense = true
}

// Release does nothing: a set is an ordinary value, garbage once nobody
// references it. It stays for callers written when sets were pooled.
func (s *VertexSet) Release() {}

// NewVertexSet returns a sparse frontier over n vertices containing the
// given members (deduplicated by the caller).
func NewVertexSet(n int, members ...graph.VertexID) *VertexSet {
	return &VertexSet{n: n, sparse: append([]graph.VertexID(nil), members...), count: len(members)}
}

// NewDenseVertexSet returns a dense frontier from a membership bitmap
// (converted to the packed representation; the argument is not retained).
func NewDenseVertexSet(bitmap []bool) *VertexSet {
	s := &VertexSet{n: len(bitmap)}
	s.ensureDense()
	s.dense.FromBools(bitmap)
	s.count = s.dense.Count()
	return s
}

// newBitsetVertexSet wraps an existing packed bitmap (retained, not
// copied) whose popcount is count.
func newBitsetVertexSet(n int, bits Bitset, count int) *VertexSet {
	return &VertexSet{n: n, dense: bits, isDense: true, count: count}
}

// FullVertexSet returns a frontier containing every vertex of g. The
// word-filled bitset makes this O(n/64).
func FullVertexSet(n int) *VertexSet {
	b := NewBitset(n)
	b.FillUpTo(n)
	return newBitsetVertexSet(n, b, n)
}

// Len returns the number of member vertices.
func (s *VertexSet) Len() int { return s.count }

// Empty reports whether the frontier has no members.
func (s *VertexSet) Empty() bool { return s.count == 0 }

// NumVertices returns the size of the universe the set ranges over.
func (s *VertexSet) NumVertices() int { return s.n }

// Has reports membership of v. For sparse sets beyond a few members it
// answers from a lazily-built bitmap; the first such call on a set is not
// safe to race with others.
func (s *VertexSet) Has(v graph.VertexID) bool {
	if s.isDense {
		return s.dense.Has(v)
	}
	if len(s.sparse) <= sparseHasThreshold {
		for _, u := range s.sparse {
			if u == v {
				return true
			}
		}
		return false
	}
	return s.bits().Has(v)
}

// bits returns a packed membership bitmap: the dense representation
// itself, or the cached lookup bitmap of a sparse set (built on first
// use). The result is shared; treat as read-only.
func (s *VertexSet) bits() Bitset {
	if s.isDense {
		return s.dense
	}
	if !s.lookupValid {
		s.lookup = s.lookup.zeroed(s.n)
		for _, v := range s.sparse {
			s.lookup.Set(v)
		}
		s.lookupValid = true
	}
	return s.lookup
}

// Members returns the member IDs in ascending order for dense sets, or
// insertion order for sparse sets. The result is freshly allocated for
// dense sets and shared for sparse ones; treat as read-only.
func (s *VertexSet) Members() []graph.VertexID {
	if !s.isDense {
		return s.sparse
	}
	return s.dense.AppendMembers(make([]graph.VertexID, 0, s.count))
}

// Bitmap returns a dense []bool membership bitmap, freshly allocated.
func (s *VertexSet) Bitmap() []bool {
	if s.isDense {
		return s.dense.ToBools(s.n)
	}
	b := make([]bool, s.n)
	for _, v := range s.sparse {
		b[v] = true
	}
	return b
}

// Bits returns the packed membership bitmap (shared, read-only).
func (s *VertexSet) Bits() Bitset { return s.bits() }

// OutEdgeSum returns the sum of member out-degrees — the quantity the
// Auto direction heuristic uses — computed on up to workers goroutines
// and cached on the set, so callers that account traversed edges per
// round don't rescan the degree array.
func (s *VertexSet) OutEdgeSum(g graph.View, workers int) uint64 {
	return s.computeOutEdges(g, workers)
}

// computeOutEdges fills the member out-degree sum used by the direction
// heuristic; cached after first use (including a genuinely zero sum).
// Degrees come from the n+1 index arrays on every backend, so this costs
// the same on compressed graphs as on plain ones.
func (s *VertexSet) computeOutEdges(g graph.View, workers int) uint64 {
	if s.outEdgesValid {
		return s.outEdges
	}
	var sum uint64
	if s.isDense {
		if workers > 1 {
			sum = parallelOutEdgeSum(g, s.dense, workers)
		} else {
			// Decode set bits word by word: no member-slice allocation.
			for wi, w := range s.dense {
				base := graph.VertexID(wi << 6)
				for w != 0 {
					v := base + graph.VertexID(bits.TrailingZeros64(w))
					w &= w - 1
					sum += uint64(g.OutDegree(v))
				}
			}
		}
	} else {
		for _, v := range s.sparse {
			sum += uint64(g.OutDegree(v))
		}
	}
	s.outEdges = sum
	s.outEdgesValid = true
	return sum
}

// EdgeMapFns carries the callbacks of an EdgeMap. The kernels work one
// neighbor list at a time: PullList and PushList receive a whole list and
// run their own loop over it, which is what an application's hot path
// wants — one indirect call per vertex, sums kept in registers. Each
// direction takes its list callback when set; the per-edge fields (Update,
// UpdatePull) are served otherwise, by an adapter that is itself a list
// callback looping over them. A traced run reports the lists the kernels
// hand over, not what a callback does with them (see Tracer), so the
// callbacks an untraced run executes are the ones the simulator sees.
type EdgeMapFns struct {
	// Update processes edge src->dst in push mode (src in frontier) and is
	// expected to return true when dst becomes a member of the output
	// frontier. Must be idempotent-safe: dst may be offered multiple times
	// but is added at most once. When the EdgeMap runs with Workers > 1 in
	// push mode, Update is invoked concurrently and must synchronize its
	// own writes (atomics).
	Update func(src, dst graph.VertexID) bool
	// UpdatePull, if non-nil, is used in pull (dense) mode instead of
	// Update; same contract with the same argument order (src, dst). Ligra
	// distinguishes these because pull-mode updates need no atomics: each
	// destination is processed by exactly one worker, so updates that only
	// write dst state are parallel-safe as written.
	UpdatePull func(src, dst graph.VertexID) bool
	// Cond gates destinations. In pull mode the kernel skips every dst
	// with Cond(dst) == false, whichever callback runs. Per edge it is the
	// per-edge adapter that applies it: push skips edges into such a dst,
	// pull rechecks it as the in-edges of dst are scanned, enabling early
	// exit once dst saturates (e.g. BFS parent found). A list callback
	// tests what it needs itself. Nil means always true. In parallel push
	// mode Cond may be invoked concurrently.
	Cond func(dst graph.VertexID) bool
	// PullList, if non-nil, is the pull-mode callback: called once per
	// destination that passes Cond, with dst's whole in-list in stored
	// order, and returns whether dst joins the output frontier. The list
	// is not filtered by the frontier — the caller holds the frontier
	// (VertexSet.Bits) and tests membership where its update needs it —
	// and is only valid during the call. It gets no weights: a graph
	// stores them once, on its out-edges, and no application pulls them
	// (a weighted pull would transpose them first). Every destination
	// belongs to one worker, so writes to dst state need no atomics.
	PullList func(dst graph.VertexID, srcs []graph.VertexID) bool
	// PushList, if non-nil, is the push-mode callback: called once per
	// frontier member with src's whole out-list in stored order and, when
	// Weights is set, the list's weights in ws as stored, aligned index
	// for index (the zero WeightList otherwise). Both are only valid
	// during the call: dsts is a sub-slice on a plain graph and the
	// worker's decode buffer on a compressed one, ws a sub-slice of the
	// packed weights on either, read in place. It appends every
	// destination its update hit to hits and returns the extended slice;
	// a destination may be appended more than once, in a round or in a
	// call, and the kernel keeps the first. hits is the kernel's reused
	// output buffer: append to it, do not read or keep it. With
	// Workers > 1 PushList is invoked concurrently and must synchronize
	// its own writes (atomics). A callback that stores to a destination's
	// property reports the store to a PropertyWriteTracer, if the run has
	// one.
	PushList func(src graph.VertexID, dsts []graph.VertexID, ws graph.WeightList, hits []graph.VertexID) []graph.VertexID
	// Weights asks the push kernel for ws. Only a callback that reads
	// weights sets it, so an unweighted push (BC, Radii) does not pay an
	// OutWeightList call per list.
	Weights bool
}

// perEdge adapts the per-edge fields of an EdgeMapFns to the list
// granularity the kernels call: its two methods have the shape of
// PullList and PushList and hold the loop over single edges — the
// frontier test and the per-edge Cond.
type perEdge struct {
	update     func(src, dst graph.VertexID) bool
	cond       func(dst graph.VertexID) bool
	inFrontier Bitset           // pull only
	hits       []graph.VertexID // push only
}

func newPerEdge(fns EdgeMapFns, pull bool, inFrontier Bitset) perEdge {
	update := fns.Update
	if pull && fns.UpdatePull != nil {
		update = fns.UpdatePull
	}
	return perEdge{update: update, cond: fns.Cond, inFrontier: inFrontier}
}

// pullList offers dst every in-edge whose source is in the frontier.
func (p *perEdge) pullList(dst graph.VertexID, srcs []graph.VertexID) bool {
	joined := false
	for _, src := range srcs {
		if !p.inFrontier.Has(src) {
			continue
		}
		if p.update(src, dst) {
			joined = true
		}
		// Early exit: once dst stops satisfying Cond (e.g. it has been
		// claimed), the rest of its in-edges are skipped, as in Ligra.
		if p.cond != nil && !p.cond(dst) {
			break
		}
	}
	return joined
}

// pushList offers every out-edge of src whose destination passes Cond and
// appends the destinations hit to p.hits — a field, not a parameter, so
// the loops do not carry a slice across their calls. Without a Cond the
// loop tests nothing but the update: a nil test per edge cost ≈5 % on a
// sparse push (EXPERIMENTS.md "Simulate what executes").
func (p *perEdge) pushList(src graph.VertexID, dsts []graph.VertexID) {
	update, cond := p.update, p.cond
	if cond == nil {
		for _, dst := range dsts {
			if update(src, dst) {
				p.hits = append(p.hits, dst)
			}
		}
		return
	}
	for _, dst := range dsts {
		if cond(dst) && update(src, dst) {
			p.hits = append(p.hits, dst)
		}
	}
}

// Direction forces a traversal direction in EdgeMapOpts.
type Direction uint8

const (
	// Auto picks push or pull with Ligra's |frontier out-edges| > M/20
	// heuristic.
	Auto Direction = iota
	// Push forces sparse push-based traversal over out-edges.
	Push
	// Pull forces dense pull-based traversal over in-edges.
	Pull
)

// EdgeMapOpts tunes an EdgeMap call.
type EdgeMapOpts struct {
	// Dir forces a direction; Auto by default.
	Dir Direction
	// Ctx, when non-nil, makes the traversal cooperatively cancellable:
	// it is polled exactly once, on entry — i.e. once per traversal
	// round — and a done context makes EdgeMapInto return false (EdgeMap
	// nil) without scanning any edge. The caller owns translating that
	// into Ctx.Err(). One poll per round costs a few nanoseconds, so
	// cancellation is free on the per-edge hot path.
	Ctx context.Context
	// Workers is the number of worker goroutines the traversal may use;
	// values <= 1 run sequentially. Ignored (sequential) while Trace is
	// set, so simulator traces stay deterministic.
	Workers int
	// Trace, when non-nil, observes every edge examination and property
	// access; used by the trace engine to feed the cache simulator.
	Trace Tracer
}

// Tracer observes the memory behaviour of a traversal. Implemented by the
// trace engine; the zero-overhead case is a nil Tracer. The kernels report
// every list they hand to a callback, whatever the callback's form: first
// VertexVisited for the vertex that owns the list, then EdgeExamined for
// every neighbor on it in stored order, then the callback runs.
type Tracer interface {
	// EdgeExamined is called for each edge of a handed list: src, dst and
	// whether the traversal ran in pull mode.
	EdgeExamined(src, dst graph.VertexID, pull bool)
	// VertexVisited is called once per vertex whose list is handed over:
	// a frontier member in push mode, a destination passing Cond in pull.
	VertexVisited(v graph.VertexID, pull bool)
}

// PropertyWriteTracer is optionally implemented by tracers that model
// actual property-array writes separately from edge examinations. A push
// callback calls PropertyWritten(dst) from its own body when it really
// stores to dst's property — SSSP's successful relaxation, BC's path-count
// add, Radii's growing mask — which is what separates a conditional
// push's writes from its reads, the contrast at the heart of Fig. 9
// (§VI-C). Pull callbacks write only the destination they own, and the
// tracer charges that write per examined edge already.
type PropertyWriteTracer interface {
	Tracer
	PropertyWritten(v graph.VertexID)
}

// WriteTracer extracts the optional write-tracking interface from a Tracer
// once, so a callback avoids a type assertion per write. Returns nil when
// tr is nil or does not track writes.
func WriteTracer(tr Tracer) PropertyWriteTracer {
	if wt, ok := tr.(PropertyWriteTracer); ok {
		return wt
	}
	return nil
}

// EdgeMapInto applies fns over the edges leaving the frontier and stores
// the next frontier in out, per the Ligra model. Push mode scans
// out-edges of frontier members; pull mode scans in-edges of all vertices
// passing Cond (membership of the source is tested per edge for the
// per-edge update functions, and left to a PullList). out's members are
// replaced and its storage kept, so a loop that alternates two sets stops
// allocating once they have grown; out must not be frontier. The round's
// scratch passes from frontier to out (see scratch).
//
// g may be any graph.View: there is one push kernel and one pull kernel,
// and each passes a neighbor list on as a []VertexID handed over by a
// per-worker graph.AdjBuffer — the stored sub-slice on a plain
// *graph.Graph, a reused decode buffer on a compressed *csrz.Graph. All
// backends produce bit-identical frontiers and property updates because
// a list is enumerated in stored order whatever produced it, and
// pull-mode destination ownership is 64-aligned on every backend.
//
// When opts.Ctx is non-nil and already done, EdgeMapInto leaves out as it
// was and returns false (see EdgeMapOpts.Ctx); otherwise it returns true.
func EdgeMapInto(g graph.View, frontier, out *VertexSet, fns EdgeMapFns, opts EdgeMapOpts) bool {
	if out == frontier {
		panic("ligra: EdgeMapInto's output is its frontier")
	}
	if opts.Ctx != nil && opts.Ctx.Err() != nil {
		return false
	}
	workers := opts.Workers
	if workers <= 1 || opts.Trace != nil {
		workers = 1
	}
	dir := opts.Dir
	if dir == Auto {
		// Ligra's switching rule: go dense when the frontier's out-edges
		// plus its size exceed M/20.
		threshold := uint64(g.NumEdges() / 20)
		if frontier.computeOutEdges(g, workers)+uint64(frontier.Len()) > threshold {
			dir = Pull
		} else {
			dir = Push
		}
	}
	if dir == Pull {
		edgeMapPull(g, frontier, out, fns, workers, opts.Trace)
	} else {
		edgeMapPush(g, frontier, out, fns, workers, opts.Trace)
	}
	return true
}

// EdgeMap is EdgeMapInto with a fresh output set, which it returns; nil
// when opts.Ctx is done.
func EdgeMap(g graph.View, frontier *VertexSet, fns EdgeMapFns, opts EdgeMapOpts) *VertexSet {
	out := new(VertexSet)
	if !EdgeMapInto(g, frontier, out, fns, opts) {
		return nil
	}
	return out
}

// edgeMapPush partitions the frontier's member list across workers. Each
// chunk runs pushRange into its own buffer and the buffers are
// concatenated in chunk order; at one worker the whole list is one chunk
// appended straight onto the output.
func edgeMapPush(g graph.View, frontier, out *VertexSet, fns EdgeMapFns, workers int, tr Tracer) {
	n := g.NumVertices()
	sc := takeScratch(frontier, out)
	members := sc.frontierMembers(frontier)
	sc.claimed = sc.claimed.zeroed(n)
	out.reset(n)
	if workers <= 1 {
		out.sparse = pushRange(g, members, fns, tr, sc, false, out.sparse)
	} else {
		out.sparse = sc.gather(len(members), workers, out.sparse, func(lo, hi int, local []graph.VertexID) []graph.VertexID {
			return pushRange(g, members[lo:hi], fns, tr, sc, true, local)
		})
	}
	out.count = len(out.sparse)
}

// pushRange is the push kernel: it hands the out-list of every member
// (with its weights, if the callback asked for them) to the push
// callback, which appends the destinations its update hit to
// out, and keeps the first hit of each destination. The scratch's claim
// bitset deduplicates across all chunks of the round; shared says other
// workers are claiming too, so a slot is taken with compare-and-swap
// instead of a plain test and set. out doubles as the callback's scratch:
// the hits of one list are compacted in place, so nothing is allocated
// per vertex and every worker reuses the buffer it already owns. With a
// tracer, each list is reported (Tracer) before the callback gets it.
func pushRange(g graph.View, members []graph.VertexID, fns EdgeMapFns, tr Tracer, sc *scratch, shared bool, out []graph.VertexID) []graph.VertexID {
	list, weights := fns.PushList, fns.Weights
	edges := newPerEdge(fns, false, nil)
	claimed := sc.claimed
	adj := sc.adjBuffer(g)
	for _, u := range members {
		dsts := adj.Out(g, u)
		if tr != nil {
			tr.VertexVisited(u, false)
			for _, dst := range dsts {
				tr.EdgeExamined(u, dst, false)
			}
		}
		kept := len(out)
		if list != nil {
			var ws graph.WeightList
			if weights {
				ws = g.OutWeightList(u)
			}
			out = list(u, dsts, ws, out)
		} else {
			edges.hits = out
			edges.pushList(u, dsts)
			out = edges.hits
		}
		for _, dst := range out[kept:] {
			first := false
			if shared {
				first = claimed.TrySetAtomic(dst)
			} else if !claimed.Has(dst) {
				claimed.Set(dst)
				first = true
			}
			if first {
				out[kept] = dst
				kept++
			}
		}
		out = out[:kept]
	}
	sc.putAdjBuffer(adj)
	return out
}

// inEdgeIndexer is implemented by the backends that keep the n+1 in-edge
// offset array (*graph.Graph and *csrz.Graph): parallel pull balances its
// chunks by in-edge count through it. It is the prefix sum of the
// in-degrees on every graph, a patched one whose lists lie apart
// included (graph.Graph.InIndex), so it reads as one.
type inEdgeIndexer interface {
	InIndex() []uint64
}

// pullChunksPerWorker oversubscribes pull chunks to smooth residual
// imbalance left by edge-balanced splitting.
const pullChunksPerWorker = 4

// edgeMapPull partitions the destination range into 64-aligned chunks,
// balanced by in-edge count where the backend exposes its index and even
// otherwise, and runs pullRange over each. The output is the same under
// any 64-aligned chunking — every destination is fully processed by one
// worker — so the balancing only spreads the work.
func edgeMapPull(g graph.View, frontier, out *VertexSet, fns EdgeMapFns, workers int, tr Tracer) {
	n := g.NumVertices()
	// Build the membership bitmap before spawning: bits() lazily mutates
	// sparse frontiers and must not race.
	inFrontier := frontier.bits()
	sc := takeScratch(frontier, out)
	out.reset(n)
	out.ensureDense()
	next := out.dense
	if workers <= 1 {
		pullRange(g, inFrontier, next, fns, tr, sc, 0, n)
	} else {
		body := func(lo, hi int) { pullRange(g, inFrontier, next, fns, tr, sc, lo, hi) }
		if ix, ok := g.(inEdgeIndexer); ok {
			par.ForBounds(par.BalancedBounds(ix.InIndex(), n, workers*pullChunksPerWorker, 64), workers, body)
		} else {
			par.For(n, workers, 64, body)
		}
	}
	out.count = next.Count()
}

// pullRange is the pull kernel: it hands the in-list of every destination
// in [lo, hi) that passes Cond to the pull callback and sets the
// destination's bit in next when the callback says it joined, reporting
// each list to the tracer first, if there is one. Callers hand out
// 64-aligned ranges, so the words of next a range writes are its own: no
// atomics.
func pullRange(g graph.View, inFrontier, next Bitset, fns EdgeMapFns, tr Tracer, sc *scratch, lo, hi int) {
	list := fns.PullList
	edges := newPerEdge(fns, true, inFrontier)
	cond := fns.Cond
	adj := sc.adjBuffer(g)
	for v := lo; v < hi; v++ {
		dst := graph.VertexID(v)
		if cond != nil && !cond(dst) {
			continue
		}
		srcs := adj.In(g, dst)
		if tr != nil {
			tr.VertexVisited(dst, true)
			for _, src := range srcs {
				tr.EdgeExamined(src, dst, true)
			}
		}
		var joined bool
		if list != nil {
			joined = list(dst, srcs)
		} else {
			joined = edges.pullList(dst, srcs)
		}
		if joined {
			next.Set(dst)
		}
	}
	sc.putAdjBuffer(adj)
}

// VertexMapInto stores in out the members of s for which f returns true,
// replacing out's members and keeping its storage; out must not be s.
// The output is identical at any worker count: dense chunks are disjoint
// and 64-aligned, and sparse per-chunk outputs are concatenated in chunk
// order, preserving input order. f may be invoked concurrently when
// workers > 1.
func VertexMapInto(s, out *VertexSet, f func(v graph.VertexID) bool, workers int) {
	if out == s {
		panic("ligra: VertexMapInto's output is its input")
	}
	out.reset(s.n)
	if s.isDense {
		// The dense path scans the whole universe bitmap, so parallelism is
		// bounded by n, not by how many members the scan will find.
		out.ensureDense()
		if workers <= 1 {
			filterDense(s.dense, out.dense, f, 0, s.n)
		} else {
			par.For(s.n, workers, 64, func(lo, hi int) { filterDense(s.dense, out.dense, f, lo, hi) })
		}
		out.count = out.dense.Count()
		return
	}
	if workers > s.count {
		workers = s.count
	}
	if workers <= 1 {
		for _, v := range s.sparse {
			if f(v) {
				out.sparse = append(out.sparse, v)
			}
		}
	} else {
		out.sparse = takeScratch(s, out).gather(len(s.sparse), workers, out.sparse, func(lo, hi int, local []graph.VertexID) []graph.VertexID {
			for _, v := range s.sparse[lo:hi] {
				if f(v) {
					local = append(local, v)
				}
			}
			return local
		})
	}
	out.count = len(out.sparse)
}

// filterDense sets in out the members of in within [lo, hi) for which f
// returns true. Ranges are 64-aligned, so concurrent calls write disjoint
// words.
func filterDense(in, out Bitset, f func(v graph.VertexID) bool, lo, hi int) {
	for v := lo; v < hi; v++ {
		if in.Has(graph.VertexID(v)) && f(graph.VertexID(v)) {
			out.Set(graph.VertexID(v))
		}
	}
}
