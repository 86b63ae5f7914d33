// Package dynamic implements the evolving-graph deployment sketched in
// the paper's future-work section (§VIII-B): a stream of edge updates is
// interleaved with graph-analytic queries, and reordering is re-applied
// only at periodic intervals so its cost is amortized over many queries.
//
// The package provides a batched-update graph whose snapshots are the
// static CSR graphs the rest of the library consumes, and a Reorderer that
// owns the periodic-reordering policy. The paper's intuition — adding or
// removing some edges does not drastically change the degree
// distribution, so hot-vertex classification stays valid between
// reorderings — is exactly what the staleness policy encodes.
//
// A Graph holds its edges once, as the CSR a Reorderer serves: the
// canonical CSR (lists sorted by (neighbor, weight) in original vertex
// order, a function of the edge multiset alone) relabeled by the
// Reorderer's permutation, or by none before one is installed. Beside it
// is a log of every edge instance inserted or removed, in original IDs.
// The edits after the CSR's log position are pending, summed per (src,
// dst) bucket and weight, until graph.Patch folds them into a new CSR
// (the edited lists merged and written into room the previous CSR's
// arrays share, the untouched ones read where they are; defined to equal
// the full rebuild relabeled, list for list): a View folds, and so do Snapshot
// and a batch that takes the pending edits past max(1024, edges/8); a
// refresh folds them straight into its new order (graph.PatchRelabel). A
// removal takes the heaviest instance of its bucket, the last in
// canonical order, so every state is a function of the edge multiset: a
// graph started from another's snapshot (a checkpoint) and fed the same
// batches stays equal to it, weights included. The log keeps the pending
// edits and, while a Mark is outstanding, everything after it.
//
// Snapshot relabels the CSR into original order, O(E). Graphs handed out
// are never touched again: a patch never writes a byte that a graph it
// patched, or any earlier one, can read.
package dynamic

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sort"

	"graphreorder/internal/graph"
	"graphreorder/internal/reorder"
)

// Update is one edge mutation.
type Update struct {
	// Remove distinguishes deletions from insertions.
	Remove bool
	Edge   graph.Edge
}

// edgeKey identifies one (src, dst) multiset bucket.
type edgeKey struct {
	src, dst graph.VertexID
}

// pendingWeight is the net count of a bucket's pending edits of one
// weight, and the position plus one of the bucket's next pendingWeight.
type pendingWeight struct {
	w, next uint32
	net     int32
}

// minLogRetain is the edit-log retention of a small graph; larger graphs
// retain an eighth of their edge count.
const minLogRetain = 1024

// noPin is Graph.pin while no Mark is outstanding.
const noPin = math.MaxUint64

// Graph is a directed multigraph under batched mutation. It is not safe
// for concurrent use. A batch is atomic: Apply either installs every
// update in the batch or leaves the graph exactly as it was. Per-vertex
// degrees are maintained incrementally, so degree-distribution checks
// (the paper's hot-vertex classification) never materialize a snapshot;
// beside the CSR a Graph holds only them, its permutation, the log and
// the pending sums.
type Graph struct {
	n, m     int
	weighted bool
	outDeg   []int32
	inDeg    []int32

	// log[i] is edit number logBase+i of the graph's history: one entry
	// per edge instance inserted or removed (a removal records the weight
	// of the instance it took), rollbacks included — RollbackTo appends
	// the inverse edits instead of truncating, so positions only grow.
	log       []graph.EdgeEdit
	logBase   uint64
	logRetain int    // retention override (tests); 0 means max(minLogRetain, edges/8)
	pin       uint64 // edits from here on are never trimmed: the last Mark, or noPin

	// csr is the graph as of log position csrSeq relabeled by perm, so
	// its lists are ordered by (inv[neighbor], weight), inv being perm's
	// inverse; nil means the identity for both. layouts counts the
	// permutations installed. The edits after csrSeq are pending, summed
	// per weight. pend maps each bucket with pending edits to the
	// position plus one of its first entry in sums, 0 meaning none.
	csr       *graph.Graph
	perm, inv reorder.Permutation
	layouts   int
	csrSeq    uint64
	pend      map[edgeKey]uint32
	sums      []pendingWeight
	bucket    []pendingWeight // heaviest's scratch

	// rebuilt reports that FromGraph's argument was not in canonical
	// order; builds counts the CSRs not made by a fold (that rebuild and a
	// shrinking rollback's).
	rebuilt bool
	builds  int

	batches int // mutation batches applied since creation
}

// FromGraph starts a dynamic graph from a static snapshot. A graph in
// canonical order — as every graph built with SortNeighbors, patched or
// generated is — becomes its CSR after one O(E) check; any other is
// rebuilt in canonical order once.
func FromGraph(g *graph.Graph) *Graph {
	n := g.NumVertices()
	d := &Graph{n: n, m: g.NumEdges(), weighted: g.Weighted(), outDeg: make([]int32, n), inDeg: make([]int32, n),
		pin: noPin, csr: g, pend: make(map[edgeKey]uint32)}
	for v := range graph.VertexID(n) {
		d.outDeg[v], d.inDeg[v] = int32(g.OutDegree(v)), int32(g.InDegree(v))
	}
	if !g.Canonical() {
		c, err := graph.BuildWith(g.Edges(), graph.BuildOptions{NumVertices: n, Weighted: d.weighted, SortNeighbors: true})
		if err != nil {
			panic(err) // g's edges lie in g's vertex space
		}
		d.csr, d.rebuilt, d.builds = c, true, 1
	}
	return d
}

// NumVertices returns the current vertex-space size.
func (d *Graph) NumVertices() int { return d.n }

// NumEdges returns the current edge count.
func (d *Graph) NumEdges() int { return d.m }

// Batches returns how many update batches have been applied.
func (d *Graph) Batches() int { return d.batches }

// OutDegree returns v's current out-degree (maintained incrementally).
func (d *Graph) OutDegree(v graph.VertexID) int { return int(d.outDeg[v]) }

// InDegree returns v's current in-degree (maintained incrementally).
func (d *Graph) InDegree(v graph.VertexID) int { return int(d.inDeg[v]) }

// Count returns how many (src, dst) edge instances are present: a binary
// search in src's CSR list plus the bucket's pending weights.
func (d *Graph) Count(src, dst graph.VertexID) int {
	lo, hi, _ := d.span(src, dst)
	c := hi - lo
	for l := d.pend[edgeKey{src, dst}]; l != 0; l = d.sums[l-1].next {
		c += int(d.sums[l-1].net)
	}
	return c
}

// span returns the positions [lo, hi) of src's CSR list that hold dst,
// and the list's weights. The list is ordered by original ID, so the
// search compares its entries through inv.
func (d *Graph) span(src, dst graph.VertexID) (int, int, graph.WeightList) {
	if int(src) >= d.csr.NumVertices() {
		return 0, 0, graph.WeightList{}
	}
	orig := cmp.Compare[graph.VertexID]
	if d.perm != nil {
		src, orig = d.perm[src], func(x, v graph.VertexID) int { return cmp.Compare(d.inv[x], v) }
	}
	list := d.csr.OutNeighbors(src)
	lo, _ := slices.BinarySearchFunc(list, dst, orig)
	hi, _ := slices.BinarySearchFunc(list[lo:], dst+1, orig) // a vertex ID is below 2^32-1
	return lo, lo + hi, d.csr.OutWeightList(src)
}

// heaviest returns the weight of the heaviest (src, dst) instance present,
// the one a removal takes, or false when there is none: of the weights the
// CSR and the bucket's pending weights hold, the largest whose net
// multiplicity is positive. It costs a binary search per weight it looks
// at, and a sort of the bucket's pending weights, of which a bucket
// churned by removals and re-inserts holds one.
func (d *Graph) heaviest(src, dst graph.VertexID) (uint32, bool) {
	b := d.bucket[:0]
	for l := d.pend[edgeKey{src, dst}]; l != 0; l = d.sums[l-1].next {
		b = append(b, d.sums[l-1])
	}
	d.bucket = b
	slices.SortFunc(b, func(x, y pendingWeight) int { return cmp.Compare(y.w, x.w) })
	lo, hi, ws := d.span(src, dst)
	for hi > lo || len(b) > 0 {
		var w uint32
		if hi > lo {
			w = ws.At(hi - 1)
		}
		if len(b) > 0 {
			w = max(w, b[0].w)
		}
		// The CSR's instances of w end at hi.
		i := lo + sort.Search(hi-lo, func(k int) bool { return ws.At(lo+k) >= w })
		c := hi - i
		if hi = i; len(b) > 0 && b[0].w == w {
			c, b = c+int(b[0].net), b[1:]
		}
		if c > 0 {
			return w, true
		}
	}
	return 0, false
}

// AddVertices grows the vertex space by k and returns the first new ID.
// Non-positive k is a no-op (the vertex space never shrinks).
func (d *Graph) AddVertices(k int) graph.VertexID {
	first := graph.VertexID(d.n)
	d.grow(max(k, 0))
	return first
}

func (d *Graph) grow(k int) {
	d.n += k
	d.outDeg = append(d.outDeg, make([]int32, k)...)
	d.inDeg = append(d.inDeg, make([]int32, k)...)
}

// shrink takes the vertex space back to n; no edge touches the rest.
func (d *Graph) shrink(n int) {
	d.n, d.outDeg, d.inDeg = n, d.outDeg[:n], d.inDeg[:n]
}

// Apply applies one batch of updates atomically. Insertions of edges
// with endpoints outside the vertex space and removals of absent edges
// are errors; on error no update in the batch takes effect. See ApplyGrow
// for which instance a removal takes.
func (d *Graph) Apply(batch []Update) error {
	_, err := d.ApplyGrow(0, batch)
	return err
}

// ApplyGrow grows the vertex space by addVertices and applies batch as a
// single atomic operation: the batch is checked against the grown vertex
// space (so it may reference the new vertices), and on error nothing
// changes — not even the growth. It returns the first new vertex ID
// (meaningful only when addVertices > 0).
//
// A removal names a (src, dst) bucket and ignores its weight: it takes the
// heaviest instance present at its point in the batch, the last in
// canonical order. On an unweighted graph weights are dropped.
func (d *Graph) ApplyGrow(addVertices int, batch []Update) (graph.VertexID, error) {
	if addVertices < 0 {
		return 0, fmt.Errorf("dynamic: negative vertex growth %d", addVertices)
	}
	n := d.n + addVertices
	for _, u := range batch {
		if int(u.Edge.Src) >= n || int(u.Edge.Dst) >= n {
			return 0, fmt.Errorf("dynamic: edge %d->%d outside vertex space [0,%d)",
				u.Edge.Src, u.Edge.Dst, n)
		}
	}
	// Updates are logged one by one, so a removal sees those before it; an
	// absent removal takes the batch's edits, all pending, back off.
	first, start := d.n, d.seq()
	d.grow(addVertices)
	for _, u := range batch {
		e := graph.EdgeEdit{Src: u.Edge.Src, Dst: u.Edge.Dst, Remove: u.Remove}
		if u.Remove {
			var ok bool
			if e.Weight, ok = d.heaviest(e.Src, e.Dst); !ok {
				for d.seq() > start {
					d.pop()
				}
				d.shrink(first)
				return 0, fmt.Errorf("dynamic: removing absent edge %d->%d", e.Src, e.Dst)
			}
		} else if d.weighted {
			e.Weight = u.Edge.Weight
		}
		d.edit(e)
	}
	d.batches++
	d.settle()
	return graph.VertexID(first), nil
}

// edit logs e as a pending edit; a removal's instance must be present.
func (d *Graph) edit(e graph.EdgeEdit) {
	d.log = append(d.log, e)
	d.count(e, 1)
}

// pop takes the newest edit, a pending one, back off the log.
func (d *Graph) pop() {
	e := d.log[len(d.log)-1]
	d.log = d.log[:len(d.log)-1]
	d.count(e, -1)
}

// count adds sign times e's effect to its bucket's pending weights, the
// degrees and the edge count.
func (d *Graph) count(e graph.EdgeEdit, sign int) {
	if e.Remove {
		sign = -sign
	}
	k := edgeKey{e.Src, e.Dst}
	l := d.pend[k]
	for l != 0 && d.sums[l-1].w != e.Weight {
		l = d.sums[l-1].next
	}
	if l == 0 {
		d.sums = append(d.sums, pendingWeight{w: e.Weight, next: d.pend[k]})
		l = uint32(len(d.sums))
		d.pend[k] = l
	}
	d.sums[l-1].net += int32(sign)
	d.outDeg[e.Src] += int32(sign)
	d.inDeg[e.Dst] += int32(sign)
	d.m += sign
}

// fold patches the pending edits into the CSR over the current vertex
// space, mapped through perm; grown vertices keep their IDs. A non-nil to
// (original ID to new ID, over the vertex space) becomes the graph's
// permutation: the same pass relabels the CSR into its order
// (graph.PatchRelabel), unless the CSR is in that order already. It
// fails, changing nothing, only when log and CSR disagree.
func (d *Graph) fold(to reorder.Permutation) error {
	if to == nil && d.csrSeq == d.seq() && d.csr.NumVertices() == d.n {
		return nil
	}
	if to != nil && len(to) != d.n {
		return fmt.Errorf("dynamic: a permutation of %d vertices for a graph of %d", len(to), d.n)
	}
	edits := d.log[d.csrSeq-d.logBase:]
	perm, inv := d.perm, d.inv
	if perm != nil {
		if k := len(perm); k < d.n {
			ids := reorder.Identity(d.n)[k:]
			perm, inv = append(perm[:k:k], ids...), append(inv[:k:k], ids...)
		}
		moved := make([]graph.EdgeEdit, len(edits))
		for i, e := range edits {
			moved[i] = graph.EdgeEdit{Src: perm[e.Src], Dst: perm[e.Dst], Weight: e.Weight, Remove: e.Remove}
		}
		edits = moved
	}
	var newID reorder.Permutation
	if to != nil {
		if !inLayout(inv, to) {
			newID = to
			if inv != nil {
				newID = inv.Compose(to) // CSR ID -> original ID -> new ID
			}
		} else if inv == nil {
			inv = to // the identity, its own inverse
		}
	}
	g := d.csr
	if len(edits) > 0 || g.NumVertices() != d.n || newID != nil {
		var err error
		if g, err = g.PatchRelabel(edits, d.n, inv, newID); err != nil {
			return err
		}
	}
	switch {
	case newID != nil:
		perm, inv = to, to.Inverse()
	case to != nil:
		perm = to
	}
	d.set(g, perm, inv)
	return nil
}

// set makes g, in perm's order (inv its inverse), the CSR, holding every
// edit in the log.
func (d *Graph) set(g *graph.Graph, perm, inv reorder.Permutation) {
	d.csr, d.perm, d.inv, d.csrSeq = g, perm, inv, d.seq()
	clear(d.pend)
	d.sums = d.sums[:0]
}

// degrees returns what graph.Graph.Degrees does on a snapshot.
func (d *Graph) degrees(kind graph.DegreeKind) []uint32 {
	degs := make([]uint32, d.n)
	for v := range degs {
		if kind != graph.InDegree {
			degs[v] += uint32(d.outDeg[v])
		}
		if kind != graph.OutDegree {
			degs[v] += uint32(d.inDeg[v])
		}
	}
	return degs
}

// settle ends a mutation: it folds the pending edits once they pass the
// retention bound, and trims the log.
func (d *Graph) settle() {
	if d.seq()-d.csrSeq > uint64(d.retain()) {
		// Validated edits always fold; were they refused, they would stay
		// pending and the next Snapshot would report the error.
		_ = d.fold(nil)
	}
	d.trimLog()
}

// RestoreBatches overrides the batch counter, aligning it with an
// external mutation history: recovery replays write-ahead-log batches
// onto a checkpointed graph and must resume numbering where the log
// ended, and a rollback to a last-good snapshot must resume where that
// snapshot's history ended — in both cases the graph was rebuilt via
// FromGraph, whose counter starts at zero.
func (d *Graph) RestoreBatches(n int) {
	if n >= 0 {
		d.batches = n
	}
}

// seq returns the current edit-log position: the number of edits in the
// graph's history.
func (d *Graph) seq() uint64 { return d.logBase + uint64(len(d.log)) }

func (d *Graph) retain() int {
	if d.logRetain > 0 {
		return d.logRetain
	}
	return max(minLogRetain, d.m/8)
}

// trimLog drops every edit the CSR has absorbed and no Mark needs, once
// the log outgrows the retention bound, so the copy is amortized.
func (d *Graph) trimLog() {
	if len(d.log) <= d.retain() {
		return
	}
	if drop := min(d.csrSeq, d.pin) - d.logBase; drop > 0 {
		d.log = append(d.log[:0], d.log[drop:]...)
		d.logBase += drop
	}
}

// Mark is a point in a Graph's history that RollbackTo can return to.
type Mark struct {
	of         *Graph
	seq        uint64
	n, batches int
}

// Mark returns the current point of the graph's history and pins the
// edit log there: edits applied from now on are kept, whatever the
// retention bound, until the next Mark call moves the pin — so a caller
// that marks each state it may have to return to (graphd marks every
// published one) can always roll back to its latest mark, and holds
// back no more log than it has applied since.
func (d *Graph) Mark() Mark {
	d.pin = d.seq()
	return Mark{of: d, seq: d.pin, n: d.n, batches: d.batches}
}

// RollbackTo returns the graph to the state it had at m: the edits
// applied since are undone in reverse order, vertex growth since is taken
// back, and the batch counter is restored. Undoing an insert removes an
// instance of its weight, so the multiset, and with it the instance every
// later removal takes, is what it was at m. The undo is itself logged,
// pending like any other edit, and a rollback that shrinks the vertex
// space cuts the CSR down once.
// It fails, changing nothing, for a mark of another graph or one whose
// edits have been trimmed (only the latest Mark is pinned).
func (d *Graph) RollbackTo(m Mark) error {
	if m.of != d || m.seq < d.logBase || m.seq > d.seq() {
		return fmt.Errorf("dynamic: mark at edit %d is not (or no longer) in this graph's log [%d,%d]",
			m.seq, d.logBase, d.seq())
	}
	// The edits to undo may touch vertices of a growth that an earlier
	// rollback already took back: give them room for the replay.
	room := max(d.n, m.n)
	for _, e := range d.log[m.seq-d.logBase:] {
		room = max(room, int(e.Src)+1, int(e.Dst)+1)
	}
	d.grow(room - d.n)
	for s := d.seq(); s > m.seq; s-- {
		e := d.log[s-1-d.logBase]
		e.Remove = !e.Remove
		d.edit(e)
	}
	if room > m.n {
		// No edge touches the vertices past m.n any more, but the CSR or
		// the pending edits may: fold over the room, then cut the CSR at
		// m.n. A permutation that maps no vertex past m.n below it keeps
		// its first m.n entries; any other gives way to original order.
		if err := d.fold(nil); err != nil {
			return err
		}
		g, err := d.csr, error(nil)
		if d.perm != nil && slices.ContainsFunc(d.perm[m.n:], func(id graph.VertexID) bool { return int(id) < m.n }) {
			if g, err = d.Snapshot(); err != nil {
				return err
			}
			d.perm, d.inv, d.layouts = nil, nil, d.layouts+1
		}
		g = g.Compact() // the cut keeps a prefix of each array
		ws, wb := g.OutWeightArray()
		if d.csr, err = graph.NewFromCSR(m.n, g.NumEdges(), g.OutIndex()[:m.n+1], g.OutEdgeArray(), ws, wb,
			g.InIndex()[:m.n+1], g.InEdgeArray()); err != nil {
			return err
		}
		if d.perm != nil {
			d.perm, d.inv = d.perm[:m.n:m.n], d.inv[:m.n:m.n]
		}
		d.builds++
	}
	d.shrink(m.n)
	d.batches = m.batches
	d.settle()
	return nil
}

// Snapshot returns the current graph as static CSR in canonical order,
// so the result depends on the edge multiset only: the CSR with the
// pending edits folded in, relabeled into original order (O(E)) once a
// Reorderer has installed an ordering.
func (d *Graph) Snapshot() (*graph.Graph, error) {
	if err := d.fold(nil); err != nil {
		return nil, err
	}
	if d.inv == nil {
		return d.csr, nil
	}
	return d.csr.Relabel(d.inv)
}

// Policy configures when a Reorderer refreshes its ordering.
type Policy struct {
	// Every reorders after this many update batches; 0 disables periodic
	// reordering (the ordering from the last explicit Refresh persists).
	Every int
}

// Reorderer maintains a reordered view of a dynamic graph, the graph's
// own CSR, under a periodic-refresh policy: between refreshes the stale
// permutation is reused, per §VIII-B.
type Reorderer struct {
	tech   reorder.Technique
	kind   graph.DegreeKind
	policy Policy

	// Workers is the worker count of a refresh that plans from the
	// snapshot (a plan that reads more than degrees); 0 or 1 pins the
	// sequential path. Patching a view, and relabeling it as it is
	// patched, is sequential.
	Workers int

	// perm is the ordering installed in of as its layout number layout,
	// after batchesAtPerm batches; seq is of's CSR position at last View.
	of            *Graph
	layout        int
	perm          reorder.Permutation
	batchesAtPerm int
	seq           uint64
	// Refreshes counts how many times the ordering was recomputed;
	// Patches counts the views between refreshes that folded edits into
	// the previous one.
	Refreshes int
	Patches   int
	// Advice is the advisor's verdict behind the last refresh's ordering
	// when the technique is reorder.Auto, nil for any other. A caller that
	// Seeds an advised ordering sets it beside.
	Advice *reorder.Recommendation
}

// NewReorderer builds a Reorderer; the first View call performs the
// initial reordering.
func NewReorderer(tech reorder.Technique, kind graph.DegreeKind, policy Policy) *Reorderer {
	return &Reorderer{tech: tech, kind: kind, policy: policy}
}

// Seed installs an externally computed ordering of d as the Reorderer's
// current state, so the first View does not redo work the caller already
// performed (e.g. a snapshot-build pipeline that reordered the graph
// itself). view must be d's current snapshot relabeled by perm — the
// graph d.Snapshot() returns, or, before d's first edit, the graph d was
// created from. d adopts view as its CSR, which the first View after a
// mutation patches — or, when FromGraph had to put its argument in
// canonical order, the relabel of the CSR FromGraph built.
func (r *Reorderer) Seed(d *Graph, view *graph.Graph, perm reorder.Permutation) {
	if d.rebuilt && d.seq() == 0 {
		view = nil
	}
	if err := r.install(d, view, perm); err != nil {
		panic(fmt.Sprintf("dynamic: Seed: %v", err)) // perm is not a permutation of d's vertices
	}
}

// install makes perm d's ordering and view, d's graph relabeled by perm,
// its CSR; a nil view is d's CSR with the pending edits patched in and
// relabeled into perm's order in one pass — or only patched, when perm is
// the order it is already in.
func (r *Reorderer) install(d *Graph, view *graph.Graph, perm reorder.Permutation) error {
	if view != nil {
		d.set(view, perm, perm.Inverse())
	} else if err := d.fold(perm); err != nil {
		return err
	}
	d.layouts++
	r.of, r.layout, r.perm, r.batchesAtPerm, r.seq = d, d.layouts, perm, d.Batches(), d.csrSeq
	r.Refreshes++
	return nil
}

// inLayout reports whether a CSR whose vertex c is original vertex inv[c]
// (c itself for a nil inv) already has every vertex where perm puts it:
// relabeling it by perm would be the identity.
func inLayout(inv, perm reorder.Permutation) bool {
	if inv != nil && len(inv) != len(perm) {
		return false
	}
	for c := range perm {
		v := c
		if inv != nil {
			v = int(inv[c])
		}
		if int(perm[v]) != c {
			return false
		}
	}
	return true
}

// Due reports whether the next View of d refreshes the ordering: there
// is none for d, d's vertex space or permutation changed, or it is time.
func (r *Reorderer) Due(d *Graph) bool {
	return r.of != d || r.layout != d.layouts || len(r.perm) != d.NumVertices() ||
		(r.policy.Every > 0 && d.Batches()-r.batchesAtPerm >= r.policy.Every)
}

// Refresh recomputes the ordering and patches d's pending edits into a
// CSR in its order, relabeling as it patches: one pass and one new CSR.
// The ordering is reorder.Resolve's from d's maintained degrees, its
// snapshot's, so a skew-aware technique or Auto (which re-advises, its
// verdict kept in Advice) exports nothing. Only a plan that reads more
// than the degrees gets the snapshot, dropped before the relabel: two
// CSRs at most are alive.
func (r *Reorderer) Refresh(d *Graph) error {
	perm, rec, ok := reorder.Resolve(r.tech, d.degrees(r.kind), d.m)
	if !ok {
		g, err := d.Snapshot()
		if err != nil {
			return err
		}
		if perm, err = reorder.PlanOf(r.tech).PermuteWorkers(g, r.kind, r.Workers); err != nil {
			return err
		}
	}
	if perm == nil {
		perm = reorder.Identity(d.n)
	}
	r.Advice = rec
	return r.install(d, nil, perm)
}

// View returns the reordered snapshot of d — d.Snapshot() relabeled by
// the returned permutation, list for list (array for array once
// compacted, graph.Graph.Compact) — refreshing the ordering if
// it is Due. The permutation maps d's vertex IDs to the view's IDs
// (needed to translate query roots). Between refreshes the view is d's
// CSR, its pending edits folded in: work per edited list, plus O(V) for
// its index, and a copy of the CSR only when graph.Patch makes one.
func (r *Reorderer) View(d *Graph) (*graph.Graph, reorder.Permutation, error) {
	var err error
	if r.Due(d) {
		err = r.Refresh(d)
	} else {
		err = d.fold(nil) // stale permutation, fresh edges: the reuse §VIII-B argues for
	}
	if err != nil {
		return nil, nil, err
	}
	if r.seq != d.csrSeq {
		r.seq, r.Patches = d.csrSeq, r.Patches+1
	}
	return d.csr, r.perm, nil
}
