// Package dynamic implements the evolving-graph deployment sketched in
// the paper's future-work section (§VIII-B): a stream of edge updates is
// interleaved with graph-analytic queries, and reordering is re-applied
// only at periodic intervals so its cost is amortized over many queries.
//
// The package provides a batched-update graph whose snapshots are the
// static CSR graphs the rest of the library consumes — an edge list under
// a flat, pointer-free (src, dst) multiset index, ~25 bytes per edge in
// all — and a Reorderer that owns the periodic-reordering policy. The
// paper's intuition — adding or removing some edges does not drastically
// change the degree distribution, so hot-vertex classification stays
// valid between reorderings — is exactly what the staleness policy
// encodes.
//
// A few edge updates do not change most of the CSR either, so between
// refreshes nothing is rebuilt. Beside its edge list a Graph keeps an
// edit log: every edge instance inserted or removed since, in order,
// under absolute sequence numbers. A reader that remembers the log
// position its CSR reflects — the Graph's own cached Snapshot, a
// Reorderer's View — brings that CSR up to date with graph.Patch, which
// copies the untouched adjacency lists and re-merges only the edited
// ones, and is defined to produce exactly the arrays a full rebuild
// would. That definition needs a canonical order: every list is sorted
// by (neighbor, weight) in original vertex order, so a CSR is a function
// of the edge multiset alone — not of the order the edge list is in,
// which removals (swap with last) and rollbacks scramble.
//
// The full rebuild remains the fallback, taken whenever patching is not
// well-defined or not worth it: the reader's position has been trimmed
// off the log, its delta exceeds about an eighth of the edge count, the
// vertex space shrank under it (a rollback) or, for a View, changed at
// all, or its CSR was not built by this package (FromGraph accepts
// graphs with lists in any order). The log is bounded: it retains the
// last max(1024, edges/8) edits, 16 bytes each — at most two bytes per
// edge — plus, while a Mark is outstanding, everything after that mark
// so RollbackTo can always undo it.
//
// Graphs handed out are never touched again: Snapshot and View return
// freshly allocated CSRs, a patch never writes into or reuses the arrays
// of the graph it patches, and callers may keep any number of old
// results for as long as they like.
package dynamic

import (
	"fmt"
	"math"
	"math/bits"

	"graphreorder/internal/graph"
	"graphreorder/internal/reorder"
)

// Update is one edge mutation.
type Update struct {
	// Remove distinguishes deletions from insertions.
	Remove bool
	Edge   graph.Edge
}

// edgeKey identifies one (src, dst) multiset bucket in a batch's
// validation delta.
type edgeKey struct {
	src, dst graph.VertexID
}

// maxEdges bounds the edge list: index links are uint32(position + 1).
const maxEdges = math.MaxUint32 - 1

// minLogRetain is the edit-log retention of a small graph; larger graphs
// retain an eighth of their edge count.
const minLogRetain = 1024

// noPin is Graph.pin while no Mark is outstanding.
const noPin = math.MaxUint64

// Graph is a directed multigraph under batched mutation. It is not safe
// for concurrent use. The last snapshot is cached, and patched from the
// edit log rather than rebuilt when a later Snapshot finds it stale.
//
// A batch is atomic: Apply either installs every update in the batch or
// leaves the graph exactly as it was, and the cached snapshot always
// reflects the current edge set. Removals are O(1) amortized via a
// (src, dst) → positions multiset index, and per-vertex degrees are
// maintained incrementally so degree-distribution checks (the paper's
// hot-vertex classification) never need to materialize a snapshot.
//
// The index is flat and pointer-free — three slices the collector never
// scans, ~12 bytes per edge on top of the 12-byte edge list. A link is
// an edge position plus one, 0 meaning none. table is an open-addressing
// (linear probing, load <= 1/2) hash set of the distinct (src, dst) keys:
// a slot holds the link of the key's most recently inserted instance,
// and the key itself is read from edges through that link rather than
// stored. next chains every instance to the next older one of its key.
type Graph struct {
	n        int
	edges    []graph.Edge
	weighted bool

	table  []uint32 // len is a power of two, 1<<(64-shift)
	shift  uint
	keys   int      // occupied table slots
	next   []uint32 // parallel to edges
	outDeg []int32
	inDeg  []int32

	// log[i] is edit number logBase+i of the graph's history: one entry
	// per edge instance inserted or removed (a removal records the weight
	// of the instance it took), rollbacks included — RollbackTo appends
	// the inverse edits instead of truncating, so positions only grow
	// and every reader, however far along, can patch its way forward.
	log       []graph.EdgeEdit
	logBase   uint64
	logRetain int    // retention override (tests); 0 means max(minLogRetain, edges/8)
	pin       uint64 // edits from here on are never trimmed: the last Mark, or noPin

	// snapshot is the CSR as of log position snapSeq. canonical reports
	// that this package built it, so its lists are in canonical order and
	// it can be patched; a foreign one (FromGraph) is dropped by the first
	// mutation instead.
	snapshot  *graph.Graph
	snapSeq   uint64
	canonical bool
	builds    int // full CSR builds from the edge list

	batches int // mutation batches applied since creation
}

// FromGraph starts a dynamic graph from a static snapshot. It panics on
// a graph of more than 2^32-2 edges, which the index cannot address.
func FromGraph(g *graph.Graph) *Graph {
	edges := g.Edges()
	if len(edges) > maxEdges {
		panic(fmt.Sprintf("dynamic: %d edges exceed the index limit %d", len(edges), maxEdges))
	}
	d := &Graph{
		n:        g.NumVertices(),
		edges:    edges,
		weighted: g.Weighted(),
		next:     make([]uint32, len(edges)),
		outDeg:   make([]int32, g.NumVertices()),
		inDeg:    make([]int32, g.NumVertices()),
		snapshot: g,
		pin:      noPin,
	}
	// Sized for every edge being a distinct key, so linking never rehashes.
	d.rehash(1 << bits.Len(uint(2*len(edges))|7))
	for i, e := range edges {
		d.link(i)
		d.outDeg[e.Src]++
		d.inDeg[e.Dst]++
	}
	return d
}

// NumVertices returns the current vertex-space size.
func (d *Graph) NumVertices() int { return d.n }

// NumEdges returns the current edge count.
func (d *Graph) NumEdges() int { return len(d.edges) }

// Batches returns how many update batches have been applied.
func (d *Graph) Batches() int { return d.batches }

// OutDegree returns v's current out-degree (maintained incrementally).
func (d *Graph) OutDegree(v graph.VertexID) int { return int(d.outDeg[v]) }

// InDegree returns v's current in-degree (maintained incrementally).
func (d *Graph) InDegree(v graph.VertexID) int { return int(d.inDeg[v]) }

// AvgDegree returns the current mean out-degree.
func (d *Graph) AvgDegree() float64 {
	if d.n == 0 {
		return 0
	}
	return float64(len(d.edges)) / float64(d.n)
}

// Count returns how many (src, dst) edge instances are present, in time
// proportional to the answer.
func (d *Graph) Count(src, dst graph.VertexID) int {
	return d.count(src, dst, math.MaxInt)
}

// AddVertices grows the vertex space by k and returns the first new ID.
// Non-positive k is a no-op (the vertex space never shrinks).
func (d *Graph) AddVertices(k int) graph.VertexID {
	first := graph.VertexID(d.n)
	if k <= 0 {
		return first
	}
	d.grow(k)
	d.touch()
	return first
}

// touch notes a mutation: a foreign snapshot cannot be patched forward,
// so it is released; a canonical one stays as the base of the next patch.
func (d *Graph) touch() {
	if !d.canonical {
		d.snapshot = nil
	}
}

func (d *Graph) grow(k int) {
	d.n += k
	d.outDeg = append(d.outDeg, make([]int32, k)...)
	d.inDeg = append(d.inDeg, make([]int32, k)...)
}

// Apply applies one batch of updates atomically. Insertions of edges
// with endpoints outside the vertex space and removals of absent edges
// are errors (removals delete one matching (src, dst) instance, ignoring
// weight); on error no update in the batch takes effect.
func (d *Graph) Apply(batch []Update) error {
	_, err := d.ApplyGrow(0, batch)
	return err
}

// ApplyGrow grows the vertex space by addVertices and applies batch as a
// single atomic operation: the batch is validated up front against the
// grown vertex space (so it may reference the new vertices), and on error
// nothing changes — not even the growth. It returns the first new vertex
// ID (meaningful only when addVertices > 0).
func (d *Graph) ApplyGrow(addVertices int, batch []Update) (graph.VertexID, error) {
	if addVertices < 0 {
		return 0, fmt.Errorf("dynamic: negative vertex growth %d", addVertices)
	}
	// Validation pass: check the whole batch against the current state
	// plus the batch's own net effect per (src, dst) bucket, so a
	// mid-batch error can never leave earlier updates applied. The delta
	// map exists only to let removals see earlier in-batch updates, so
	// it is allocated lazily on the first removal (backfilling the
	// inserts seen so far) — the common insert-only batch does no map
	// work at all here.
	n := d.n + addVertices
	var delta map[edgeKey]int
	inserts := 0
	for i, u := range batch {
		if int(u.Edge.Src) >= n || int(u.Edge.Dst) >= n {
			return 0, fmt.Errorf("dynamic: edge %d->%d outside vertex space [0,%d)",
				u.Edge.Src, u.Edge.Dst, n)
		}
		k := edgeKey{u.Edge.Src, u.Edge.Dst}
		if !u.Remove {
			if inserts++; len(d.edges)+inserts > maxEdges {
				return 0, fmt.Errorf("dynamic: batch grows the graph past %d edges", maxEdges)
			}
			if delta != nil {
				delta[k]++
			}
			continue
		}
		if delta == nil {
			delta = make(map[edgeKey]int)
			for _, p := range batch[:i] {
				delta[edgeKey{p.Edge.Src, p.Edge.Dst}]++
			}
		}
		if need := 1 - delta[k]; need > 0 && d.count(k.src, k.dst, need) < need {
			return 0, fmt.Errorf("dynamic: removing absent edge %d->%d", u.Edge.Src, u.Edge.Dst)
		}
		delta[k]--
	}
	// Mutation pass: cannot fail.
	first := graph.VertexID(d.n)
	d.grow(addVertices)
	for _, u := range batch {
		if u.Remove {
			d.remove(u.Edge.Src, u.Edge.Dst)
		} else {
			d.insert(u.Edge)
		}
	}
	d.batches++
	d.touch()
	d.trimLog()
	return first, nil
}

func (d *Graph) insert(e graph.Edge) {
	if 2*(d.keys+1) > len(d.table) {
		d.rehash(2 * len(d.table))
	}
	d.edges = append(d.edges, e)
	d.next = append(d.next, 0)
	d.link(len(d.edges) - 1)
	d.outDeg[e.Src]++
	d.inDeg[e.Dst]++
	d.log = append(d.log, graph.EdgeEdit{Src: e.Src, Dst: e.Dst, Weight: e.Weight})
}

// remove deletes the most recently inserted (src, dst) instance, which
// validation has proven present: unlink it from the head of its chain,
// swap the last edge into the hole, and repoint the one link that
// addressed the moved edge.
func (d *Graph) remove(src, dst graph.VertexID) {
	i := d.slot(src, dst)
	pos := int(d.table[i]) - 1
	d.log = append(d.log, graph.EdgeEdit{Src: src, Dst: dst, Weight: d.edges[pos].Weight, Remove: true})
	if older := d.next[pos]; older != 0 {
		d.table[i] = older
	} else {
		d.vacate(i)
	}
	last := len(d.edges) - 1
	if pos != last {
		moved := d.edges[last]
		link := &d.table[d.slot(moved.Src, moved.Dst)]
		for *link != uint32(last+1) {
			link = &d.next[*link-1]
		}
		*link = uint32(pos + 1)
		d.edges[pos], d.next[pos] = moved, d.next[last]
	}
	d.edges, d.next = d.edges[:last], d.next[:last]
	d.outDeg[src]--
	d.inDeg[dst]--
}

// home returns the table slot (src, dst) hashes to.
func (d *Graph) home(src, dst graph.VertexID) int {
	h := (uint64(src)<<32 | uint64(dst)) * 0x9E3779B97F4A7C15
	h = (h ^ h>>32) * 0xD6E8FEB86659FD93
	return int(h >> d.shift)
}

// slot returns the table slot holding (src, dst), or the empty slot that
// would take it. The load bound guarantees an empty slot exists.
func (d *Graph) slot(src, dst graph.VertexID) int {
	mask := len(d.table) - 1
	for i := d.home(src, dst); ; i = (i + 1) & mask {
		if l := d.table[i]; l == 0 || d.edges[l-1].Src == src && d.edges[l-1].Dst == dst {
			return i
		}
	}
}

// count walks the (src, dst) chain and returns its length, or limit if
// the chain is at least that long.
func (d *Graph) count(src, dst graph.VertexID, limit int) int {
	n := 0
	for l := d.table[d.slot(src, dst)]; l != 0 && n < limit; l = d.next[l-1] {
		n++
	}
	return n
}

// link makes edges[pos] the newest instance of its key.
func (d *Graph) link(pos int) {
	i := d.slot(d.edges[pos].Src, d.edges[pos].Dst)
	if d.table[i] == 0 {
		d.keys++
	}
	d.next[pos] = d.table[i]
	d.table[i] = uint32(pos + 1)
}

// vacate empties slot i by backward-shift deletion: each later entry of
// the probe run moves into the hole when the hole lies on its own probe
// path, so lookups never need tombstones.
func (d *Graph) vacate(i int) {
	mask := len(d.table) - 1
	for j := (i + 1) & mask; d.table[j] != 0; j = (j + 1) & mask {
		e := &d.edges[d.table[j]-1]
		if (j-d.home(e.Src, e.Dst))&mask >= (j-i)&mask {
			d.table[i] = d.table[j]
			i = j
		}
	}
	d.table[i] = 0
	d.keys--
}

// rehash rebuilds the table at the given power-of-two size.
func (d *Graph) rehash(size int) {
	old := d.table
	d.table = make([]uint32, size)
	d.shift = uint(64 - bits.TrailingZeros(uint(size)))
	for _, l := range old {
		if l != 0 {
			e := &d.edges[l-1]
			d.table[d.slot(e.Src, e.Dst)] = l
		}
	}
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
	return max(minLogRetain, len(d.edges)/8)
}

// editsSince returns the edits that take a reader from log position seq
// to the current one. It reports false when the reader must rebuild
// instead: its position has been trimmed, or the delta is past the
// retention bound (a pinned log can be longer), where a rebuild is the
// cheaper way forward. The slice aliases the log; it is valid until the
// next mutation.
func (d *Graph) editsSince(seq uint64) ([]graph.EdgeEdit, bool) {
	if seq < d.logBase || d.seq()-seq > uint64(d.retain()) {
		return nil, false
	}
	return d.log[seq-d.logBase:], true
}

// trimLog drops the oldest edits once the log outgrows its retention,
// down to half of it so the copy is amortized — but never an edit a
// Mark still needs.
func (d *Graph) trimLog() {
	retain := d.retain()
	if len(d.log) <= retain {
		return
	}
	drop := uint64(len(d.log) - retain/2)
	if d.pin != noPin {
		drop = min(drop, d.pin-d.logBase)
	}
	if drop == 0 {
		return
	}
	d.log = append(d.log[:0], d.log[drop:]...)
	d.logBase += drop
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
// applied since are undone in reverse order (so every (src, dst) bucket
// gets back the instances, and the removal order, it had), vertex growth
// since is taken back, and the batch counter is restored. The undo is
// itself logged — readers of the log patch across a rollback like across
// any other edit — and the edge list may come back in a different order,
// which no snapshot depends on. It fails, changing nothing, for a mark of
// another graph or one whose edits have been trimmed (only the latest
// Mark is pinned).
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
		if e := d.log[s-1-d.logBase]; e.Remove {
			d.insert(graph.Edge{Src: e.Src, Dst: e.Dst, Weight: e.Weight})
		} else {
			d.remove(e.Src, e.Dst)
		}
	}
	d.n, d.outDeg, d.inDeg = m.n, d.outDeg[:m.n], d.inDeg[:m.n]
	d.batches = m.batches
	d.touch()
	return nil
}

// Snapshot materializes the current graph as static CSR in canonical
// order — every adjacency list sorted by (neighbor, weight) — so the
// result depends on the edge multiset only. The result is cached; when
// the graph has changed since, the cached CSR is patched from the edit
// log (a copy plus work proportional to the edits), and rebuilt from the
// edge list only when it cannot be: no cached CSR, a foreign one
// (FromGraph's argument, which is returned as it is until the first
// mutation), a delta the log no longer covers, or a vertex space that
// shrank. Either way the result is a fresh graph equal, array for
// array, to the rebuild; graphs returned earlier are never modified.
func (d *Graph) Snapshot() (*graph.Graph, error) {
	if s := d.snapshot; s != nil {
		if d.snapSeq == d.seq() && s.NumVertices() == d.n {
			return s, nil
		}
		// A stale snapshot is a canonical one: touch dropped any other.
		if edits, ok := d.editsSince(d.snapSeq); ok && s.NumVertices() <= d.n {
			// An error means log and CSR disagree (or the log crosses a
			// rolled-back growth); the rebuild below is always right.
			if g, err := s.Patch(edits, d.n, nil); err == nil {
				d.snapshot, d.snapSeq = g, d.seq()
				return g, nil
			}
		}
	}
	g, err := graph.BuildWith(d.edges, graph.BuildOptions{
		NumVertices:   d.n,
		Weighted:      d.weighted,
		SortNeighbors: true,
	})
	if err != nil {
		return nil, err
	}
	d.snapshot, d.snapSeq, d.canonical = g, d.seq(), true
	d.builds++
	return g, nil
}

// Policy configures when a Reorderer refreshes its ordering.
type Policy struct {
	// Every reorders after this many update batches; 0 disables periodic
	// reordering (the ordering from the last explicit Refresh persists).
	Every int
}

// Reorderer maintains a reordered view of a dynamic graph under a
// periodic-refresh policy. Queries run against the reordered snapshot;
// between refreshes the stale permutation is reused, per §VIII-B.
type Reorderer struct {
	tech   reorder.Technique
	kind   graph.DegreeKind
	policy Policy

	// Workers is the worker count for the CSR rebuilds a View performs
	// (refresh relabel and stale-permutation relabel alike); 0 or 1 pins
	// the sequential rebuild. Patching a view is sequential.
	Workers int

	perm reorder.Permutation
	inv  reorder.Permutation // perm's inverse, computed when the first patch needs it

	// view is the reordered CSR of viewOf as of its log position viewSeq;
	// viewCanonical reports that its lists are in canonical order (those
	// of a canonical snapshot, relabeled), so it can be patched.
	view          *graph.Graph
	viewOf        *Graph
	viewSeq       uint64
	viewCanonical bool

	batchesAtPerm int
	// Refreshes counts how many times the ordering was recomputed.
	Refreshes int
	// Relabels counts cheap stale-permutation views between refreshes;
	// Patches of them patched the previous view from the edit log instead
	// of relabeling a rebuilt snapshot.
	Relabels int
	Patches  int
	// LastQuality is the ordering-quality report of the view produced by
	// the most recent refresh (zero until the first refresh). Relabel
	// reuses do not update it — consumers wanting the current layout's
	// quality after a relabel evaluate the view themselves.
	LastQuality reorder.QualityReport
}

// NewReorderer builds a Reorderer; the first View call performs the
// initial reordering.
func NewReorderer(tech reorder.Technique, kind graph.DegreeKind, policy Policy) *Reorderer {
	return &Reorderer{tech: tech, kind: kind, policy: policy, batchesAtPerm: -1}
}

// Seed installs an externally computed ordering of d as the Reorderer's
// current state, so the first View does not redo work the caller already
// performed (e.g. a snapshot-build pipeline that reordered the graph
// itself). view must be d's current snapshot relabeled by perm — the
// graph d.Snapshot() returns, not merely an equal edge set: while that
// is still the foreign graph d was created from, the seeded view's lists
// are in that graph's order and the first View after a mutation relabels
// a rebuilt snapshot instead of patching it.
func (r *Reorderer) Seed(d *Graph, view *graph.Graph, perm reorder.Permutation) {
	r.setPerm(d, perm)
	r.setView(d, view, d.snapshot == nil || d.canonical)
	r.Refreshes++
}

func (r *Reorderer) setPerm(d *Graph, perm reorder.Permutation) {
	r.perm, r.inv = perm, nil
	r.batchesAtPerm = d.Batches()
}

func (r *Reorderer) setView(d *Graph, view *graph.Graph, canonical bool) {
	r.view, r.viewOf, r.viewSeq, r.viewCanonical = view, d, d.seq(), canonical
}

// patchView brings the view up to date from d's edit log, translating
// the edits into view IDs; under perm the view's lists are ordered by
// original ID, which is what the inverse permutation as rank says. It
// returns nil when the view has to be relabeled from a snapshot instead.
func (r *Reorderer) patchView(d *Graph) *graph.Graph {
	if r.view == nil || r.viewOf != d || !r.viewCanonical {
		return nil
	}
	edits, ok := d.editsSince(r.viewSeq)
	if !ok {
		return nil
	}
	moved := make([]graph.EdgeEdit, len(edits))
	for i, e := range edits {
		if int(e.Src) >= len(r.perm) || int(e.Dst) >= len(r.perm) {
			return nil // the log crosses a vertex growth that was rolled back
		}
		moved[i] = graph.EdgeEdit{Src: r.perm[e.Src], Dst: r.perm[e.Dst], Weight: e.Weight, Remove: e.Remove}
	}
	if r.inv == nil {
		r.inv = r.perm.Inverse()
	}
	view, err := r.view.Patch(moved, len(r.perm), r.inv)
	if err != nil {
		return nil // log and view disagree; the relabel is always right
	}
	return view
}

// View returns the reordered snapshot of d — d.Snapshot() relabeled by
// the returned permutation, array for array — refreshing the ordering if
// the policy says it is due. The permutation maps d's vertex IDs to the
// view's IDs (needed to translate query roots).
//
// Only a refresh materializes the original-order snapshot. Between
// refreshes the previous view is patched from d's edit log through the
// stale permutation, at a cost of one copy of the CSR plus work
// proportional to the edits; the stale-permutation relabel of a rebuilt
// or patched snapshot is the fallback when the log does not cover the
// delta or the previous view is not in canonical order (see Seed). Views
// returned earlier are never modified.
func (r *Reorderer) View(d *Graph) (*graph.Graph, reorder.Permutation, error) {
	// A missing ordering or a changed vertex space forces a refresh.
	due := r.batchesAtPerm < 0 || len(r.perm) != d.NumVertices() ||
		(r.policy.Every > 0 && d.Batches()-r.batchesAtPerm >= r.policy.Every)
	if due {
		g, err := d.Snapshot()
		if err != nil {
			return nil, nil, err
		}
		res, err := reorder.PlanOf(r.tech).ApplyWorkers(g, r.kind, r.Workers)
		if err != nil {
			return nil, nil, err
		}
		r.setPerm(d, res.Perm)
		r.setView(d, res.Graph, d.canonical)
		r.LastQuality = res.Quality
		r.Refreshes++
		return r.view, r.perm, nil
	}
	if r.view != nil && r.viewOf == d && r.viewSeq == d.seq() {
		return r.view, r.perm, nil
	}
	// Stale permutation, fresh edges — exactly the reuse §VIII-B argues
	// for.
	if view := r.patchView(d); view != nil {
		r.setView(d, view, true)
		r.Patches++
	} else {
		g, err := d.Snapshot()
		if err != nil {
			return nil, nil, err
		}
		view, err := g.RelabelWorkers(r.perm, r.Workers)
		if err != nil {
			return nil, nil, err
		}
		r.setView(d, view, d.canonical)
	}
	r.Relabels++
	return r.view, r.perm, nil
}
