package graph

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync/atomic"
)

// EdgeEdit is one entry of a Patch edit list: one edge instance inserted
// or, with Remove set, taken away.
type EdgeEdit struct {
	Src, Dst VertexID
	Weight   uint32
	Remove   bool
}

// Patch returns the graph that results from applying edits to g over n
// vertices (n >= g's count; the added vertices start isolated). It is
// defined to equal, list for list — neighbors, their order and their
// weights — the full rebuild of the edited edge multiset: BuildWith with
// SortNeighbors for a nil rank, that rebuild relabeled by a permutation p
// for rank = p's inverse. Its Compact equals that rebuild array for
// array, at the rebuild's weight width.
//
// rank gives the position of every vertex in adjacency-list order: lists
// are ordered by (rank[neighbor], weight), nil meaning the identity. g's
// own lists must already be in that order, which holds for a graph built
// with SortNeighbors (nil rank), for such a graph relabeled (the inverse
// permutation as rank) and for every graph Patch returns. On an
// unweighted g the edits' weights are ignored.
//
// The edits are multiset arithmetic: inserts add instances of (src, dst,
// weight), removals take instances away, and the order of the list does
// not matter. Removing more instances than g plus the inserts hold is an
// error, as is an endpoint outside [0, n).
//
// The result shares g's edge and weight arrays where it can. Each list
// the edits touch is written whole, in list order, into capacity past
// the end of every list any graph of the chain reads, claimed atomically
// (so patches of one graph, concurrent or not, claim disjoint room); the
// result gets its own index and list starts (O(n)), and reads g's
// untouched lists where they are. No byte a graph already handed out can
// read is ever written again, so every earlier graph stays valid and
// immutable however many patches follow. Patch copies every list, into
// fresh arrays with room for later patches, only when g has no such room
// (a build, a load, a relabel, PatchRelabel's result, or room spent),
// when an insert needs a wider weight width, or when the dead entries
// would pass deadAllowance. A shared result keeps g's weight width even
// after a removal took the last weight that needed it.
func (g *Graph) Patch(edits []EdgeEdit, n int, rank []VertexID) (*Graph, error) {
	return g.PatchRelabel(edits, n, rank, nil)
}

// PatchRelabel is Patch followed by RelabelWorkers(newID), array for
// array, in one pass and one CSR: the patched list of vertex v is stored
// as the list of newID[v], its neighbors renamed and in the order Patch
// leaves them. A nil newID is Patch. Edits and rank are in g's IDs. The
// result of a non-nil newID is compact (IsCompact) and shares nothing.
func (g *Graph) PatchRelabel(edits []EdgeEdit, n int, rank, newID []VertexID) (*Graph, error) {
	if n < g.n {
		return nil, fmt.Errorf("graph: patch shrinks the vertex space from %d to %d", g.n, n)
	}
	if rank != nil && len(rank) != n {
		return nil, fmt.Errorf("graph: rank has length %d, want %d", len(rank), n)
	}
	if newID != nil {
		if err := checkPermutation(newID, n); err != nil {
			return nil, err
		}
	}
	for _, e := range edits {
		if int(e.Src) >= n || int(e.Dst) >= n {
			return nil, fmt.Errorf("graph: edit %d->%d outside vertex space [0,%d)", e.Src, e.Dst, n)
		}
	}
	out, err := patchCSR(g.direction(false), edits, n, rank, newID, false)
	if err != nil {
		return nil, err
	}
	// The in-CSR carries no weights, so its edits fold on (key, neighbor):
	// an absent weighted instance was already refused by the out-CSR.
	in, err := patchCSR(g.direction(true), edits, n, rank, newID, true)
	if err != nil {
		return nil, err
	}
	return &Graph{n: n, m: int(out.index[n]),
		outIndex: out.index, outStart: out.start, outEdges: out.adj, outWeights: out.ws, wb: out.wb, outTail: out.tail,
		inIndex: in.index, inStart: in.start, inEdges: in.adj, inTail: in.tail}, nil
}

// Canonical reports whether g's lists are in the order Patch needs for a
// nil rank, the order BuildWith with SortNeighbors lays them out in:
// out-lists by (neighbor, weight), in-lists by neighbor.
func (g *Graph) Canonical() bool {
	var ws []uint32
	for v := range VertexID(g.n) {
		ws = g.OutWeightList(v).Append(ws[:0])
		if !inOrder(g.OutNeighbors(v), ws) || !inOrder(g.InNeighbors(v), nil) {
			return false
		}
	}
	return true
}

// Compact returns g laid out as a build lays it out (IsCompact): the
// lists of each direction that a patch laid out apart copied back to
// back in vertex order into arrays of their own, the weights at the
// width the largest of them needs. It returns g itself when g already is
// compact, and shares g's index arrays, which both layouts read alike,
// and the arrays of a direction already back to back. The Compact of a
// patch equals the rebuild its definition names, array for array.
func (g *Graph) Compact() *Graph {
	if g.IsCompact() {
		return g
	}
	out, in := g.direction(false).compact(g.n), g.direction(true).compact(g.n)
	return &Graph{n: g.n, m: g.m,
		outIndex: out.index, outEdges: out.adj, outWeights: out.ws, wb: out.wb,
		inIndex: in.index, inEdges: in.adj}
}

// csrDir is one direction of a Graph's CSR as a patch reads and writes
// it: the prefix-summed index, the list starts (nil when the lists lie
// back to back at the index's offsets), the edge array, the weights
// aligned with it (the out-direction's; nil and 0 on the in-direction and
// an unweighted graph) and the count of claimed entries of the arrays'
// shared capacity (nil when no patch may write past them).
type csrDir struct {
	index, start []uint64
	adj          []VertexID
	ws           []byte
	wb           int
	tail         *atomic.Uint64
}

func (g *Graph) direction(reverse bool) csrDir {
	if reverse {
		return csrDir{index: g.inIndex, start: g.inStart, adj: g.inEdges, tail: g.inTail}
	}
	return csrDir{index: g.outIndex, start: g.outStart, adj: g.outEdges, ws: g.outWeights, wb: g.wb, tail: g.outTail}
}

// compact returns the direction with its lists copied back to back and
// its weights at the width the largest needs; the direction itself,
// capacity and all, when that is how it lies.
func (c csrDir) compact(n int) csrDir {
	if c.start == nil {
		return csrDir{index: c.index, adj: c.adj, ws: c.ws, wb: c.wb}
	}
	m := c.index[n]
	out := csrDir{index: c.index, adj: make([]VertexID, m), wb: c.wb}
	if c.wb != 0 {
		out.ws = make([]byte, m*uint64(c.wb))
	}
	forRuns(c.index, c.start, 0, n, func(v int, lo, hi uint64) error {
		at := c.index[v]
		copy(out.adj[at:], c.adj[lo:hi])
		if c.wb != 0 {
			wb := uint64(c.wb)
			copy(out.ws[at*wb:], c.ws[lo*wb:hi*wb])
		}
		return nil
	})
	if c.wb > 1 {
		out.ws, out.wb = narrowWeights(out.ws, c.wb, int(m))
	}
	return out
}

// forRuns calls f for the lists of vertices [from, to) of one direction,
// in vertex order, a run at a time: v is the run's first vertex and
// [lo, hi) the span of the edge array that holds its lists, back to back.
// A compact direction is one run; a patched one breaks where a patch
// moved a list. It stops at, and returns, the first error f returns.
func forRuns(index, start []uint64, from, to int, f func(v int, lo, hi uint64) error) error {
	if start == nil {
		if from >= to {
			return nil
		}
		return f(from, index[from], index[to])
	}
	for v := from; v < to; {
		first := v
		lo, hi := listSpan(index, start, VertexID(v))
	run:
		for v++; v < to; v++ {
			next, end := listSpan(index, start, VertexID(v))
			switch {
			case next == end: // an empty list lies anywhere
			case lo == hi:
				lo, hi = next, end
			case next == hi:
				hi = end
			default:
				break run
			}
		}
		if err := f(first, lo, hi); err != nil {
			return err
		}
	}
	return nil
}

// deadShare bounds the dead entries of a shared array — the old copies
// of the lists patches rewrote, and the lists of sibling patches of one
// graph — to one per deadShare live entries, plus one per vertex
// (deadAllowance); the patch that would pass that bound copies every list
// into fresh arrays instead, with that much room again.
//
// The bound trades memory for copies. Between two full copies patches
// write m/deadShare + n entries into the room, so the O(m) copy
// amortizes to deadShare entries copied per entry a patch writes (plus
// the n, which cost no more than the O(n) index every patch allocates
// anyway). What it costs is memory: every generation still served holds
// the one array, room included, and a heap goal twice the live heap
// counts every byte of it twice at the peak. At 1/8 the room is m/8 + n
// entries, 17.5 % of the edge arrays on sd/small (m ≈ 0.98 M, n ≈ 49 k,
// 9 bytes an edge: about 1.5 MB), whose 4-insert write batches rewrite
// about 150 entries each, so a full copy comes every thousand publishes
// or so; 1/2 would hold 3.3 MB more in every served generation for
// copies that are already rare.
const deadShare = 8

// deadAllowance is how many dead entries an array shared by graphs of m
// live entries over n vertices may hold (deadShare).
func deadAllowance(m uint64, n int) uint64 { return m/deadShare + uint64(n) }

// claim reserves need entries of the direction's shared capacity for a
// patch whose result holds m live entries over n vertices, and returns
// where they start. It fails when the room is spent or the result would
// hold more dead entries than deadAllowance: every list any graph of the
// array reads lies below the claimed count, so the result's dead entries
// are its end less m.
func (c csrDir) claim(need, m uint64, n int) (uint64, bool) {
	for {
		at := c.tail.Load()
		end := at + need
		if end > uint64(cap(c.adj)) || end-m > deadAllowance(m, n) {
			return 0, false
		}
		if c.tail.CompareAndSwap(at, end) {
			return at, true
		}
	}
}

// patchItem is the net change to one (key, neighbor, weight) instance
// group of one CSR direction.
type patchItem struct {
	key, nbr VertexID
	ord      VertexID // rank[nbr]: the neighbor's place in list order
	w        uint32
	delta    int // instances added (negative: removed)
}

var errPatchAbsent = errors.New("graph: patch removes an edge instance the graph does not hold")

// patchCSR patches one direction (reverse: the in-CSR, keyed by Dst) and
// stores the list of vertex v as the list of newID[v] with its neighbors
// renamed (v and as they are for a nil newID). Without newID it writes
// the edited lists into c's shared capacity when c has room for them at
// its weight width (see Patch), and otherwise, like every relabel, copies
// every list: untouched ones as stored (re-stored, when the width moves),
// only the edited lists' weights decoded. A copy stores the weights at
// the rebuild's width, the one its largest weight needs: wider when an
// insert needs it, narrower when a removal took the last weight that did.
func patchCSR(c csrDir, edits []EdgeEdit, n int, rank, newID []VertexID, reverse bool) (csrDir, error) {
	items := make([]patchItem, len(edits))
	m := int(c.index[len(c.index)-1])
	for i, e := range edits {
		it := patchItem{key: e.Src, nbr: e.Dst, w: e.Weight, delta: 1}
		if reverse {
			it.key, it.nbr = e.Dst, e.Src
		}
		if c.wb == 0 {
			it.w = 0
		}
		it.ord = it.nbr
		if rank != nil {
			it.ord = rank[it.nbr]
		}
		if e.Remove {
			it.delta = -1
		}
		m += it.delta
		items[i] = it
	}
	if m < 0 {
		return csrDir{}, errPatchAbsent
	}
	slices.SortFunc(items, func(a, b patchItem) int {
		return cmp.Or(cmp.Compare(a.key, b.key), cmp.Compare(a.ord, b.ord), cmp.Compare(a.w, b.w))
	})
	// Fold the edits of one instance group into its net multiplicity.
	groups := items[:0]
	for _, it := range items {
		if k := len(groups) - 1; k >= 0 && groups[k].key == it.key && groups[k].nbr == it.nbr && groups[k].w == it.w {
			groups[k].delta += it.delta
		} else {
			groups = append(groups, it)
		}
	}
	// The output width: an insert may widen it, and a removal may narrow
	// it, which only a scan of the result can tell (at one byte there is
	// nothing to scan for).
	nb := c.wb
	if c.wb != 0 {
		for _, it := range groups {
			if it.delta > 0 {
				nb = max(nb, widthFor(it.w))
			}
		}
	}

	index, start := c.index, c.start
	if oldN := len(index) - 1; n > oldN {
		grown := make([]uint64, n+1)
		copy(grown, index)
		for v := oldN + 1; v <= n; v++ {
			grown[v] = index[oldN]
		}
		index = grown
		if start != nil {
			start = append(start[:oldN:oldN], make([]uint64, n-oldN)...)
		}
	}
	// name is a vertex's ID in the output.
	name := func(v VertexID) VertexID {
		if newID != nil {
			return newID[v]
		}
		return v
	}
	// keyRuns calls f for each edited key with its groups.
	keyRuns := func(f func(key VertexID, gs []patchItem) error) error {
		for k := 0; k < len(groups); {
			j := k + 1
			for j < len(groups) && groups[j].key == groups[k].key {
				j++
			}
			if err := f(groups[k].key, groups[k:j]); err != nil {
				return err
			}
			k = j
		}
		return nil
	}
	// The output index: every list's new length, its old one plus its
	// groups' net change, stored under the list's new name and
	// prefix-summed.
	newIndex := make([]uint64, n+1)
	for v := range VertexID(n) {
		newIndex[name(v)+1] = index[v+1] - index[v]
	}
	err := keyRuns(func(key VertexID, gs []patchItem) error {
		deg := int64(newIndex[name(key)+1])
		for _, it := range gs {
			deg += int64(it.delta)
		}
		if deg < 0 {
			return errPatchAbsent
		}
		newIndex[name(key)+1] = uint64(deg)
		return nil
	})
	if err != nil {
		return csrDir{}, err
	}
	var sum uint64
	for v := range newIndex {
		sum += newIndex[v]
		newIndex[v] = sum
	}
	ordOf := func(v VertexID) VertexID {
		if rank != nil {
			return rank[v]
		}
		return v
	}
	// merge writes the edited list of key — its old list merged with gs,
	// key's groups — into out, as long as the new list, its neighbors
	// renamed, and the list's weights into outW at nb bytes each. lw holds
	// the old list's weights, ow the new list's.
	var lw, ow []uint32
	merge := func(key VertexID, gs []patchItem, out []VertexID, outW []byte) error {
		i, hi := listSpan(index, start, key)
		base, pos := i, 0
		lw, ow = appendWeights(lw[:0], c.ws, c.wb, i, hi), ow[:0]
		keep := func(lo, hi uint64) bool {
			if pos+int(hi-lo) > len(out) {
				return false
			}
			for k, nbr := range c.adj[lo:hi] {
				out[pos+k] = name(nbr)
			}
			pos += int(hi - lo)
			if c.wb != 0 {
				ow = append(ow, lw[lo-base:hi-base]...)
			}
			return true
		}
		for _, it := range gs {
			// The first old entry not ordered before the group's instance.
			j := i + uint64(sort.Search(int(hi-i), func(k int) bool {
				o := ordOf(c.adj[i+uint64(k)])
				return o > it.ord || o == it.ord && (c.wb == 0 || lw[i-base+uint64(k)] >= it.w)
			}))
			if !keep(i, j) {
				return errPatchAbsent
			}
			i = j
			for k := it.delta; k > 0; k-- {
				if pos >= len(out) {
					return errPatchAbsent
				}
				out[pos] = name(it.nbr)
				if c.wb != 0 {
					ow = append(ow, it.w)
				}
				pos++
			}
			for k := it.delta; k < 0; k++ {
				if i >= hi || c.adj[i] != it.nbr || c.wb != 0 && lw[i-base] != it.w {
					return errPatchAbsent
				}
				i++
			}
		}
		if !keep(i, hi) || pos != len(out) {
			return errPatchAbsent
		}
		if c.wb != 0 {
			putWeights(outW, ow, nb)
		}
		return nil
	}
	// Share c's arrays: write the edited lists, one after another, into
	// the room claimed for them, and read every other list where c does.
	if newID == nil && c.tail != nil && nb == c.wb {
		var need uint64
		keyRuns(func(key VertexID, _ []patchItem) error {
			need += newIndex[key+1] - newIndex[key]
			return nil
		})
		if pos, ok := c.claim(need, uint64(m), n); ok {
			out := csrDir{index: newIndex, adj: c.adj[:pos+need], wb: nb, tail: c.tail}
			if c.wb != 0 {
				out.ws = c.ws[:(pos+need)*uint64(nb)]
			}
			if start != nil {
				out.start = slices.Clone(start)
			} else {
				out.start = slices.Clone(index[:n])
			}
			err := keyRuns(func(key VertexID, gs []patchItem) error {
				l := newIndex[key+1] - newIndex[key]
				out.start[key] = pos
				pos += l
				return merge(key, gs, out.adj[pos-l:pos], out.ws[(pos-l)*uint64(nb):pos*uint64(nb)])
			})
			if err != nil {
				return csrDir{}, err
			}
			return out, nil
		}
	}

	// Copy every list. A Patch leaves room for the patches of its result.
	capacity := uint64(m)
	if newID == nil {
		capacity += deadAllowance(uint64(m), n)
	}
	newAdj := make([]VertexID, m, capacity)
	var newWs []byte
	if c.wb != 0 {
		newWs = make([]byte, uint64(m*nb), capacity*uint64(nb))
	}
	// untouched copies the lists of vertices [from, to) as they are, with
	// their weights as stored: a run at a time without newID, list by list
	// under their new names, renamed, with it.
	untouched := func(from, to int) {
		if newID == nil {
			forRuns(index, start, from, to, func(v int, lo, hi uint64) error {
				at := newIndex[v]
				copy(newAdj[at:], c.adj[lo:hi])
				if c.wb != 0 {
					copyWeights(newWs[at*uint64(nb):], nb, c.ws[lo*uint64(c.wb):hi*uint64(c.wb)], c.wb)
				}
				return nil
			})
			return
		}
		for v := from; v < to; v++ {
			lo, hi := listSpan(index, start, VertexID(v))
			at := newIndex[newID[v]]
			out := newAdj[at : at+hi-lo]
			for i, nbr := range c.adj[lo:hi] {
				out[i] = newID[nbr]
			}
			if c.wb != 0 {
				copyWeights(newWs[at*uint64(nb):], nb, c.ws[lo*uint64(c.wb):hi*uint64(c.wb)], c.wb)
			}
		}
	}
	next := 0 // first vertex not emitted yet
	err = keyRuns(func(key VertexID, gs []patchItem) error {
		untouched(next, int(key))
		lo, hi := newIndex[name(key)], newIndex[name(key)+1]
		next = int(key) + 1
		return merge(key, gs, newAdj[lo:hi], newWs[lo*uint64(nb):hi*uint64(nb)])
	})
	if err != nil {
		return csrDir{}, err
	}
	untouched(next, n)
	if nb > 1 {
		newWs, nb = narrowWeights(newWs, nb, int(capacity))
	}
	out := csrDir{index: newIndex, adj: newAdj, ws: newWs, wb: nb}
	if newID == nil {
		out.tail = new(atomic.Uint64)
		out.tail.Store(uint64(m))
	}
	return out, nil
}
