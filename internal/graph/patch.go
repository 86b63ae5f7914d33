package graph

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"sort"
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
// defined to equal, array for array and at the same weight width, the
// full rebuild of the edited edge multiset — BuildWith with
// SortNeighbors for a nil rank, that rebuild relabeled by a permutation p
// for rank = p's inverse — at the cost of one sequential copy of the
// untouched lists plus a merge of the edited vertices' lists, instead of
// the rebuild's scatter and sorts.
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
// g is not modified and the result shares no array with it: every array
// of the returned graph is freshly allocated, so graphs already handed
// to readers stay valid and immutable however many patches follow.
func (g *Graph) Patch(edits []EdgeEdit, n int, rank []VertexID) (*Graph, error) {
	return g.PatchRelabel(edits, n, rank, nil)
}

// PatchRelabel is Patch followed by RelabelWorkers(newID), array for
// array, in one pass and one CSR: the patched list of vertex v is stored
// as the list of newID[v], its neighbors renamed and in the order Patch
// leaves them. A nil newID is Patch. Edits and rank are in g's IDs.
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
	ng := &Graph{n: n}
	var err error
	ng.outIndex, ng.outEdges, ng.outWeights, ng.wb, err = patchCSR(g.outIndex, g.outEdges, g.outWeights, g.wb, edits, n, rank, newID, false)
	if err != nil {
		return nil, err
	}
	// The in-CSR carries no weights, so its edits fold on (key, neighbor):
	// an absent weighted instance was already refused by the out-CSR.
	ng.inIndex, ng.inEdges, _, _, err = patchCSR(g.inIndex, g.inEdges, nil, 0, edits, n, rank, newID, true)
	if err != nil {
		return nil, err
	}
	ng.m = len(ng.outEdges)
	return ng, nil
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

// patchItem is the net change to one (key, neighbor, weight) instance
// group of one CSR direction.
type patchItem struct {
	key, nbr VertexID
	ord      VertexID // rank[nbr]: the neighbor's place in list order
	w        uint32
	delta    int // instances added (negative: removed)
}

var errPatchAbsent = errors.New("graph: patch removes an edge instance the graph does not hold")

// patchCSR patches one direction (reverse: the in-CSR, keyed by Dst),
// whose weights, if wb is not 0, are ws at wb bytes each, and stores the
// list of vertex v as the list of newID[v] with its neighbors renamed (v
// and as they are for a nil newID). The result stores the weights at the
// rebuild's width, the one its largest weight needs: wider when an insert
// needs it, narrower when a removal took the last weight that did.
// Untouched lists are copied as stored (re-stored, when the width moves);
// only the edited lists' weights are decoded.
func patchCSR(index []uint64, adj []VertexID, ws []byte, wb int, edits []EdgeEdit, n int, rank, newID []VertexID, reverse bool) ([]uint64, []VertexID, []byte, int, error) {
	items := make([]patchItem, len(edits))
	m := len(adj)
	for i, e := range edits {
		it := patchItem{key: e.Src, nbr: e.Dst, w: e.Weight, delta: 1}
		if reverse {
			it.key, it.nbr = e.Dst, e.Src
		}
		if wb == 0 {
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
		return nil, nil, nil, 0, errPatchAbsent
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
	nb := wb
	if wb != 0 {
		for _, it := range groups {
			if it.delta > 0 {
				nb = max(nb, widthFor(it.w))
			}
		}
	}

	if oldN := len(index) - 1; n > oldN {
		grown := make([]uint64, n+1)
		copy(grown, index)
		for v := oldN + 1; v <= n; v++ {
			grown[v] = index[oldN]
		}
		index = grown
	}
	// name is a vertex's ID in the output.
	name := func(v VertexID) VertexID {
		if newID != nil {
			return newID[v]
		}
		return v
	}
	// The output index: every list's new length, its old one plus its
	// groups' net change, stored under the list's new name and
	// prefix-summed.
	newIndex := make([]uint64, n+1)
	for v := range VertexID(n) {
		newIndex[name(v)+1] = index[v+1] - index[v]
	}
	for k := 0; k < len(groups); {
		key := groups[k].key
		deg := int64(newIndex[name(key)+1])
		for ; k < len(groups) && groups[k].key == key; k++ {
			deg += int64(groups[k].delta)
		}
		if deg < 0 {
			return nil, nil, nil, 0, errPatchAbsent
		}
		newIndex[name(key)+1] = uint64(deg)
	}
	for v := 1; v <= n; v++ {
		newIndex[v] += newIndex[v-1]
	}
	newAdj := make([]VertexID, m)
	var newWs []byte
	if wb != 0 {
		newWs = make([]byte, m*nb)
	}
	ordOf := func(v VertexID) VertexID {
		if rank != nil {
			return rank[v]
		}
		return v
	}
	// untouched copies the lists of vertices [from, to) as they are, with
	// their weights as stored: one run without newID, list by list under
	// their new names, renamed, with it.
	untouched := func(from, to int) {
		if from >= to {
			return
		}
		if newID == nil {
			lo, hi, at := index[from], index[to], newIndex[from]
			copy(newAdj[at:], adj[lo:hi])
			if wb != 0 {
				copyWeights(newWs[at*uint64(nb):], nb, ws[lo*uint64(wb):hi*uint64(wb)], wb)
			}
			return
		}
		for v := from; v < to; v++ {
			lo, hi, at := index[v], index[v+1], newIndex[newID[v]]
			out := newAdj[at : at+hi-lo]
			for i, nbr := range adj[lo:hi] {
				out[i] = newID[nbr]
			}
			if wb != 0 {
				copyWeights(newWs[at*uint64(nb):], nb, ws[lo*uint64(wb):hi*uint64(wb)], wb)
			}
		}
	}
	// An edited list is written from pos up to end, the bounds of its
	// new name's list. Its weights: lw holds the old list's from entry base on, ow the new
	// list's, stored at the list's end.
	var pos, end uint64
	var lw, ow []uint32
	var base uint64
	keep := func(lo, hi uint64) bool {
		if pos+(hi-lo) > end {
			return false
		}
		for i, nbr := range adj[lo:hi] {
			newAdj[pos+uint64(i)] = name(nbr)
		}
		pos += hi - lo
		if wb != 0 {
			ow = append(ow, lw[lo-base:hi-base]...)
		}
		return true
	}

	next := 0 // first vertex not emitted yet
	for len(groups) > 0 {
		key := int(groups[0].key)
		untouched(next, key)
		start := newIndex[name(VertexID(key))]
		pos, end = start, newIndex[name(VertexID(key))+1]
		i, hi := index[key], index[key+1]
		base, ow = i, ow[:0]
		lw = appendWeights(lw[:0], ws, wb, i, hi)
		for ; len(groups) > 0 && int(groups[0].key) == key; groups = groups[1:] {
			it := groups[0]
			// The first old entry not ordered before the group's instance.
			j := i + uint64(sort.Search(int(hi-i), func(k int) bool {
				o := ordOf(adj[i+uint64(k)])
				return o > it.ord || o == it.ord && (wb == 0 || lw[i-base+uint64(k)] >= it.w)
			}))
			if !keep(i, j) {
				return nil, nil, nil, 0, errPatchAbsent
			}
			i = j
			for c := it.delta; c > 0; c-- {
				if pos >= end {
					return nil, nil, nil, 0, errPatchAbsent
				}
				newAdj[pos] = name(it.nbr)
				if wb != 0 {
					ow = append(ow, it.w)
				}
				pos++
			}
			for c := it.delta; c < 0; c++ {
				if i >= hi || adj[i] != it.nbr || wb != 0 && lw[i-base] != it.w {
					return nil, nil, nil, 0, errPatchAbsent
				}
				i++
			}
		}
		if !keep(i, hi) || pos != end {
			return nil, nil, nil, 0, errPatchAbsent
		}
		if wb != 0 {
			putWeights(newWs[start*uint64(nb):], ow, nb)
		}
		next = key + 1
	}
	untouched(next, n)
	if nb > 1 {
		newWs, nb = narrowWeights(newWs, nb)
	}
	return newIndex, newAdj, newWs, nb, nil
}
