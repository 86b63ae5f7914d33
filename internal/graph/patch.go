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
// defined to equal, array for array, the full rebuild of the edited edge
// multiset — BuildWith with SortNeighbors for a nil rank, that rebuild
// relabeled by a permutation p for rank = p's inverse — at the cost of
// one sequential copy of the untouched lists plus a merge of the edited
// vertices' lists, instead of the rebuild's scatter and sorts.
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
	if n < g.n {
		return nil, fmt.Errorf("graph: patch shrinks the vertex space from %d to %d", g.n, n)
	}
	if rank != nil && len(rank) != n {
		return nil, fmt.Errorf("graph: rank has length %d, want %d", len(rank), n)
	}
	for _, e := range edits {
		if int(e.Src) >= n || int(e.Dst) >= n {
			return nil, fmt.Errorf("graph: edit %d->%d outside vertex space [0,%d)", e.Src, e.Dst, n)
		}
	}
	ng := &Graph{n: n}
	var err error
	ng.outIndex, ng.outEdges, ng.outWeights, err = patchCSR(g.outIndex, g.outEdges, g.outWeights, edits, n, rank, false)
	if err != nil {
		return nil, err
	}
	// The in-CSR carries no weights, so its edits fold on (key, neighbor):
	// an absent weighted instance was already refused by the out-CSR.
	ng.inIndex, ng.inEdges, _, err = patchCSR(g.inIndex, g.inEdges, nil, edits, n, rank, true)
	if err != nil {
		return nil, err
	}
	ng.m = len(ng.outEdges)
	return ng, nil
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

// patchCSR patches one direction (reverse: the in-CSR, keyed by Dst).
func patchCSR(index []uint64, adj []VertexID, ws []uint32, edits []EdgeEdit, n int, rank []VertexID, reverse bool) ([]uint64, []VertexID, []uint32, error) {
	items := make([]patchItem, len(edits))
	m := len(adj)
	for i, e := range edits {
		it := patchItem{key: e.Src, nbr: e.Dst, w: e.Weight, delta: 1}
		if reverse {
			it.key, it.nbr = e.Dst, e.Src
		}
		if ws == nil {
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
		return nil, nil, nil, errPatchAbsent
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

	if oldN := len(index) - 1; n > oldN {
		grown := make([]uint64, n+1)
		copy(grown, index)
		for v := oldN + 1; v <= n; v++ {
			grown[v] = index[oldN]
		}
		index = grown
	}
	newIndex := make([]uint64, n+1)
	newAdj := make([]VertexID, m)
	var newWs []uint32
	if ws != nil {
		newWs = make([]uint32, m)
	}
	ordOf := func(v VertexID) VertexID {
		if rank != nil {
			return rank[v]
		}
		return v
	}
	pos := 0 // output cursor into newAdj
	// run appends the old entries [lo, hi) unchanged.
	run := func(lo, hi uint64) bool {
		if pos+int(hi-lo) > m {
			return false
		}
		copy(newAdj[pos:], adj[lo:hi])
		if ws != nil {
			copy(newWs[pos:], ws[lo:hi])
		}
		pos += int(hi - lo)
		return true
	}
	// untouched emits vertices [from, to): their lists are one contiguous
	// run, their offsets the old ones shifted by the edits before them.
	untouched := func(from, to int) bool {
		shift := uint64(pos) - index[from]
		for v := from; v < to; v++ {
			newIndex[v] = index[v] + shift
		}
		return run(index[from], index[to])
	}

	next := 0 // first vertex not emitted yet
	for len(groups) > 0 {
		key := int(groups[0].key)
		if !untouched(next, key) {
			return nil, nil, nil, errPatchAbsent
		}
		newIndex[key] = uint64(pos)
		i, hi := index[key], index[key+1]
		for ; len(groups) > 0 && int(groups[0].key) == key; groups = groups[1:] {
			it := groups[0]
			// The first old entry not ordered before the group's instance.
			j := i + uint64(sort.Search(int(hi-i), func(k int) bool {
				o := ordOf(adj[i+uint64(k)])
				return o > it.ord || o == it.ord && (ws == nil || ws[i+uint64(k)] >= it.w)
			}))
			if !run(i, j) {
				return nil, nil, nil, errPatchAbsent
			}
			i = j
			for c := it.delta; c > 0; c-- {
				if pos >= m {
					return nil, nil, nil, errPatchAbsent
				}
				newAdj[pos] = it.nbr
				if ws != nil {
					newWs[pos] = it.w
				}
				pos++
			}
			for c := it.delta; c < 0; c++ {
				if i >= hi || adj[i] != it.nbr || ws != nil && ws[i] != it.w {
					return nil, nil, nil, errPatchAbsent
				}
				i++
			}
		}
		if !run(i, hi) {
			return nil, nil, nil, errPatchAbsent
		}
		next = key + 1
	}
	if !untouched(next, n) || pos != m {
		return nil, nil, nil, errPatchAbsent
	}
	newIndex[n] = uint64(m)
	return newIndex, newAdj, newWs, nil
}
