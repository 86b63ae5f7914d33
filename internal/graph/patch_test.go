package graph

import (
	"cmp"
	"fmt"
	"slices"
	"testing"

	"graphreorder/internal/rng"
)

// sameArrays compares two graphs array by array (nil and empty arrays are
// the same array).
func sameArrays(a, b *Graph) error {
	switch {
	case a.n != b.n || a.m != b.m:
		return fmt.Errorf("n/m = %d/%d, want %d/%d", a.n, a.m, b.n, b.m)
	case a.wb != b.wb:
		return fmt.Errorf("weight width = %d, want %d", a.wb, b.wb)
	case !slices.Equal(a.outIndex, b.outIndex):
		return fmt.Errorf("out-index differs")
	case !slices.Equal(a.outEdges, b.outEdges):
		return fmt.Errorf("out-edges differ: %v, want %v", a.outEdges, b.outEdges)
	case !slices.Equal(a.outWeights, b.outWeights):
		return fmt.Errorf("out-weights differ: %v, want %v", a.outWeights, b.outWeights)
	case !slices.Equal(a.inIndex, b.inIndex):
		return fmt.Errorf("in-index differs")
	case !slices.Equal(a.inEdges, b.inEdges):
		return fmt.Errorf("in-edges differ: %v, want %v", a.inEdges, b.inEdges)
	}
	return nil
}

// TestBuildIsFunctionOfEdgeMultiset: the same edges in a different order
// — parallel edges of different weight included, which the neighbor-only
// comparator left to the unstable sort — build the same arrays, on the
// sequential and the parallel path: shuffled, or sorted so that every list
// arrives in order; with few weights, or weights over the whole uint32
// range. WeightList.At reads every weight as Append decodes it, and
// Canonical holds for every sorted build, and for an unsorted one only
// of an edge list already in order.
func TestBuildIsFunctionOfEdgeMultiset(t *testing.T) {
	const n = 64
	for _, tc := range []struct {
		name   string
		weight func(r *rng.Rand) uint32
	}{
		{"few weights", func(r *rng.Rand) uint32 { return uint32(1 + r.Intn(5)) }},
		{"uint32 weights", func(r *rng.Rand) uint32 { return r.Uint32() }},
	} {
		r := rng.New(11)
		edges := make([]Edge, 0, 2*parallelBuildThreshold)
		endpoint := func(hub VertexID) VertexID {
			if r.Intn(4) > 0 {
				return hub
			}
			return VertexID(r.Intn(n))
		}
		for len(edges) < cap(edges) {
			// Few distinct endpoints: long runs of parallel edges, whose
			// weights repeat when they are few. Vertex 0's out-list and
			// vertex 1's in-list are past radixSortMin, most others below it.
			edges = append(edges, Edge{Src: endpoint(0), Dst: endpoint(1), Weight: tc.weight(r)})
		}
		shuffled := slices.Clone(edges)
		for i := len(shuffled) - 1; i > 0; i-- {
			j := r.Intn(i + 1)
			shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
		}
		sorted := slices.Clone(edges)
		slices.SortFunc(sorted, func(a, b Edge) int {
			return cmp.Or(cmp.Compare(a.Src, b.Src), cmp.Compare(a.Dst, b.Dst), cmp.Compare(a.Weight, b.Weight))
		})
		var first *Graph
		for _, list := range [][]Edge{edges, shuffled, sorted} {
			for _, workers := range []int{1, 4} {
				g, err := BuildWith(list, BuildOptions{NumVertices: n, Weighted: true, SortNeighbors: true, Workers: workers})
				if err != nil {
					t.Fatal(err)
				}
				if g.OutDegree(0) < radixSortMin || g.InDegree(1) < radixSortMin || len(list) < parallelBuildThreshold {
					t.Fatal("the graph does not reach the radix sort or the parallel build")
				}
				for v := VertexID(0); v < n; v++ {
					nbrs, wl := g.OutNeighbors(v), g.OutWeightList(v)
					ws := wl.Append(nil)
					for i, w := range ws {
						if wl.At(i) != w {
							t.Fatalf("%s: weight %d of %d's list reads %d one at a time, %d decoded", tc.name, i, v, wl.At(i), w)
						}
					}
					for i := 1; i < len(nbrs); i++ {
						if nbrs[i-1] > nbrs[i] || nbrs[i-1] == nbrs[i] && ws[i-1] > ws[i] {
							t.Fatalf("%s, workers=%d: out-list of %d is not in (neighbor, weight) order at %d", tc.name, workers, v, i)
						}
					}
				}
				if !g.Canonical() {
					t.Fatalf("%s, workers=%d: a sorted build is not canonical", tc.name, workers)
				}
				// Without SortNeighbors the lists keep the edge list's order.
				unsorted, err := BuildWith(list, BuildOptions{NumVertices: n, Weighted: true, Workers: workers})
				if err != nil {
					t.Fatal(err)
				}
				if want := slices.Equal(list, sorted); unsorted.Canonical() != want {
					t.Fatalf("%s, workers=%d: an unsorted build reports Canonical() = %v, want %v", tc.name, workers, !want, want)
				}
				if first == nil {
					first = g
				} else if err := sameArrays(g, first); err != nil {
					t.Fatalf("%s, workers=%d: %v", tc.name, workers, err)
				}
			}
		}
	}
}

// patchCase is one Patch input derived from a byte string: a small graph
// and an edit list over few vertices and few weights, so parallel edges,
// duplicate instances and removals of absent instances are all common.
type patchCase struct {
	n0, n    int // vertex count before / after
	weighted bool
	initial  []Edge
	edits    []EdgeEdit
	perm     []VertexID // a permutation of [0, n)
}

func decodePatchCase(data []byte) patchCase {
	at := func(i int) int {
		if i < len(data) {
			return int(data[i])
		}
		return 0
	}
	c := patchCase{n0: 1 + at(0)%12, weighted: at(1)&1 == 1}
	c.n = c.n0 + at(1)>>1%3
	body := data[min(4, len(data)):]
	numInitial := 0
	if len(body) >= 3 {
		numInitial = at(2) % (len(body)/3 + 1)
	}
	for i := 0; i+3 <= len(body); i += 3 {
		if i/3 < numInitial {
			c.initial = append(c.initial, Edge{
				Src: VertexID(int(body[i]) % c.n0), Dst: VertexID(int(body[i+1]) % c.n0), Weight: uint32(body[i+2] % 4)})
			continue
		}
		ed := EdgeEdit{Src: VertexID(int(body[i]) % c.n), Dst: VertexID(int(body[i+1]) % c.n),
			Weight: uint32(body[i+2] % 4), Remove: body[i+2]&0x80 != 0}
		if ed.Remove && len(c.initial) > 0 && body[i+2]&0x40 == 0 {
			// Mostly remove what is there, so valid lists are common.
			e := c.initial[int(body[i])%len(c.initial)]
			ed.Src, ed.Dst, ed.Weight = e.Src, e.Dst, e.Weight
		}
		c.edits = append(c.edits, ed)
	}
	c.perm = make([]VertexID, c.n)
	for i := range c.perm {
		c.perm[i] = VertexID(i)
	}
	r := rng.New(uint64(at(3)) + 1)
	for i := c.n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		c.perm[i], c.perm[j] = c.perm[j], c.perm[i]
	}
	return c
}

// final returns the edited edge multiset, or false when some instance
// group would go negative.
func (c patchCase) final() ([]Edge, bool) {
	count := make(map[Edge]int)
	norm := func(src, dst VertexID, w uint32) Edge {
		if !c.weighted {
			w = 0
		}
		return Edge{Src: src, Dst: dst, Weight: w}
	}
	for _, e := range c.initial {
		count[norm(e.Src, e.Dst, e.Weight)]++
	}
	for _, ed := range c.edits {
		if ed.Remove {
			count[norm(ed.Src, ed.Dst, ed.Weight)]--
		} else {
			count[norm(ed.Src, ed.Dst, ed.Weight)]++
		}
	}
	var edges []Edge
	for e, k := range count {
		if k < 0 {
			return nil, false
		}
		for ; k > 0; k-- {
			edges = append(edges, e)
		}
	}
	return edges, true
}

// checkPatch holds Patch to its definition on one case: the patched
// original-order graph (vertex growth included) equals the rebuild, the
// patched view equals the rebuild relabeled, both validate, and the
// inputs are left as they were. PatchRelabel must equal Patch followed by
// RelabelWorkers on both graphs, array for array, and refuse what Patch
// refuses.
func checkPatch(t *testing.T, c patchCase) {
	t.Helper()
	build := func(edges []Edge, n int) *Graph {
		g, err := BuildWith(edges, BuildOptions{NumVertices: n, Weighted: c.weighted, SortNeighbors: true})
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	finalEdges, valid := c.final()

	g0 := build(c.initial, c.n0)
	before := build(c.initial, c.n0)
	got, err := g0.Patch(c.edits, c.n, nil)
	if !valid {
		if err == nil {
			t.Fatalf("Patch accepted a removal of an absent instance: %+v", c)
		}
		if _, err := g0.PatchRelabel(c.edits, c.n, nil, c.perm); err == nil {
			t.Fatalf("PatchRelabel accepted a removal of an absent instance: %+v", c)
		}
		return
	}
	if err != nil {
		t.Fatalf("Patch: %v on %+v", err, c)
	}
	want := build(finalEdges, c.n)
	if err := sameArrays(got, want); err != nil {
		t.Fatalf("patched graph is not the rebuild: %v\ncase %+v", err, c)
	}
	if err := got.Validate(); err != nil {
		t.Fatal(err)
	}
	if err := sameArrays(g0, before); err != nil {
		t.Fatalf("Patch modified its receiver: %v", err)
	}

	// The view: the graph over the final vertex count, relabeled.
	inv := make([]VertexID, c.n)
	for v, id := range c.perm {
		inv[id] = VertexID(v)
	}
	view0, err := build(c.initial, c.n).Relabel(c.perm)
	if err != nil {
		t.Fatal(err)
	}
	moved := make([]EdgeEdit, len(c.edits))
	for i, ed := range c.edits {
		moved[i] = EdgeEdit{Src: c.perm[ed.Src], Dst: c.perm[ed.Dst], Weight: ed.Weight, Remove: ed.Remove}
	}
	gotView, err := view0.Patch(moved, c.n, inv)
	if err != nil {
		t.Fatalf("Patch (view): %v on %+v", err, c)
	}
	wantView, err := want.Relabel(c.perm)
	if err != nil {
		t.Fatal(err)
	}
	if err := sameArrays(gotView, wantView); err != nil {
		t.Fatalf("patched view is not the rebuild relabeled: %v\ncase %+v", err, c)
	}
	if err := gotView.Validate(); err != nil {
		t.Fatal(err)
	}

	// Patch and relabel in one pass: from original order into the view,
	// and from the view into another order (the view's IDs rotated by one
	// before perm).
	fused, err := g0.PatchRelabel(c.edits, c.n, nil, c.perm)
	if err != nil {
		t.Fatalf("PatchRelabel: %v on %+v", err, c)
	}
	if err := sameArrays(fused, wantView); err != nil {
		t.Fatalf("PatchRelabel into the view is not Patch then RelabelWorkers: %v\ncase %+v", err, c)
	}
	next := make([]VertexID, c.n)
	for v := range next {
		next[v] = c.perm[(v+1)%c.n]
	}
	fused, err = view0.PatchRelabel(moved, c.n, inv, next)
	if err != nil {
		t.Fatalf("PatchRelabel (view): %v on %+v", err, c)
	}
	wantNext, err := gotView.RelabelWorkers(next, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := sameArrays(fused, wantNext); err != nil {
		t.Fatalf("PatchRelabel of the view is not Patch then RelabelWorkers: %v\ncase %+v", err, c)
	}
	if err := fused.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestPatchMatchesRebuild(t *testing.T) {
	// Patches whose weights cross a width boundary (255 | 256 and
	// 65535 | 65536), upward by insertion and downward by removal: the
	// stored width is a function of the edited multiset, as the
	// rebuild's is, and sameArrays compares it.
	for _, top := range []uint32{0xFF, 0xFFFF} {
		wide := top + 1
		base := []Edge{{Src: 0, Dst: 1, Weight: top}, {Src: 1, Dst: 2, Weight: 1}, {Src: 2, Dst: 0, Weight: top}, {Src: 2, Dst: 2, Weight: 7}}
		withWide := slices.Concat(base, []Edge{{Src: 0, Dst: 2, Weight: wide}})
		twoWide := slices.Concat(withWide, []Edge{{Src: 1, Dst: 1, Weight: wide}})
		insert := EdgeEdit{Src: 0, Dst: 2, Weight: wide}
		remove := EdgeEdit{Src: 0, Dst: 2, Weight: wide, Remove: true}
		dropTop := []EdgeEdit{{Src: 0, Dst: 1, Weight: top, Remove: true}, {Src: 2, Dst: 0, Weight: top, Remove: true}}
		for _, c := range []patchCase{
			{initial: base, edits: []EdgeEdit{insert}},                                     // widens
			{initial: base, edits: []EdgeEdit{insert, {Src: 3, Dst: 1, Weight: 2}}},        // widens and grows
			{initial: withWide, edits: []EdgeEdit{remove}},                                 // narrows
			{initial: withWide, edits: []EdgeEdit{remove, {Src: 1, Dst: 0, Weight: wide}}}, // stays wide
			{initial: twoWide, edits: []EdgeEdit{remove}},                                  // stays wide
			{initial: withWide, edits: []EdgeEdit{remove, insert}},                         // nets to nothing
			{initial: base, edits: dropTop},                                                // 65535 → 7: narrows
		} {
			c.n0, c.n, c.weighted = 3, 3, true
			for _, ed := range c.edits {
				c.n = max(c.n, int(ed.Src)+1)
			}
			c.perm = make([]VertexID, c.n)
			for i := range c.perm {
				c.perm[i] = VertexID(c.n - 1 - i)
			}
			checkPatch(t, c)
		}
	}

	r := rng.New(5)
	for i := 0; i < 400; i++ {
		data := make([]byte, 4+3*r.Intn(40))
		for j := range data {
			data[j] = byte(r.Intn(256))
		}
		checkPatch(t, decodePatchCase(data))
	}
}

func TestPatchRejectsBadInput(t *testing.T) {
	g, err := Build([]Edge{{Src: 0, Dst: 1, Weight: 3}, {Src: 1, Dst: 2, Weight: 4}})
	if err != nil {
		t.Fatal(err)
	}
	for name, call := range map[string]func() (*Graph, error){
		"shrink":        func() (*Graph, error) { return g.Patch(nil, 2, nil) },
		"rank length":   func() (*Graph, error) { return g.Patch(nil, 3, []VertexID{0, 1}) },
		"endpoint":      func() (*Graph, error) { return g.Patch([]EdgeEdit{{Src: 0, Dst: 3}}, 3, nil) },
		"absent edge":   func() (*Graph, error) { return g.Patch([]EdgeEdit{{Src: 2, Dst: 0, Remove: true}}, 3, nil) },
		"absent weight": func() (*Graph, error) { return g.Patch([]EdgeEdit{{Src: 0, Dst: 1, Weight: 4, Remove: true}}, 3, nil) },
		"emptied": func() (*Graph, error) {
			ed := EdgeEdit{Src: 0, Dst: 1, Weight: 3, Remove: true}
			return g.Patch([]EdgeEdit{ed, ed, ed}, 3, nil)
		},
	} {
		if got, err := call(); err == nil {
			t.Errorf("%s: Patch returned %v, want an error", name, got)
		}
	}
	same, err := g.Patch(nil, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := sameArrays(same, g); err != nil {
		t.Fatalf("empty patch: %v", err)
	}
	// A build has no room past its arrays for a patch to write into: even
	// an empty patch of it copies.
	if &same.outEdges[0] == &g.outEdges[0] || &same.inIndex[0] == &g.inIndex[0] {
		t.Fatal("an empty patch of a build shares its arrays")
	}
}

// FuzzPatch: any small graph and edit list, against the rebuild, in one
// patch and as a chain of patches (checkPatchChain).
func FuzzPatch(f *testing.F) {
	f.Add([]byte{5, 1, 2, 7, 0, 1, 2, 1, 2, 3, 0, 1, 0x82, 3, 4, 1})
	f.Add([]byte{3, 4, 1, 0, 0, 0, 1, 0, 0, 2, 0, 0, 0x81, 0, 0, 0xc1})
	f.Add([]byte{11, 3, 9, 200, 1, 1, 1, 1, 1, 1, 1, 1, 2, 1, 1, 0x83, 1, 1, 3, 7, 7, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 4+3*256 {
			return
		}
		checkPatch(t, decodePatchCase(data))
		checkPatchChain(t, data, false)
		checkPatchChain(t, data, true)
	})
}
