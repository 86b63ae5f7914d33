package graph

import (
	"fmt"
	"maps"
	"slices"
	"sync"
	"testing"
	"unsafe"

	"graphreorder/internal/rng"
)

// sameLists compares two graphs list for list: every vertex's
// out-neighbors, their weights and its in-neighbors, whatever arrays
// hold them.
func sameLists(a, b *Graph) error {
	if a.n != b.n || a.m != b.m || a.Weighted() != b.Weighted() {
		return fmt.Errorf("n/m/weighted = %d/%d/%v, want %d/%d/%v", a.n, a.m, a.Weighted(), b.n, b.m, b.Weighted())
	}
	for v := range VertexID(a.n) {
		if !slices.Equal(a.OutNeighbors(v), b.OutNeighbors(v)) {
			return fmt.Errorf("out-list of %d = %v, want %v", v, a.OutNeighbors(v), b.OutNeighbors(v))
		}
		if aw, bw := a.OutWeightList(v).Append(nil), b.OutWeightList(v).Append(nil); !slices.Equal(aw, bw) {
			return fmt.Errorf("weights of %d's out-list = %v, want %v", v, aw, bw)
		}
		if !slices.Equal(a.InNeighbors(v), b.InNeighbors(v)) {
			return fmt.Errorf("in-list of %d = %v, want %v", v, a.InNeighbors(v), b.InNeighbors(v))
		}
	}
	return nil
}

// TestAppendToAListLeavesTheGraph: every list a graph hands out is capped
// at its length, so appending to it copies instead of writing over what
// follows — the next list of the same graph, or, past a patched graph's
// last list, the lists a later patch wrote into the shared room.
func TestAppendToAListLeavesTheGraph(t *testing.T) {
	edges := []Edge{{Src: 0, Dst: 1, Weight: 3}, {Src: 0, Dst: 2, Weight: 300}, {Src: 1, Dst: 2, Weight: 5},
		{Src: 2, Dst: 0, Weight: 7}, {Src: 1, Dst: 0, Weight: 1}, {Src: 2, Dst: 2, Weight: 9}}
	build := func(edges []Edge) *Graph {
		g, err := BuildWith(edges, BuildOptions{NumVertices: 8, Weighted: true, SortNeighbors: true})
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	g, want := build(edges), build(edges)
	// p0 copies g into arrays with room; p1 writes its edited lists there.
	p0, err := g.Patch([]EdgeEdit{{Src: 2, Dst: 1, Weight: 4}}, 8, nil)
	if err != nil {
		t.Fatal(err)
	}
	p1, err := p0.Patch([]EdgeEdit{{Src: 0, Dst: 0, Weight: 2}}, 8, nil)
	if err != nil {
		t.Fatal(err)
	}
	if p1.IsCompact() || &p1.outEdges[0] != &p0.outEdges[0] {
		t.Fatal("the second patch does not share the first one's arrays")
	}
	wantP1 := build(append(slices.Clone(edges), Edge{Src: 2, Dst: 1, Weight: 4}, Edge{Src: 0, Dst: 0, Weight: 2}))
	for _, h := range []*Graph{g, p0} {
		for v := range VertexID(8) {
			_ = append(h.OutNeighbors(v), 99, 99)
			_ = append(h.InNeighbors(v), 99, 99)
			_ = append(h.OutWeightList(v).Bytes, 0xEE, 0xEE, 0xEE, 0xEE)
		}
	}
	if err := sameArrays(g, want); err != nil {
		t.Errorf("appending to g's lists changed g: %v", err)
	}
	if err := sameLists(p1, wantP1); err != nil {
		t.Errorf("appending to the first patch's lists changed the second: %v", err)
	}
}

// TestPatchSharesUntouchedLists pins when a patch shares its receiver's
// arrays and when it copies: a build has no room, so its first patch
// copies, into arrays with room; the next shares them and writes only
// the edited lists; a refresh (PatchRelabel with a permutation) and
// Compact are compact; an insert that widens the weights copies; and so
// does the patch whose dead entries would pass deadAllowance.
func TestPatchSharesUntouchedLists(t *testing.T) {
	const n = 200
	r := rng.New(3)
	var edges []Edge
	for range 4000 {
		edges = append(edges, Edge{Src: VertexID(r.Intn(n)), Dst: VertexID(r.Intn(n)), Weight: uint32(1 + r.Intn(50))})
	}
	g, err := BuildWith(edges, BuildOptions{NumVertices: n, Weighted: true, SortNeighbors: true})
	if err != nil {
		t.Fatal(err)
	}
	if !g.IsCompact() || g.outTail != nil || cap(g.outEdges) != g.m {
		t.Fatal("a build is not compact, or has room")
	}
	p0, err := g.Patch([]EdgeEdit{{Src: 1, Dst: 2, Weight: 3}}, n, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !p0.IsCompact() || &p0.outEdges[0] == &g.outEdges[0] || uint64(cap(p0.outEdges)) != uint64(p0.m)+deadAllowance(uint64(p0.m), n) {
		t.Fatalf("a build's first patch did not copy into arrays with room (cap %d for %d edges)", cap(p0.outEdges), p0.m)
	}
	if p0.Compact() != p0 {
		t.Fatal("Compact of a compact graph is not the graph itself")
	}
	p1, err := p0.Patch([]EdgeEdit{{Src: 5, Dst: 6, Weight: 7}, {Src: 1, Dst: 2, Weight: 3, Remove: true}}, n+1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if p1.IsCompact() || &p1.outEdges[0] != &p0.outEdges[0] || &p1.inEdges[0] != &p0.inEdges[0] || &p1.outWeights[0] != &p0.outWeights[0] {
		t.Fatal("the second patch copied")
	}
	// Two out-lists (1 and 5) and two in-lists (2 and 6) were written.
	if got, want := len(p1.outEdges)-p0.m, p0.OutDegree(1)-1+p0.OutDegree(5)+1; got != want {
		t.Errorf("the second patch wrote %d out-entries, want the %d of its edited lists", got, want)
	}
	if p1.OutDegree(n) != 0 || p1.NumVertices() != n+1 {
		t.Error("the grown vertex is not isolated")
	}
	if err := p1.Validate(); err != nil {
		t.Fatal(err)
	}
	c := p1.Compact()
	if !c.IsCompact() || cap(c.outEdges) != c.m || c.outTail != nil {
		t.Fatal("Compact is not a build's layout")
	}
	if err := sameLists(c, p1); err != nil {
		t.Fatal(err)
	}
	perm := make([]VertexID, n+1)
	for v := range perm {
		perm[v] = VertexID(n - v)
	}
	refreshed, err := p1.PatchRelabel([]EdgeEdit{{Src: 0, Dst: 0, Weight: 1}}, n+1, nil, perm)
	if err != nil {
		t.Fatal(err)
	}
	if !refreshed.IsCompact() || refreshed.outTail != nil || cap(refreshed.outEdges) != refreshed.m {
		t.Fatal("a patch into a new order is not compact")
	}
	wide, err := p1.Patch([]EdgeEdit{{Src: 7, Dst: 8, Weight: 300}}, n+1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if wide.outStart != nil || wide.wb != 2 || &wide.outEdges[0] == &p1.outEdges[0] {
		t.Fatal("a widening insert did not copy the out-lists at the wider width")
	}
	if &wide.inEdges[0] != &p1.inEdges[0] {
		t.Fatal("a widening insert copied the in-lists, which carry no weights")
	}
	// Rewrite vertex 0's out-list until the room is spent: a patch copies
	// exactly when its list would pass the capacity or the dead-entry
	// allowance.
	cur, copies := p1, 0
	for i := range 400 {
		m := uint64(cur.m + 1)
		end := uint64(len(cur.outEdges)+cur.OutDegree(0)) + 1
		wantCopy := end > uint64(cap(cur.outEdges)) || end-m > deadAllowance(m, n+1)
		next, err := cur.Patch([]EdgeEdit{{Src: 0, Dst: VertexID(i % n), Weight: 1}}, n+1, nil)
		if err != nil {
			t.Fatal(err)
		}
		if copied := &next.outEdges[0] != &cur.outEdges[0]; copied != wantCopy {
			t.Fatalf("patch %d: copied %v, want %v (%d entries after it, room for %d, %d live)", i, copied, wantCopy, end, cap(cur.outEdges), m)
		}
		if wantCopy {
			copies++
		}
		cur = next
	}
	if copies == 0 {
		t.Fatal("400 rewrites of a hub never spent the room")
	}
}

// chainGen is one graph of a patch chain and what it must read.
type chainGen struct {
	g, want *Graph
	model   map[Edge]int
	n       int
}

// checkPatchChain drives a chain of patches from the case's initial
// graph against a multiset model: its edits cut into steps of 1-4, a
// weight that widens the width when the graph is weighted, and vertex
// growth (edits reach past the initial vertex space, and a last step
// adds a vertex). A step patches the newest graph, or, now and then, an
// earlier one, so two patches claim room in the same arrays. After every
// step each graph of the chain still reads the lists it had, the newest
// equals the rebuild of its model list for list, and its Compact equals
// it array for array; a step the model refuses must fail. relabeled
// runs the chain on the view: the graph relabeled by the case's
// permutation, patched under its inverse as the rank, as a live fold
// does. It returns how many steps shared their parent's arrays.
func checkPatchChain(t *testing.T, data []byte, relabeled bool) (shared int) {
	t.Helper()
	c := decodePatchCase(data)
	at := func(i int) int {
		if i < len(data) {
			return int(data[i])
		}
		return 0
	}
	norm := func(e Edge) Edge {
		if !c.weighted {
			e.Weight = 0
		}
		return e
	}
	var inv []VertexID
	n0 := c.n0
	if relabeled {
		n0 = c.n // the permutation is over the final vertex space
		inv = make([]VertexID, c.n)
		for v, id := range c.perm {
			inv[id] = VertexID(v)
		}
	}
	rebuild := func(model map[Edge]int, n int) *Graph {
		var edges []Edge
		for e, k := range model {
			for range k {
				edges = append(edges, e)
			}
		}
		g, err := BuildWith(edges, BuildOptions{NumVertices: n, Weighted: c.weighted, SortNeighbors: true})
		if err != nil {
			t.Fatal(err)
		}
		if relabeled {
			if g, err = g.Relabel(c.perm); err != nil {
				t.Fatal(err)
			}
		}
		return g
	}
	model := make(map[Edge]int)
	for _, e := range c.initial {
		model[norm(e)]++
	}
	first := rebuild(model, n0)
	gens := []chainGen{{g: first, want: rebuild(model, n0), model: model, n: n0}}

	steps := [][]EdgeEdit{}
	for i, k := 0, 0; i < len(c.edits); k++ {
		j := min(len(c.edits), i+1+at(4+k)%4)
		steps = append(steps, c.edits[i:j])
		i = j
	}
	if c.weighted {
		// A weight two bytes wide, inserted part way: that step copies.
		e := EdgeEdit{Src: VertexID(at(5) % c.n0), Dst: VertexID(at(6) % c.n0), Weight: 300 + uint32(at(7))}
		k := at(8) % (len(steps) + 1)
		steps = slices.Insert(steps, k, []EdgeEdit{e})
	}
	if !relabeled {
		// The last step grows the space by a vertex and links it.
		steps = append(steps, []EdgeEdit{{Src: VertexID(c.n), Dst: VertexID(at(9) % c.n), Weight: 1}})
	}
	for k, step := range steps {
		from := len(gens) - 1
		if at(10+k)%5 == 0 {
			from = at(11+k) % len(gens) // a sibling of a later graph
		}
		parent := gens[from]
		n := parent.n
		for _, ed := range step {
			n = max(n, int(ed.Src)+1, int(ed.Dst)+1)
		}
		next := maps.Clone(parent.model)
		for _, ed := range step {
			e := norm(Edge{Src: ed.Src, Dst: ed.Dst, Weight: ed.Weight})
			if ed.Remove {
				next[e]--
			} else {
				next[e]++
			}
		}
		valid := true
		for _, k := range next {
			valid = valid && k >= 0
		}
		maps.DeleteFunc(next, func(_ Edge, k int) bool { return k == 0 })
		edits, rank := step, []VertexID(nil)
		if relabeled {
			edits, rank = make([]EdgeEdit, len(step)), inv
			for i, ed := range step {
				edits[i] = EdgeEdit{Src: c.perm[ed.Src], Dst: c.perm[ed.Dst], Weight: ed.Weight, Remove: ed.Remove}
			}
		}
		got, err := parent.g.Patch(edits, n, rank)
		if !valid {
			if err == nil {
				t.Fatalf("step %d: a patch removed an absent instance: %+v", k, step)
			}
			continue
		}
		if err != nil {
			t.Fatalf("step %d: %v", k, err)
		}
		want := rebuild(next, n)
		if err := sameLists(got, want); err != nil {
			t.Fatalf("step %d (from graph %d of %d): the patch is not the rebuild: %v", k, from, len(gens), err)
		}
		if err := got.Validate(); err != nil {
			t.Fatalf("step %d: %v", k, err)
		}
		if err := sameArrays(got.Compact(), want); err != nil {
			t.Fatalf("step %d: Compact of the patch is not the rebuild: %v", k, err)
		}
		if p := unsafe.SliceData(got.outEdges); p != nil && p == unsafe.SliceData(parent.g.outEdges) {
			shared++
		}
		gens = append(gens, chainGen{g: got, want: want, model: next, n: n})
		for i, gen := range gens {
			if err := sameLists(gen.g, gen.want); err != nil {
				t.Fatalf("step %d: graph %d of the chain changed: %v", k, i, err)
			}
		}
	}
	return shared
}

func TestPatchChainMatchesRebuild(t *testing.T) {
	r := rng.New(9)
	steps := 0
	for range 300 {
		data := make([]byte, 4+3*r.Intn(40))
		for j := range data {
			data[j] = byte(r.Intn(256))
		}
		steps += checkPatchChain(t, data, false) + checkPatchChain(t, data, true)
	}
	t.Logf("%d steps shared", steps)
	if steps < 300 {
		t.Errorf("%d steps shared their parent's arrays, want at least 300", steps)
	}
}

// TestPatchChainConcurrentReaders runs readers of every earlier graph of a
// chain beside the patches that extend it, and two patches of one graph
// at once: under -race, a patch that wrote a byte an earlier graph reads
// is reported, and each reader checks the lists it reads against their
// checksum at creation.
func TestPatchChainConcurrentReaders(t *testing.T) {
	const n, steps = 300, 60
	r := rng.New(21)
	var edges []Edge
	for range 3000 {
		edges = append(edges, Edge{Src: VertexID(r.Intn(n)), Dst: VertexID(r.Intn(n)), Weight: uint32(1 + r.Intn(9))})
	}
	g, err := BuildWith(edges, BuildOptions{NumVertices: n, Weighted: true, SortNeighbors: true})
	if err != nil {
		t.Fatal(err)
	}
	sum := func(g *Graph) uint64 {
		var s uint64
		for v := range VertexID(g.n) {
			for i, x := range g.OutNeighbors(v) {
				s = s*31 + uint64(x)<<8 + uint64(g.OutWeightList(v).At(i))
			}
			for _, x := range g.InNeighbors(v) {
				s = s*37 + uint64(x)
			}
		}
		return s
	}
	var wg sync.WaitGroup
	errs := make(chan error, 4*steps)
	read := func(g *Graph, want uint64) {
		defer wg.Done()
		for range 3 {
			if got := sum(g); got != want {
				errs <- fmt.Errorf("a graph of %d edges read checksum %x, %x at creation", g.m, got, want)
				return
			}
		}
	}
	cur := g
	for i := range steps {
		batch := make([]EdgeEdit, 4)
		for j := range batch {
			batch[j] = EdgeEdit{Src: VertexID(r.Intn(n)), Dst: VertexID(r.Intn(n)), Weight: uint32(1 + r.Intn(9))}
		}
		// Two patches of cur at once: they must claim disjoint room.
		var sib *Graph
		var sibErr error
		done := make(chan struct{})
		go func() {
			defer close(done)
			sib, sibErr = cur.Patch(batch[:1], n, nil)
		}()
		next, err := cur.Patch(batch, n, nil)
		<-done
		if err != nil || sibErr != nil {
			t.Fatal(err, sibErr)
		}
		for _, h := range []*Graph{cur, next, sib} {
			wg.Add(1)
			go read(h, sum(h))
		}
		if i%20 == 19 {
			wg.Wait() // bound the readers in flight
		}
		cur = next
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
