package dynamic

import (
	"bytes"
	"fmt"
	"runtime"
	"slices"
	"testing"

	"graphreorder/internal/gen"
	"graphreorder/internal/graph"
	"graphreorder/internal/reorder"
	"graphreorder/internal/rng"
)

// refGraph is the map-based implementation the flat index replaced
// (map[edgeKey][]int, one position list per key), kept here as the model
// the index is checked against: same validation, same choice of which
// parallel instance a removal takes, same swap-with-last edge list.
type refGraph struct {
	n        int
	edges    []graph.Edge
	weighted bool
	index    map[edgeKey][]int
	outDeg   []int32
	inDeg    []int32
	batches  int
	// undo holds every instance inserted or removed, for rollback.
	undo []Update
}

func refFromGraph(g *graph.Graph) *refGraph {
	r := &refGraph{
		n:        g.NumVertices(),
		edges:    g.Edges(),
		weighted: g.Weighted(),
		index:    make(map[edgeKey][]int),
		outDeg:   make([]int32, g.NumVertices()),
		inDeg:    make([]int32, g.NumVertices()),
	}
	for i, e := range r.edges {
		k := edgeKey{e.Src, e.Dst}
		r.index[k] = append(r.index[k], i)
		r.outDeg[e.Src]++
		r.inDeg[e.Dst]++
	}
	return r
}

func (r *refGraph) applyGrow(addVertices int, batch []Update) error {
	if addVertices < 0 {
		return fmt.Errorf("negative growth")
	}
	n := r.n + addVertices
	delta := make(map[edgeKey]int)
	for _, u := range batch {
		if int(u.Edge.Src) >= n || int(u.Edge.Dst) >= n {
			return fmt.Errorf("edge outside vertex space")
		}
		k := edgeKey{u.Edge.Src, u.Edge.Dst}
		if !u.Remove {
			delta[k]++
			continue
		}
		if len(r.index[k])+delta[k] <= 0 {
			return fmt.Errorf("removing absent edge")
		}
		delta[k]--
	}
	r.n = n
	r.outDeg = append(r.outDeg, make([]int32, addVertices)...)
	r.inDeg = append(r.inDeg, make([]int32, addVertices)...)
	for _, u := range batch {
		if u.Remove {
			r.remove(u.Edge.Src, u.Edge.Dst)
		} else {
			r.insert(u.Edge)
		}
	}
	r.batches++
	return nil
}

func (r *refGraph) insert(e graph.Edge) {
	k := edgeKey{e.Src, e.Dst}
	r.index[k] = append(r.index[k], len(r.edges))
	r.edges = append(r.edges, e)
	r.outDeg[e.Src]++
	r.inDeg[e.Dst]++
	r.undo = append(r.undo, Update{Edge: e})
}

// refMark is a deep copy of the model: what a rollback must restore, as a
// multiset (and, per bucket, in removal order) — not as an edge list.
type refMark struct {
	undoLen    int
	n, batches int
	buckets    map[edgeKey][]uint32 // weights, oldest instance first
}

func (r *refGraph) mark() refMark {
	m := refMark{undoLen: len(r.undo), n: r.n, batches: r.batches, buckets: make(map[edgeKey][]uint32)}
	for k, ids := range r.index {
		for _, pos := range ids {
			m.buckets[k] = append(m.buckets[k], r.edges[pos].Weight)
		}
	}
	return m
}

// rollbackTo undoes the model's own history in reverse, like the real
// graph, so the two edge lists stay comparable position by position; the
// caller holds the result against the mark's deep copy.
func (r *refGraph) rollbackTo(m refMark) {
	room := max(r.n, m.n)
	for _, u := range r.undo[m.undoLen:] {
		room = max(room, int(u.Edge.Src)+1, int(u.Edge.Dst)+1)
	}
	r.outDeg = append(r.outDeg, make([]int32, room-r.n)...)
	r.inDeg = append(r.inDeg, make([]int32, room-r.n)...)
	for i := len(r.undo) - 1; i >= m.undoLen; i-- {
		if u := r.undo[i]; u.Remove {
			r.insert(u.Edge)
		} else {
			r.remove(u.Edge.Src, u.Edge.Dst)
		}
	}
	r.n, r.outDeg, r.inDeg, r.batches = m.n, r.outDeg[:m.n], r.inDeg[:m.n], m.batches
}

func (r *refGraph) remove(src, dst graph.VertexID) {
	k := edgeKey{src, dst}
	ids := r.index[k]
	pos := ids[len(ids)-1]
	r.undo = append(r.undo, Update{Remove: true, Edge: r.edges[pos]})
	if len(ids) == 1 {
		delete(r.index, k)
	} else {
		r.index[k] = ids[:len(ids)-1]
	}
	last := len(r.edges) - 1
	moved := r.edges[last]
	r.edges[pos] = moved
	r.edges = r.edges[:last]
	if pos != last {
		mids := r.index[edgeKey{moved.Src, moved.Dst}]
		for i := len(mids) - 1; i >= 0; i-- {
			if mids[i] == last {
				mids[i] = pos
				break
			}
		}
	}
	r.outDeg[src]--
	r.inDeg[dst]--
}

func (r *refGraph) snapshot(t *testing.T) *graph.Graph {
	t.Helper()
	g, err := graph.BuildWith(r.edges, graph.BuildOptions{
		NumVertices: r.n, Weighted: r.weighted, SortNeighbors: true})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func csrBytes(t *testing.T, g *graph.Graph) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := graph.WriteBinary(&buf, g); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// checkAgainstModel compares everything observable, the edge list itself
// included; withSnapshot also holds Snapshot() to the rebuild of the
// model's edge list, array for array.
func checkAgainstModel(t *testing.T, step string, d *Graph, r *refGraph, withSnapshot bool) {
	t.Helper()
	if d.NumVertices() != r.n || d.NumEdges() != len(r.edges) || d.Batches() != r.batches {
		t.Fatalf("%s: n/m/batches = %d/%d/%d, model %d/%d/%d", step,
			d.NumVertices(), d.NumEdges(), d.Batches(), r.n, len(r.edges), r.batches)
	}
	if !slices.Equal(d.edges, r.edges) {
		t.Fatalf("%s: edge lists diverged", step)
	}
	if !slices.Equal(d.outDeg, r.outDeg) || !slices.Equal(d.inDeg, r.inDeg) {
		t.Fatalf("%s: degrees diverged", step)
	}
	for k, ids := range r.index {
		if got := d.Count(k.src, k.dst); got != len(ids) {
			t.Fatalf("%s: Count(%d,%d) = %d, model %d", step, k.src, k.dst, got, len(ids))
		}
	}
	if d.keys != len(r.index) {
		t.Fatalf("%s: %d distinct keys indexed, model %d", step, d.keys, len(r.index))
	}
	for v := 0; v < r.n; v++ { // absent keys, including ones whose last instance was just removed
		k := edgeKey{graph.VertexID(v), graph.VertexID((v * 7) % r.n)}
		if got := d.Count(k.src, k.dst); got != len(r.index[k]) {
			t.Fatalf("%s: Count(%d,%d) = %d, model %d", step, k.src, k.dst, got, len(r.index[k]))
		}
	}
	if !withSnapshot {
		return
	}
	snap, err := d.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(csrBytes(t, snap), csrBytes(t, r.snapshot(t))) {
		t.Fatalf("%s: snapshot CSR differs from the model's", step)
	}
}

// TestIndexMatchesMapModel drives the flat index and the map model with
// the same seeded schedules of insert / remove / grow / rollback batches
// and requires identical state after every batch, failed ones included —
// and, now that snapshots and views are patched from the edit log, that
// Snapshot() is the rebuild of the model's edge list and View() that
// rebuild relabeled, array for array, whichever path produced them: the
// schedules differ in how far the cached snapshot lags, whether the log
// is trimmed under the readers (a 16-entry retention), and whether the
// graph started from a foreign CSR with unsorted lists. Every graph the
// package hands out is kept and re-checked at the end: no later patch
// may have touched it.
func TestIndexMatchesMapModel(t *testing.T) {
	for _, sched := range []struct {
		seed      uint64
		retain    int  // edit-log retention override
		snapEvery int  // Snapshot() is called on every snapEvery-th step only
		foreign   bool // start from a CSR with lists in edge-list order
	}{
		{seed: 1, snapEvery: 1},
		{seed: 2, snapEvery: 1, retain: 16},
		{seed: 3, snapEvery: 5, foreign: true},
		{seed: 4, snapEvery: 3, retain: 16},
		{seed: 5, snapEvery: 7},
		{seed: 6, snapEvery: 2, foreign: true},
	} {
		seed := sched.seed
		rnd := rng.New(seed)
		// A small vertex space makes parallel edges, probe-run collisions
		// and table growth (8 slots at the start) all common; vertex 0 is a
		// hub that a quarter of all endpoints land on.
		n := 6 + rnd.Intn(20)
		vertex := func() graph.VertexID {
			if rnd.Intn(4) == 0 {
				return 0
			}
			return graph.VertexID(rnd.Intn(n))
		}
		weight := func() uint32 { return uint32(1 + rnd.Intn(1000)) } // parallel edges get distinct weights
		var initial []graph.Edge
		for i := rnd.Intn(40); i > 0; i-- {
			initial = append(initial, graph.Edge{Src: vertex(), Dst: vertex(), Weight: weight()})
		}
		g, err := graph.BuildWith(initial, graph.BuildOptions{NumVertices: n, Weighted: true, SortNeighbors: !sched.foreign})
		if err != nil {
			t.Fatal(err)
		}
		d, r := FromGraph(g), refFromGraph(g)
		d.logRetain = sched.retain
		rr := NewReorderer(reorder.NewDBG(), graph.OutDegree, Policy{Every: 8})

		type kept struct {
			g     *graph.Graph
			bytes []byte
		}
		var retained []kept
		keep := func(g *graph.Graph) {
			if len(retained) == 0 || retained[len(retained)-1].g != g {
				retained = append(retained, kept{g, csrBytes(t, g)})
			}
		}
		check := func(step string, withSnapshot bool) {
			t.Helper()
			checkAgainstModel(t, step, d, r, withSnapshot)
			view, perm, err := rr.View(d)
			if err != nil {
				t.Fatal(err)
			}
			want, err := r.snapshot(t).RelabelWorkers(perm, 1)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(csrBytes(t, view), csrBytes(t, want)) {
				t.Fatalf("%s: view differs from the model's snapshot relabeled", step)
			}
			keep(view)
			if withSnapshot {
				snap, _ := d.Snapshot()
				keep(snap)
			}
		}
		if !sched.foreign {
			check(fmt.Sprintf("seed %d start", seed), true)
		}

		var (
			mark      Mark
			modelMark refMark
			marked    bool
			rollbacks int
		)
		for step := 0; step < 150; step++ {
			name := fmt.Sprintf("seed %d step %d", seed, step)
			switch c := rnd.Intn(12); {
			case c == 0: // a state to return to
				mark, modelMark, marked = d.Mark(), r.mark(), true
			case c == 1 && marked:
				if err := d.RollbackTo(mark); err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				r.rollbackTo(modelMark)
				n = r.n
				rollbacks++
				// Against the deep copy: the multiset, and per bucket the
				// order removals will take instances in.
				if d.NumVertices() != modelMark.n || d.Batches() != modelMark.batches || d.keys != len(modelMark.buckets) {
					t.Fatalf("%s: rollback left n/batches/keys %d/%d/%d, marked %d/%d/%d", name,
						d.NumVertices(), d.Batches(), d.keys, modelMark.n, modelMark.batches, len(modelMark.buckets))
				}
				for k, want := range modelMark.buckets {
					var got []uint32
					for l := d.table[d.slot(k.src, k.dst)]; l != 0; l = d.next[l-1] {
						got = append(got, d.edges[l-1].Weight)
					}
					slices.Reverse(got)
					if !slices.Equal(got, want) {
						t.Fatalf("%s: bucket %v holds weights %v after rollback, marked %v", name, k, got, want)
					}
				}
				check(name+" (rollback)", true)
			case c == 2: // growth outside a batch
				k := 1 + rnd.Intn(2)
				d.AddVertices(k)
				r.n += k
				r.outDeg = append(r.outDeg, make([]int32, k)...)
				r.inDeg = append(r.inDeg, make([]int32, k)...)
				n += k
			}

			var batch []Update
			grow := 0
			if rnd.Intn(10) == 0 {
				grow = 1 + rnd.Intn(3)
				n += grow // the batch may reference the new vertices
			}
			for i := 1 + rnd.Intn(12); i > 0; i-- {
				switch c := rnd.Intn(10); {
				case c < 4 || len(r.edges) == 0:
					batch = append(batch, Update{Edge: graph.Edge{Src: vertex(), Dst: vertex(), Weight: weight()}})
				case c < 8: // removal of a present edge (may repeat a key: valid only while instances last)
					e := r.edges[rnd.Intn(len(r.edges))]
					batch = append(batch, Update{Remove: true, Edge: e})
				default: // remove-then-reinsert inside one batch, with a new weight
					e := r.edges[rnd.Intn(len(r.edges))]
					batch = append(batch, Update{Remove: true, Edge: e},
						Update{Edge: graph.Edge{Src: e.Src, Dst: e.Dst, Weight: weight()}})
				}
			}
			switch rnd.Intn(8) { // poison some batches after valid updates
			case 0:
				batch = append(batch, Update{Edge: graph.Edge{Src: graph.VertexID(n), Dst: 0, Weight: 1}})
			case 1:
				k := edgeKey{vertex(), vertex()}
				for i := 0; i <= len(r.index[k]); i++ {
					batch = append(batch, Update{Remove: true, Edge: graph.Edge{Src: k.src, Dst: k.dst}})
				}
			}
			_, gotErr := d.ApplyGrow(grow, batch)
			wantErr := r.applyGrow(grow, batch)
			if (gotErr == nil) != (wantErr == nil) {
				t.Fatalf("%s: error %v, model %v", name, gotErr, wantErr)
			}
			if wantErr != nil {
				n -= grow // a failed batch does not even grow
			}
			check(name, step%sched.snapEvery == 0)
		}

		for i, k := range retained {
			if !bytes.Equal(csrBytes(t, k.g), k.bytes) {
				t.Fatalf("seed %d: graph %d of %d handed out was modified afterwards", seed, i, len(retained))
			}
		}
		t.Logf("seed %d: %d full builds, %d of %d stale views patched, %d refreshes, %d rollbacks, %d graphs retained",
			seed, d.builds, rr.Patches, rr.Relabels, rr.Refreshes, rollbacks, len(retained))
		if rollbacks == 0 || rr.Patches == 0 {
			t.Errorf("seed %d: schedule exercised %d rollbacks and %d patched views", seed, rollbacks, rr.Patches)
		}
		if sched.retain == 0 {
			// With the default retention the log always covers the readers:
			// the snapshot is rebuilt once (FromGraph's argument is foreign),
			// then only when a rollback shrank the vertex space under it or
			// left a rolled-back growth in the log, and a stale view is
			// relabeled rather than patched for the same reasons only.
			if d.builds > 1+rollbacks {
				t.Errorf("seed %d: %d full builds for %d rollbacks", seed, d.builds, rollbacks)
			}
			if relabeled := rr.Relabels - rr.Patches; relabeled > 1+rollbacks {
				t.Errorf("seed %d: %d stale views relabeled for %d rollbacks", seed, relabeled, rollbacks)
			}
		} else if d.logBase == 0 {
			t.Errorf("seed %d: a %d-entry retention never trimmed the log", seed, sched.retain)
		}
	}
}

// TestFromGraphFootprint pins what the index retains for a serving-size
// graph: at most 45 bytes per edge all in (edge list included), in a
// handful of allocations — nothing per edge, nothing the collector scans.
func TestFromGraphFootprint(t *testing.T) {
	g, err := gen.Generate(gen.MustDataset("sd", gen.Small))
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	d := FromGraph(g)
	runtime.GC()
	runtime.ReadMemStats(&after)
	perEdge := float64(after.HeapAlloc-before.HeapAlloc) / float64(d.NumEdges())
	allocs := after.Mallocs - before.Mallocs
	t.Logf("FromGraph(sd/small): %.1f B/edge in %d allocations (%d edges)", perEdge, allocs, d.NumEdges())
	if perEdge > 45 {
		t.Errorf("FromGraph retains %.1f B/edge, want <= 45", perEdge)
	}
	if allocs > 64 {
		t.Errorf("FromGraph made %d allocations, want a constant handful", allocs)
	}
	runtime.KeepAlive(d)
}
