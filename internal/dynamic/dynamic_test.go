package dynamic

import (
	"bytes"
	"math"
	"math/bits"
	"slices"
	"testing"

	"graphreorder/internal/apps"
	"graphreorder/internal/gen"
	"graphreorder/internal/graph"
	"graphreorder/internal/reorder"
	"graphreorder/internal/rng"
)

func base(t *testing.T) *graph.Graph {
	t.Helper()
	g, err := gen.Generate(gen.MustDataset("lj", gen.Tiny))
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestFromGraphRoundTrip(t *testing.T) {
	g := base(t)
	d := FromGraph(g)
	if d.NumVertices() != g.NumVertices() || d.NumEdges() != g.NumEdges() {
		t.Fatalf("dimensions changed: %d/%d", d.NumVertices(), d.NumEdges())
	}
	snap, err := d.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if snap != g {
		t.Error("initial snapshot should be the original graph (cached)")
	}
}

func TestApplyInsertAndRemove(t *testing.T) {
	g := base(t)
	d := FromGraph(g)
	m0 := d.NumEdges()

	// Insert two edges, remove one existing edge.
	victim := g.Edges()[0]
	err := d.Apply([]Update{
		{Edge: graph.Edge{Src: 0, Dst: 1, Weight: 3}},
		{Edge: graph.Edge{Src: 1, Dst: 2, Weight: 4}},
		{Remove: true, Edge: victim},
	})
	if err != nil {
		t.Fatal(err)
	}
	if d.NumEdges() != m0+1 {
		t.Fatalf("edge count %d, want %d", d.NumEdges(), m0+1)
	}
	if d.Batches() != 1 {
		t.Fatalf("batches %d, want 1", d.Batches())
	}
	snap, err := d.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if snap.NumEdges() != m0+1 {
		t.Error("snapshot out of sync")
	}
	if err := snap.Validate(); err != nil {
		t.Error(err)
	}
}

func TestApplyRejectsBadUpdates(t *testing.T) {
	d := FromGraph(base(t))
	if err := d.Apply([]Update{{Edge: graph.Edge{Src: 0, Dst: 1 << 30}}}); err == nil {
		t.Error("out-of-range insert accepted")
	}
	if err := d.Apply([]Update{{Remove: true, Edge: graph.Edge{Src: 0, Dst: 0}}}); err == nil {
		// lj generator never emits self-loops, so this edge is absent.
		t.Error("absent-edge removal accepted")
	}
}

// TestApplyMidBatchErrorIsAtomic pins the batch-atomicity contract: a
// batch that fails partway must leave no trace — in particular, earlier
// insertions must not linger in the edge set while Snapshot() keeps
// serving the stale cached graph without them. (The pre-fix Apply
// mutated d.edges before hitting the error and returned without
// invalidating the snapshot, so NumEdges() and Snapshot().NumEdges()
// disagreed; this test fails on that code.)
func TestApplyMidBatchErrorIsAtomic(t *testing.T) {
	g := base(t)
	d := FromGraph(g)
	m0 := d.NumEdges()

	err := d.Apply([]Update{
		{Edge: graph.Edge{Src: 0, Dst: 1, Weight: 9}},    // valid insert
		{Remove: true, Edge: graph.Edge{Src: 0, Dst: 0}}, // absent: lj has no self-loops
		{Edge: graph.Edge{Src: 2, Dst: 3, Weight: 9}},    // never reached
	})
	if err == nil {
		t.Fatal("mid-batch absent-edge removal accepted")
	}
	if d.NumEdges() != m0 {
		t.Fatalf("failed batch mutated the graph: %d edges, want %d", d.NumEdges(), m0)
	}
	if d.Batches() != 0 {
		t.Fatalf("failed batch counted: batches = %d", d.Batches())
	}
	snap, err := d.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if snap.NumEdges() != m0 {
		t.Fatalf("snapshot out of sync after failed batch: %d edges, want %d", snap.NumEdges(), m0)
	}
	if snap != g {
		t.Error("failed batch invalidated the cached snapshot needlessly")
	}
	// The valid prefix applies cleanly afterwards.
	if err := d.Apply([]Update{{Edge: graph.Edge{Src: 0, Dst: 1, Weight: 9}}}); err != nil {
		t.Fatal(err)
	}
	if d.NumEdges() != m0+1 {
		t.Fatalf("edges after retry = %d, want %d", d.NumEdges(), m0+1)
	}
}

func TestApplyBatchInternalDependencies(t *testing.T) {
	d := FromGraph(base(t))
	m0 := d.NumEdges()
	// Removing an edge inserted earlier in the same batch is legal...
	e := graph.Edge{Src: 5, Dst: 5, Weight: 1} // self-loop: absent in lj
	if err := d.Apply([]Update{{Edge: e}, {Remove: true, Edge: e}}); err != nil {
		t.Fatal(err)
	}
	if d.NumEdges() != m0 || d.Count(5, 5) != 0 {
		t.Fatalf("insert+remove left %d edges, count(5,5)=%d", d.NumEdges(), d.Count(5, 5))
	}
	// ...but removing before the insert follows sequential semantics.
	if err := d.Apply([]Update{{Remove: true, Edge: e}, {Edge: e}}); err == nil {
		t.Error("remove-before-insert of an absent edge accepted")
	}
	if d.NumEdges() != m0 {
		t.Fatalf("failed batch changed edge count to %d", d.NumEdges())
	}
}

func TestIncrementalDegreesAndIndex(t *testing.T) {
	g := base(t)
	d := FromGraph(g)
	for v := 0; v < g.NumVertices(); v++ {
		id := graph.VertexID(v)
		if d.OutDegree(id) != g.OutDegree(id) || d.InDegree(id) != g.InDegree(id) {
			t.Fatalf("initial degrees diverge at %d", v)
		}
	}
	victim := g.Edges()[0]
	err := d.Apply([]Update{
		{Edge: graph.Edge{Src: 0, Dst: 1, Weight: 1}},
		{Edge: graph.Edge{Src: 0, Dst: 1, Weight: 2}}, // multiset: second instance
		{Remove: true, Edge: victim},
	})
	if err != nil {
		t.Fatal(err)
	}
	wantCount := countEdge(g, 0, 1) + 2
	if victim.Src == 0 && victim.Dst == 1 {
		wantCount--
	}
	if d.Count(0, 1) != wantCount {
		t.Fatalf("Count(0,1) = %d, want %d", d.Count(0, 1), wantCount)
	}
	// Degrees track the mutations, and agree with a fresh snapshot.
	snap, err := d.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	for v := 0; v < d.NumVertices(); v++ {
		id := graph.VertexID(v)
		if d.OutDegree(id) != snap.OutDegree(id) || d.InDegree(id) != snap.InDegree(id) {
			t.Fatalf("incremental degree diverges from snapshot at %d: out %d/%d in %d/%d",
				v, d.OutDegree(id), snap.OutDegree(id), d.InDegree(id), snap.InDegree(id))
		}
	}
	for _, kind := range []graph.DegreeKind{graph.OutDegree, graph.InDegree, graph.TotalDegree} {
		got := d.AppendDegrees(kind, []uint32{7})
		if got[0] != 7 || !slices.Equal(got[1:], snap.Degrees(kind)) {
			t.Fatalf("AppendDegrees(%v) onto a one-element buffer diverges from the snapshot's degrees", kind)
		}
	}
}

// TestRemovalChurnIndexConsistency hammers the pending-edit bookkeeping:
// after heavy interleaved insert/remove churn, folds included, degrees
// and counts must still agree with a from-scratch recount.
func TestRemovalChurnIndexConsistency(t *testing.T) {
	g := base(t)
	d := FromGraph(g)
	n := graph.VertexID(d.NumVertices())
	touched := g.Edges()
	for round := 0; round < 50; round++ {
		var batch []Update
		for i := 0; i < 20; i++ {
			batch = append(batch, Update{Edge: graph.Edge{
				Src: graph.VertexID(round+i) % n, Dst: graph.VertexID(3*round+2*i+1) % n, Weight: 1}})
		}
		if err := d.Apply(batch); err != nil {
			t.Fatal(err)
		}
		for _, u := range batch {
			touched = append(touched, u.Edge)
		}
		// Remove half of what this round inserted, in reverse order.
		var removals []Update
		for i := 19; i >= 10; i-- {
			removals = append(removals, Update{Remove: true, Edge: batch[i].Edge})
		}
		if err := d.Apply(removals); err != nil {
			t.Fatal(err)
		}
	}
	// Count every bucket while edits are still pending, then against the
	// folded CSR.
	if pending := d.seq() - d.csrSeq; d.logBase == 0 || pending == 0 {
		t.Fatalf("churn left %d edits trimmed and %d pending, want both > 0", d.logBase, pending)
	}
	pending := make(map[[2]graph.VertexID]int)
	for _, e := range touched {
		pending[[2]graph.VertexID{e.Src, e.Dst}] = d.Count(e.Src, e.Dst)
	}
	for v := range n {
		pending[[2]graph.VertexID{v, (v * 7) % n}] = d.Count(v, (v*7)%n)
	}
	fresh := FromGraph(mustSnapshot(t, d))
	for v := 0; v < d.NumVertices(); v++ {
		id := graph.VertexID(v)
		if d.OutDegree(id) != fresh.OutDegree(id) {
			t.Fatalf("out-degree drift at %d: %d vs %d", v, d.OutDegree(id), fresh.OutDegree(id))
		}
	}
	counts := make(map[[2]graph.VertexID]int)
	for _, e := range mustSnapshot(t, d).Edges() {
		counts[[2]graph.VertexID{e.Src, e.Dst}]++
	}
	for k, want := range counts {
		if got := d.Count(k[0], k[1]); got != want {
			t.Fatalf("count drift at %v: %d vs %d", k, got, want)
		}
	}
	for k, got := range pending {
		if want := counts[k]; got != want {
			t.Fatalf("count drift at %v while pending: %d vs %d", k, got, want)
		}
	}
}

func mustSnapshot(t *testing.T, d *Graph) *graph.Graph {
	t.Helper()
	g, err := d.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func countEdge(g *graph.Graph, src, dst graph.VertexID) int {
	n := 0
	for _, v := range g.OutNeighbors(src) {
		if v == dst {
			n++
		}
	}
	return n
}

func TestApplyGrowAtomic(t *testing.T) {
	d := FromGraph(base(t))
	n0, m0 := d.NumVertices(), d.NumEdges()
	// A failing batch must roll back the growth too.
	_, err := d.ApplyGrow(4, []Update{
		{Edge: graph.Edge{Src: graph.VertexID(n0), Dst: 0, Weight: 1}},
		{Remove: true, Edge: graph.Edge{Src: 0, Dst: 0}},
	})
	if err == nil {
		t.Fatal("bad batch accepted")
	}
	if d.NumVertices() != n0 || d.NumEdges() != m0 {
		t.Fatalf("failed ApplyGrow left n=%d m=%d, want %d/%d", d.NumVertices(), d.NumEdges(), n0, m0)
	}
	// A good batch may wire up the new vertices it grows.
	first, err := d.ApplyGrow(4, []Update{
		{Edge: graph.Edge{Src: graph.VertexID(n0), Dst: 0, Weight: 1}},
		{Edge: graph.Edge{Src: 0, Dst: graph.VertexID(n0 + 3), Weight: 1}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if int(first) != n0 || d.NumVertices() != n0+4 || d.NumEdges() != m0+2 {
		t.Fatalf("ApplyGrow: first=%d n=%d m=%d", first, d.NumVertices(), d.NumEdges())
	}
	if d.OutDegree(first) != 1 || d.InDegree(graph.VertexID(n0+3)) != 1 {
		t.Error("degrees of grown vertices wrong")
	}
}

func TestReordererSeed(t *testing.T) {
	g := base(t)
	d := FromGraph(g)
	res, err := reorder.PlanOf(reorder.NewDBG()).Apply(g, graph.OutDegree)
	if err != nil {
		t.Fatal(err)
	}
	r := NewReorderer(reorder.NewDBG(), graph.OutDegree, Policy{Every: 2})
	r.Seed(d, res.Graph, res.Perm)
	if r.Refreshes != 1 {
		t.Fatalf("seed not counted as the initial ordering (count %d)", r.Refreshes)
	}
	// The first View must reuse the seeded ordering verbatim.
	view, perm, err := r.View(d)
	if err != nil {
		t.Fatal(err)
	}
	if view != res.Graph || &perm[0] != &res.Perm[0] {
		t.Error("seeded ordering not reused")
	}
	if r.Refreshes != 1 {
		t.Errorf("View after Seed refreshed (count %d)", r.Refreshes)
	}
	// One batch: relabel reuse; second batch: policy refresh.
	if err := d.Apply([]Update{{Edge: graph.Edge{Src: 0, Dst: 1, Weight: 1}}}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := r.View(d); err != nil {
		t.Fatal(err)
	}
	if r.Refreshes != 1 || r.Patches != 1 {
		t.Errorf("after one batch: refreshes=%d patches=%d, want 1/1", r.Refreshes, r.Patches)
	}
	if err := d.Apply([]Update{{Edge: graph.Edge{Src: 1, Dst: 2, Weight: 1}}}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := r.View(d); err != nil {
		t.Fatal(err)
	}
	if r.Refreshes != 2 {
		t.Errorf("policy refresh after seed not triggered (count %d)", r.Refreshes)
	}
}

func TestAddVertices(t *testing.T) {
	d := FromGraph(base(t))
	n0 := d.NumVertices()
	if got := d.AddVertices(-3); int(got) != n0 || d.NumVertices() != n0 {
		t.Fatalf("negative growth not a no-op: first=%d n=%d", got, d.NumVertices())
	}
	first := d.AddVertices(10)
	if int(first) != n0 || d.NumVertices() != n0+10 {
		t.Fatalf("AddVertices: first=%d n=%d", first, d.NumVertices())
	}
	if err := d.Apply([]Update{{Edge: graph.Edge{Src: first, Dst: 0, Weight: 1}}}); err != nil {
		t.Fatal(err)
	}
	snap, err := d.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if snap.OutDegree(first) != 1 {
		t.Error("new vertex's edge missing")
	}
}

func TestReordererRefreshPolicy(t *testing.T) {
	g := base(t)
	d := FromGraph(g)
	r := NewReorderer(reorder.NewDBG(), graph.OutDegree, Policy{Every: 2})

	if _, _, err := r.View(d); err != nil {
		t.Fatal(err)
	}
	if r.Refreshes != 1 {
		t.Fatalf("initial refresh count %d, want 1", r.Refreshes)
	}
	// One batch: policy Every=2 not due, must reuse the stale perm.
	if err := d.Apply([]Update{{Edge: graph.Edge{Src: 1, Dst: 2, Weight: 1}}}); err != nil {
		t.Fatal(err)
	}
	_, perm1, err := r.View(d)
	if err != nil {
		t.Fatal(err)
	}
	if r.Refreshes != 1 {
		t.Errorf("refreshed too early (count %d)", r.Refreshes)
	}
	// Second batch: refresh due.
	if err := d.Apply([]Update{{Edge: graph.Edge{Src: 2, Dst: 3, Weight: 1}}}); err != nil {
		t.Fatal(err)
	}
	_, perm2, err := r.View(d)
	if err != nil {
		t.Fatal(err)
	}
	if r.Refreshes != 2 {
		t.Errorf("refresh not triggered (count %d)", r.Refreshes)
	}
	if err := perm1.Validate(); err != nil {
		t.Error(err)
	}
	if err := perm2.Validate(); err != nil {
		t.Error(err)
	}
}

func TestReordererVertexGrowthForcesRefresh(t *testing.T) {
	d := FromGraph(base(t))
	r := NewReorderer(reorder.HubCluster{}, graph.OutDegree, Policy{Every: 1000})
	if _, _, err := r.View(d); err != nil {
		t.Fatal(err)
	}
	d.AddVertices(5)
	if err := d.Apply(nil); err != nil {
		t.Fatal(err)
	}
	_, perm, err := r.View(d)
	if err != nil {
		t.Fatal(err)
	}
	if r.Refreshes != 2 {
		t.Errorf("vertex growth did not force refresh (count %d)", r.Refreshes)
	}
	if len(perm) != d.NumVertices() {
		t.Errorf("perm length %d, want %d", len(perm), d.NumVertices())
	}
}

func TestQueriesAgreeAcrossPolicies(t *testing.T) {
	// PR on the reordered view must equal PR on the raw snapshot no matter
	// how stale the permutation is — relabeling never changes results.
	g := base(t)
	d := FromGraph(g)
	r := NewReorderer(reorder.NewDBG(), graph.OutDegree, Policy{Every: 0}) // never refresh after first
	if _, _, err := r.View(d); err != nil {
		t.Fatal(err)
	}
	// Mutate heavily: double some hub's in-degree.
	var batch []Update
	for i := 0; i < 200; i++ {
		batch = append(batch, Update{Edge: graph.Edge{
			Src: graph.VertexID(i % d.NumVertices()), Dst: 7, Weight: 1}})
	}
	if err := d.Apply(batch); err != nil {
		t.Fatal(err)
	}
	view, _, err := r.View(d)
	if err != nil {
		t.Fatal(err)
	}
	if r.Refreshes != 1 {
		t.Fatalf("policy Every=0 must never refresh again (count %d)", r.Refreshes)
	}
	snap, _ := d.Snapshot()
	if view.NumEdges() != snap.NumEdges() {
		t.Fatalf("view has %d edges, snapshot %d", view.NumEdges(), snap.NumEdges())
	}
	pr, err := apps.ByName("PR")
	if err != nil {
		t.Fatal(err)
	}
	// PR's checksum is the rank mass.
	mass := func(g *graph.Graph) float64 {
		out, err := pr.Run(apps.Input{Graph: g, MaxIters: 10})
		if err != nil {
			t.Fatal(err)
		}
		return out.Checksum
	}
	if s1, s2 := mass(snap), mass(view); math.Abs(s1-s2) > 1e-9 {
		t.Errorf("rank mass diverged: %v vs %v", s1, s2)
	}
}

func TestStaleOrderingStillPacksMostHubs(t *testing.T) {
	// §VIII-B's premise: after moderate mutation, the hot set barely
	// changes, so the stale DBG ordering still packs most hot vertices
	// into the hot region. Quantify: fraction of currently-hot vertices
	// whose stale new-ID falls in the first third of the ID space.
	g := base(t)
	d := FromGraph(g)
	r := NewReorderer(reorder.NewDBG(), graph.OutDegree, Policy{Every: 0})
	if _, _, err := r.View(d); err != nil {
		t.Fatal(err)
	}
	// Mutate ~5% of edges.
	var batch []Update
	edges := g.Edges()
	for i := 0; i < len(edges)/20; i++ {
		batch = append(batch, Update{Edge: graph.Edge{
			Src: edges[i].Dst, Dst: edges[i].Src, Weight: 1}})
	}
	if err := d.Apply(batch); err != nil {
		t.Fatal(err)
	}
	view, perm, err := r.View(d)
	if err != nil {
		t.Fatal(err)
	}
	snap, _ := d.Snapshot()
	avg := snap.AvgDegree()
	hot, packed := 0, 0
	cutoff := graph.VertexID(snap.NumVertices() / 3)
	for v := 0; v < snap.NumVertices(); v++ {
		if float64(snap.OutDegree(graph.VertexID(v))) >= avg {
			hot++
			if perm[v] < cutoff {
				packed++
			}
		}
	}
	if hot == 0 {
		t.Fatal("no hot vertices")
	}
	if frac := float64(packed) / float64(hot); frac < 0.8 {
		t.Errorf("stale ordering packs only %.2f of hot vertices", frac)
	}
	_ = view
}

// probes returns how many entries a removal's lookup of (src, dst)
// examines: the two binary searches over src's CSR out-list that bound
// the bucket, the one over its weights that finds the heaviest's
// instances, and the bucket's pending weights.
func probes(d *Graph, src, dst graph.VertexID) int {
	lo, hi, _ := d.span(src, dst)
	deg := d.csr.OutDegree(src)
	p := bits.Len(uint(deg)) + bits.Len(uint(deg-lo)) + bits.Len(uint(hi-lo))
	for l := d.pend[edgeKey{src, dst}]; l != 0; l = d.sums[l-1].next {
		p++
	}
	return p
}

// TestRemovalCostIndependentOfEdgeCount replaces the timing gate CI used
// to run (indexed removal vs a linear scan over the edge slice, best of
// three `go test -bench` samples on a shared runner) with what that gate
// was a proxy for. A removal finds its instance by a binary search in the
// source's sorted CSR list plus its bucket's pending edits, not by
// scanning anything: the entries it examines per lookup are a small
// number on a graph of 5 K edges and on one of 57 K alike, growing only
// with the logarithm of the hubs' degree. And a batch allocates nothing
// that scales with anything — an insert-only batch nothing at all (edit
// log and pending index grow amortized), a batch with removals no more
// than a handful.
func TestRemovalCostIndependentOfEdgeCount(t *testing.T) {
	var means []float64
	for _, scale := range []gen.Scale{gen.Tiny, gen.Small} {
		g, err := gen.Generate(gen.MustDataset("lj", scale))
		if err != nil {
			t.Fatal(err)
		}
		d := FromGraph(g)
		edges := g.Edges()
		r := rng.New(1)
		total, worst, folds := 0, 0, 0
		const lookups = 4096
		for i := 0; i < lookups; i++ {
			// One churn step, as in BenchmarkApplyRemove: lookups see the
			// CSR and a pending index of every size up to the retention
			// bound, where the edits are folded.
			e := edges[r.Intn(len(edges))]
			p := probes(d, e.Src, e.Dst)
			total += p
			worst = max(worst, p)
			seq := d.csrSeq
			if err := d.Apply([]Update{{Remove: true, Edge: e}, {Edge: e}}); err != nil {
				t.Fatal(err)
			}
			if d.csrSeq != seq {
				folds++
			}
		}
		mean := float64(total) / lookups
		t.Logf("lj/%v: %d edges, %.2f entries per lookup (worst %d), %d folds", scale, d.NumEdges(), mean, worst, folds)
		// Two searches over a hub's list and one over a bucket of parallel
		// edges come to ~14 entries on lj; a bucket's pending edits, which
		// a fold clears, add the rest.
		if mean > 16 || worst > 64 {
			t.Errorf("lj/%v: a lookup examines %.2f entries on average (worst %d), want <= 16 (64)", scale, mean, worst)
		}
		if folds == 0 {
			t.Errorf("lj/%v: %d edits never passed the retention bound", scale, 2*lookups)
		}
		means = append(means, mean)
	}
	if diff := means[1] - means[0]; diff > 1 {
		t.Errorf("entries per lookup grew by %.2f with 10x the edges", diff)
	}
	// Pending edits are summed per weight: a bucket of one instance churned
	// 4096 times in one batch holds one pending weight, not 8192 edits.
	churned := FromGraph(base(t))
	churned.logRetain = 1 << 20 // no fold
	var e graph.Edge
	for _, e = range churned.csr.Edges() {
		if churned.Count(e.Src, e.Dst) == 1 {
			break
		}
	}
	churn := make([]Update, 0, 8192)
	for range 4096 {
		churn = append(churn, Update{Remove: true, Edge: e}, Update{Edge: e})
	}
	if err := churned.Apply(churn); err != nil {
		t.Fatal(err)
	}
	if churned.csrSeq != 0 {
		t.Fatal("the churn was folded")
	}
	if p, want := probes(churned, e.Src, e.Dst), probes(FromGraph(churned.csr), e.Src, e.Dst)+1; p > want {
		t.Errorf("after 4096 churns of one edge a lookup examines %d entries, want <= %d", p, want)
	}

	if raceEnabled {
		return // the detector's own allocations are counted
	}
	g, err := gen.Generate(gen.MustDataset("lj", gen.Small))
	if err != nil {
		t.Fatal(err)
	}
	d := FromGraph(g)
	edges := g.Edges()
	r := rng.New(2)
	n := d.NumVertices()
	batch := make([]Update, 16)
	if got := testing.AllocsPerRun(200, func() {
		for j := range batch {
			batch[j] = Update{Edge: graph.Edge{Src: graph.VertexID(r.Intn(n)), Dst: graph.VertexID(r.Intn(n)), Weight: 1}}
		}
		if err := d.Apply(batch); err != nil {
			t.Fatal(err)
		}
	}); got != 0 {
		t.Errorf("an insert-only batch allocates %v times, want 0", got)
	}
	if got := testing.AllocsPerRun(200, func() {
		for j := 0; j < len(batch); j += 2 {
			e := edges[r.Intn(len(edges))]
			batch[j], batch[j+1] = Update{Remove: true, Edge: e}, Update{Edge: e}
		}
		if err := d.Apply(batch); err != nil {
			t.Fatal(err)
		}
	}); got > 5 {
		t.Errorf("a 16-update batch with removals allocates %v times, want <= 5", got)
	}
}

// TestRecoveredGraphRemovesLikeLive pins what crash recovery relies on: a
// graph started from another's snapshot (a checkpoint) and fed the same
// batches ends equal to it, weights included. Which instance of a
// duplicate (src, dst) a removal takes must therefore be a function of
// the edge multiset, not of the order the instances arrived in.
func TestRecoveredGraphRemovesLikeLive(t *testing.T) {
	d := FromGraph(base(t))
	// Self-loops are absent from lj, so each bucket holds only these.
	if err := d.Apply([]Update{
		{Edge: graph.Edge{Src: 5, Dst: 5, Weight: 9}},
		{Edge: graph.Edge{Src: 5, Dst: 5, Weight: 5}},
		{Edge: graph.Edge{Src: 6, Dst: 6, Weight: 2}},
		{Edge: graph.Edge{Src: 6, Dst: 6, Weight: 7}},
		{Edge: graph.Edge{Src: 6, Dst: 6, Weight: 4}},
	}); err != nil {
		t.Fatal(err)
	}
	rec := FromGraph(mustSnapshot(t, d))
	for i, batch := range [][]Update{
		{{Remove: true, Edge: graph.Edge{Src: 5, Dst: 5}}},
		{{Remove: true, Edge: graph.Edge{Src: 6, Dst: 6}}, {Edge: graph.Edge{Src: 6, Dst: 6, Weight: 1}}},
		{{Remove: true, Edge: graph.Edge{Src: 6, Dst: 6}}},
	} {
		if err := d.Apply(batch); err != nil {
			t.Fatal(err)
		}
		if err := rec.Apply(batch); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(csrBytes(t, mustSnapshot(t, d)), csrBytes(t, mustSnapshot(t, rec))) {
			t.Fatalf("batch %d: the recovered graph diverged from the live one", i)
		}
	}
	// Both took the heaviest instance each time.
	var left []graph.Edge
	for _, e := range mustSnapshot(t, d).Edges() {
		if e.Src == e.Dst && (e.Src == 5 || e.Src == 6) {
			left = append(left, e)
		}
	}
	want := []graph.Edge{{Src: 5, Dst: 5, Weight: 5}, {Src: 6, Dst: 6, Weight: 1}, {Src: 6, Dst: 6, Weight: 2}}
	if !slices.Equal(left, want) {
		t.Errorf("duplicates left %v, want %v", left, want)
	}
}

// TestFirstWriteAfterSeedPatches follows graphd's mutable build on
// sd/tiny: the build reorders the generated graph with DBG and seeds the
// Reorderer with that view, which the dynamic graph adopts as its CSR in
// place of the generated graph. The first write patches the seeded view:
// no CSR is built, and the view equals the relabel of the snapshot.
func TestFirstWriteAfterSeedPatches(t *testing.T) {
	g, err := gen.Generate(gen.MustDataset("sd", gen.Tiny))
	if err != nil {
		t.Fatal(err)
	}
	d := FromGraph(g)
	res, err := reorder.PlanOf(reorder.NewDBG()).Apply(g, graph.OutDegree)
	if err != nil {
		t.Fatal(err)
	}
	r := NewReorderer(reorder.NewDBG(), graph.OutDegree, Policy{Every: 8})
	r.Seed(d, res.Graph, res.Perm)
	if d.csr != res.Graph {
		t.Fatal("Seed did not hand the dynamic graph the build's view")
	}
	if err := d.Apply([]Update{
		{Edge: graph.Edge{Src: 0, Dst: 1, Weight: 3}},
		{Remove: true, Edge: g.Edges()[0]},
	}); err != nil {
		t.Fatal(err)
	}
	view, perm, err := r.View(d)
	if err != nil {
		t.Fatal(err)
	}
	if r.Patches != 1 || r.Refreshes != 1 || d.builds != 0 || d.csr != view {
		t.Fatalf("first write: %d patches, %d refreshes, %d CSR builds, view held %v; want 1, 1, 0, true",
			r.Patches, r.Refreshes, d.builds, d.csr == view)
	}
	want, err := mustSnapshot(t, d).RelabelWorkers(perm, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(csrBytes(t, view), csrBytes(t, want)) {
		t.Fatal("the patched view differs from the snapshot relabeled")
	}
	if d.builds != 0 {
		t.Fatalf("Snapshot built the CSR (%d builds) instead of folding the edits", d.builds)
	}
}

// TestSeedOfARebuiltGraphRelabels: a graph FromGraph had to put in
// canonical order cannot adopt a view of its argument, whose lists are
// out of order, so Seed relabels the CSR FromGraph built instead; the
// first View after a write patches that, and still equals the snapshot
// relabeled.
func TestSeedOfARebuiltGraphRelabels(t *testing.T) {
	g := base(t)
	edges := g.Edges()
	slices.Reverse(edges)
	foreign, err := graph.BuildWith(edges, graph.BuildOptions{NumVertices: g.NumVertices(), Weighted: true})
	if err != nil {
		t.Fatal(err)
	}
	d := FromGraph(foreign)
	if !d.rebuilt || d.builds != 1 {
		t.Fatalf("FromGraph adopted a graph with unsorted lists (rebuilt %v, %d builds)", d.rebuilt, d.builds)
	}
	res, err := reorder.PlanOf(reorder.NewDBG()).Apply(foreign, graph.OutDegree)
	if err != nil {
		t.Fatal(err)
	}
	r := NewReorderer(reorder.NewDBG(), graph.OutDegree, Policy{Every: 8})
	r.Seed(d, res.Graph, res.Perm)
	if err := d.Apply([]Update{{Edge: graph.Edge{Src: 0, Dst: 1, Weight: 3}}}); err != nil {
		t.Fatal(err)
	}
	view, perm, err := r.View(d)
	if err != nil {
		t.Fatal(err)
	}
	if r.Patches != 1 || r.Refreshes != 1 || d.builds != 1 {
		t.Fatalf("%d patches, %d refreshes, %d CSR builds; want 1, 1, 1", r.Patches, r.Refreshes, d.builds)
	}
	want, err := mustSnapshot(t, d).RelabelWorkers(perm, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(csrBytes(t, view), csrBytes(t, want)) {
		t.Fatal("the view differs from the snapshot relabeled")
	}
}

// recording is a structure-based technique, RandomVertex, that keeps
// every graph it is asked to order.
type recording struct {
	reorder.RandomVertex
	seen *[]*graph.Graph
}

func (t recording) Permute(g *graph.Graph, kind graph.DegreeKind) (reorder.Permutation, error) {
	*t.seen = append(*t.seen, g)
	return t.RandomVertex.Permute(g, kind)
}

// TestRefreshHandsOverTheSnapshot: a refresh whose plan reads more than
// degrees plans from the original-order snapshot, which it exports once
// and the graph does not keep: the graph holds that snapshot relabeled
// by the new permutation, the plan's permutation of it.
func TestRefreshHandsOverTheSnapshot(t *testing.T) {
	var seen []*graph.Graph
	tech := recording{RandomVertex: reorder.RandomVertex{Seed: 7}, seen: &seen}
	d := FromGraph(base(t))
	r := NewReorderer(tech, graph.OutDegree, Policy{})
	if _, _, err := r.View(d); err != nil {
		t.Fatal(err)
	}
	if err := d.Apply([]Update{{Edge: graph.Edge{Src: 3, Dst: 4, Weight: 2}}}); err != nil {
		t.Fatal(err)
	}
	want := csrBytes(t, mustSnapshot(t, d))
	seen = nil
	if err := r.Refresh(d); err != nil {
		t.Fatal(err)
	}
	if len(seen) != 1 || !bytes.Equal(csrBytes(t, seen[0]), want) || d.csr == seen[0] {
		t.Fatalf("the plan saw %d graphs; want the snapshot once, not kept as the CSR", len(seen))
	}
	view, perm, err := r.View(d)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := reorder.PlanOf(tech.RandomVertex).Permute(seen[0], graph.OutDegree)
	if err != nil {
		t.Fatal(err)
	}
	relabeled, err := seen[0].Relabel(perm)
	if err != nil {
		t.Fatal(err)
	}
	if r.Refreshes != 2 || r.Advice != nil || !slices.Equal(perm, plan) || !bytes.Equal(csrBytes(t, view), csrBytes(t, relabeled)) {
		t.Fatal("the refresh did not install the plan's ordering of the snapshot it handed over")
	}
}
