package ligra

import (
	"reflect"
	"sort"
	"testing"

	"graphreorder/internal/csrz"
	"graphreorder/internal/gen"
	"graphreorder/internal/graph"
	"graphreorder/internal/rng"
)

// testWorkers are the worker counts differential tests sweep. Counts
// beyond GOMAXPROCS still exercise the parallel structure (goroutines
// interleave on fewer cores), which is exactly what the race detector
// needs to see.
var testWorkers = []int{2, 3, 4, 8}

func skewedGraph(t testing.TB, weighted bool) *graph.Graph {
	t.Helper()
	g, err := gen.Generate(gen.MustDataset("sd", gen.Tiny))
	if err != nil {
		t.Fatal(err)
	}
	if !weighted {
		return g
	}
	r := rng.NewStream(0xBEEF, 1)
	edges := g.Edges()
	for i := range edges {
		edges[i].Weight = uint32(1 + r.Intn(64))
	}
	wg, err := graph.BuildWith(edges, graph.BuildOptions{
		NumVertices: g.NumVertices(), Weighted: true, SortNeighbors: false})
	if err != nil {
		t.Fatal(err)
	}
	return wg
}

func sortedMembers(s *VertexSet) []graph.VertexID {
	out := append([]graph.VertexID(nil), s.Members()...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// degreeFns returns side-effect-free EdgeMap callbacks (return-value logic
// only), so sequential and parallel invocations are trivially comparable.
func degreeFns(g *graph.Graph, withCond bool) EdgeMapFns {
	fns := EdgeMapFns{
		// Activate destinations whose ID has a given parity; idempotent and
		// state-free, safe under any concurrency.
		Update: func(_, dst graph.VertexID) bool { return dst%2 == 0 },
	}
	if withCond {
		fns.Cond = func(dst graph.VertexID) bool { return dst%3 != 0 }
	}
	return fns
}

// TestEdgeMapPullParallelBitIdentical is the core determinism claim: pull
// mode partitions destinations into chunks, so the parallel output bitmap
// must equal the sequential one bit for bit, for every worker count, with
// and without Cond.
func TestEdgeMapPullParallelBitIdentical(t *testing.T) {
	g := skewedGraph(t, false)
	for _, withCond := range []bool{false, true} {
		fns := degreeFns(g, withCond)
		frontier := FullVertexSet(g.NumVertices())
		seq := EdgeMap(g, frontier, fns, EdgeMapOpts{Dir: Pull})
		for _, w := range testWorkers {
			parOut := EdgeMap(g, frontier, fns, EdgeMapOpts{Dir: Pull, Workers: w})
			if !parOut.isDense || !seq.isDense {
				t.Fatalf("pull outputs not dense (cond=%v workers=%d)", withCond, w)
			}
			if !seq.dense.Equal(parOut.dense) {
				t.Errorf("cond=%v workers=%d: pull output bitmap differs from sequential", withCond, w)
			}
			if seq.Len() != parOut.Len() {
				t.Errorf("cond=%v workers=%d: Len %d != %d", withCond, w, parOut.Len(), seq.Len())
			}
			parOut.Release()
		}
	}
}

// TestEdgeMapPushParallelSameSet checks the push contract: the output is
// the same *set* as sequential push (member order may differ), across
// sparse/dense inputs, Cond, and weighted updates.
func TestEdgeMapPushParallelSameSet(t *testing.T) {
	for _, weighted := range []bool{false, true} {
		g := skewedGraph(t, weighted)
		n := g.NumVertices()
		r := rng.NewStream(42, 9)
		var members []graph.VertexID
		seen := make(map[graph.VertexID]bool)
		for len(members) < n/8 {
			v := graph.VertexID(r.Intn(n))
			if !seen[v] {
				seen[v] = true
				members = append(members, v)
			}
		}
		for _, withCond := range []bool{false, true} {
			fns := degreeFns(g, withCond)
			if weighted {
				// Weights reach a list callback only, aligned with the list.
				cond := fns.Cond
				fns.Weights = true
				fns.PushList = func(_ graph.VertexID, dsts []graph.VertexID, ws graph.WeightList, hits []graph.VertexID) []graph.VertexID {
					for i, w := range ws.Append(nil) {
						if (uint32(dsts[i])+w)%2 == 0 && (cond == nil || cond(dsts[i])) {
							hits = append(hits, dsts[i])
						}
					}
					return hits
				}
			}
			frontier := NewVertexSet(n, members...)
			want := sortedMembers(EdgeMap(g, frontier, fns, EdgeMapOpts{Dir: Push}))
			for _, w := range testWorkers {
				got := sortedMembers(EdgeMap(g, frontier, fns, EdgeMapOpts{Dir: Push, Workers: w}))
				if !reflect.DeepEqual(got, want) {
					t.Errorf("weighted=%v cond=%v workers=%d: push output set differs (%d vs %d members)",
						weighted, withCond, w, len(got), len(want))
				}
			}
		}
	}
}

// TestEdgeMapParallelBFS runs a full BFS with shared mutable state through
// the parallel engine (claims via the update function's own CAS-free
// idempotent logic would race, so it uses the frontier output only) and
// checks reachability matches the sequential BFS.
func TestEdgeMapParallelBFS(t *testing.T) {
	g := skewedGraph(t, false)
	n := g.NumVertices()
	root := graph.VertexID(0)
	for v := 0; v < n; v++ {
		if g.OutDegree(graph.VertexID(v)) > 5 {
			root = graph.VertexID(v)
			break
		}
	}
	reach := func(workers int) []bool {
		visited := NewBitset(n)
		visited.Set(root)
		frontier := NewVertexSet(n, root)
		for !frontier.Empty() {
			next := EdgeMap(g, frontier, EdgeMapFns{
				// TrySetAtomic both claims and deduplicates: safe at any
				// worker count, and exactly one updater activates each dst.
				Update: func(_, dst graph.VertexID) bool { return visited.TrySetAtomic(dst) },
			}, EdgeMapOpts{Workers: workers})
			frontier.Release()
			frontier = next
		}
		return visited.ToBools(n)
	}
	want := reach(1)
	for _, w := range testWorkers {
		if got := reach(w); !reflect.DeepEqual(got, want) {
			t.Errorf("workers=%d: BFS reachability differs from sequential", w)
		}
	}
}

func TestVertexMapParMatchesSequential(t *testing.T) {
	g := skewedGraph(t, false)
	n := g.NumVertices()
	f := func(v graph.VertexID) bool { return g.OutDegree(v) > 2 }
	t.Run("dense", func(t *testing.T) {
		in := FullVertexSet(n)
		want := VertexMap(in, f)
		for _, w := range testWorkers {
			got := VertexMapPar(in, f, w)
			if !want.dense.Equal(got.dense) || want.Len() != got.Len() {
				t.Errorf("workers=%d: dense VertexMap differs", w)
			}
			got.Release()
		}
	})
	t.Run("sparse", func(t *testing.T) {
		var members []graph.VertexID
		for v := 0; v < n; v += 3 {
			members = append(members, graph.VertexID(v))
		}
		in := NewVertexSet(n, members...)
		want := VertexMap(in, f).Members()
		for _, w := range testWorkers {
			got := VertexMapPar(in, f, w)
			// Sparse parallel VertexMap preserves input order exactly
			// (chunk-ordered concatenation), so no sorting before compare.
			if !reflect.DeepEqual(append([]graph.VertexID(nil), got.Members()...), append([]graph.VertexID(nil), want...)) {
				t.Errorf("workers=%d: sparse VertexMap differs", w)
			}
			got.Release()
		}
	})
}

func TestComputeOutEdgesCachesZero(t *testing.T) {
	// A frontier of sinks has out-edge sum 0; the old "outEdges != 0"
	// sentinel recomputed it on every call. The valid flag must cache it.
	var edges []graph.Edge
	for v := 1; v < 10; v++ {
		edges = append(edges, graph.Edge{Src: graph.VertexID(v), Dst: 0})
	}
	g, err := graph.Build(edges)
	if err != nil {
		t.Fatal(err)
	}
	s := NewVertexSet(g.NumVertices(), 0) // vertex 0 is a pure sink
	if got := s.computeOutEdges(g, 1); got != 0 {
		t.Fatalf("sink out-edge sum = %d, want 0", got)
	}
	if !s.outEdgesValid {
		t.Error("zero out-edge sum not cached")
	}
	// Parallel and sequential sums agree on a dense set.
	full := FullVertexSet(g.NumVertices())
	seqSum := full.computeOutEdges(g, 1)
	full2 := FullVertexSet(g.NumVertices())
	if parSum := full2.computeOutEdges(g, 4); parSum != seqSum {
		t.Errorf("parallel out-edge sum %d != sequential %d", parSum, seqSum)
	}
}

func TestSparseHasUsesLookup(t *testing.T) {
	members := make([]graph.VertexID, 0, 100)
	for v := 0; v < 200; v += 2 {
		members = append(members, graph.VertexID(v))
	}
	s := NewVertexSet(1000, members...)
	for v := 0; v < 220; v++ {
		want := v < 200 && v%2 == 0
		if got := s.Has(graph.VertexID(v)); got != want {
			t.Fatalf("Has(%d) = %v, want %v", v, got, want)
		}
	}
	if !s.lookupValid {
		t.Error("large sparse set did not build its lookup bitmap")
	}
	// Small sets stay on the linear path (no bitmap allocation).
	small := NewVertexSet(1000, 1, 2, 3)
	if !small.Has(2) || small.Has(4) {
		t.Error("small-set Has wrong")
	}
	if small.lookupValid {
		t.Error("small sparse set built a lookup bitmap needlessly")
	}
}

// TestEdgeMapSteadyStateZeroAlloc proves the scratch pool claim: once the
// pool is warm, one-worker EdgeMap iterations allocate nothing in either
// direction when the caller releases the sets it is done with — through
// the per-edge adapter and through list callbacks alike (the adapter is a
// value on the kernel's stack, and a push callback's hits go into the
// output buffer the round already owns), on the plain backend and on the
// compressed one, whose decode buffers are pooled too. The weighted row
// is SSSP's shape: a push that asks for its lists' weights, which the
// compressed backend decodes into the pooled buffer's weight slice.
func TestEdgeMapSteadyStateZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; exact counts only hold without -race")
	}
	plain := skewedGraph(t, true)
	n := plain.NumVertices()
	callbacks := map[string]EdgeMapFns{
		"per-edge": {Update: func(_, dst graph.VertexID) bool { return dst%2 == 0 }},
		"list": {
			PullList: func(dst graph.VertexID, srcs []graph.VertexID) bool { return dst%2 == 0 && len(srcs) > 0 },
			PushList: func(_ graph.VertexID, dsts []graph.VertexID, _ graph.WeightList, hits []graph.VertexID) []graph.VertexID {
				for _, dst := range dsts {
					if dst%2 == 0 {
						hits = append(hits, dst)
					}
				}
				return hits
			},
		},
		"weighted-push": {
			Weights: true,
			PushList: func(_ graph.VertexID, dsts []graph.VertexID, ws graph.WeightList, hits []graph.VertexID) []graph.VertexID {
				// Read in place: the low byte of a little-endian weight
				// carries its parity.
				for i, dst := range dsts {
					if (uint32(dst)+uint32(ws.Bytes[i*ws.Width]))%2 == 0 {
						hits = append(hits, dst)
					}
				}
				return hits
			},
		},
	}
	for name, g := range map[string]graph.View{"plain": plain, "csrz": csrz.Encode(plain)} {
		for kind, fns := range callbacks {
			for _, round := range []struct {
				dir      Direction
				frontier *VertexSet
			}{{Push, benchPushFrontier(n)}, {Pull, FullVertexSet(n)}} {
				if round.dir == Pull && fns.PullList == nil && fns.Update == nil {
					continue // a push-only row
				}
				opts := EdgeMapOpts{Dir: round.dir}
				warm := EdgeMap(g, round.frontier, fns, opts)
				if warm.Len() < 64 {
					t.Fatalf("%s/%s direction %d: %d members out, too few to grow a buffer", name, kind, round.dir, warm.Len())
				}
				warm.Release()
				allocs := testing.AllocsPerRun(20, func() {
					EdgeMap(g, round.frontier, fns, opts).Release()
				})
				if allocs > 0 {
					t.Errorf("%s/%s: steady-state EdgeMap (direction %d) allocates %.1f objects/op, want 0", name, kind, round.dir, allocs)
				}
			}
		}
	}
}

func TestReleaseReuse(t *testing.T) {
	// A released set must come back from the pool fully reset.
	s := newPooledSparse(10)
	s.sparse = append(s.sparse, 1, 2, 3)
	s.count = 3
	s.computeOutEdgesStub()
	s.Release()
	r := newPooledSparse(20)
	if r.count != 0 || len(r.sparse) != 0 || r.outEdgesValid || r.lookupValid || r.n != 20 {
		t.Errorf("pooled set not reset: %+v", r)
	}
	r.Release()
}

// computeOutEdgesStub marks the cache valid without a graph, emulating a
// set that has been through the direction heuristic.
func (s *VertexSet) computeOutEdgesStub() { s.outEdges = 99; s.outEdgesValid = true }
