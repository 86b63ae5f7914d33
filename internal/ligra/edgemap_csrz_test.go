package ligra

import (
	"path/filepath"
	"reflect"
	"runtime"
	"sort"
	"sync"
	"testing"

	"graphreorder/internal/csrz"
	"graphreorder/internal/gen"
	"graphreorder/internal/graph"
)

// wrappedView is a View that is neither *graph.Graph nor *csrz.Graph.
// Embedding the interface (not the *graph.Graph behind it) promotes the
// View methods only, so the engine finds neither a NeighborStreamer nor
// an in-edge index and parallel pull takes its even-chunk split.
type wrappedView struct{ graph.View }

// visitLog is a Tracer that records, in order, every vertex a traversal
// visits (edge false, src == dst) and every edge it examines.
type visitLog []visit

type visit struct {
	src, dst   graph.VertexID
	edge, pull bool
}

func (l *visitLog) VertexVisited(v graph.VertexID, pull bool) {
	*l = append(*l, visit{v, v, false, pull})
}

func (l *visitLog) EdgeExamined(src, dst graph.VertexID, pull bool) {
	*l = append(*l, visit{src, dst, true, pull})
}

// TestEdgeMapCompressedPushPullParity pins the backend contract: the one
// pair of kernels must produce the same frontier whatever feeds it
// neighbor lists — the plain CSR, a compressed graph (heap-backed and
// memory-mapped forms of one snapshot must be indistinguishable) or a
// View of some other concrete type — in every direction, sequential and
// parallel, and a tracer must see the same visits and edges in the same
// order on the compressed backend as on the plain one.
func TestEdgeMapCompressedPushPullParity(t *testing.T) {
	g, err := gen.Generate(gen.MustDataset("wl", gen.Tiny))
	if err != nil {
		t.Fatal(err)
	}
	cz := csrz.Encode(g)
	path := filepath.Join(t.TempDir(), "wl.csrz")
	if err := cz.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	mapped, err := csrz.OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer mapped.Close()

	root := graph.VertexID(0)
	for v := 0; v < g.NumVertices(); v++ {
		if g.OutDegree(graph.VertexID(v)) > 5 {
			root = graph.VertexID(v)
			break
		}
	}
	want := bfsLevels(g, root, Auto)
	backends := map[string]graph.View{"csrz-heap": cz, "csrz-mmap": mapped, "wrapped": wrappedView{g}}
	for _, dir := range []Direction{Push, Pull, Auto} {
		for name, backend := range backends {
			if got := bfsLevels(backend, root, dir); !reflect.DeepEqual(got, want) {
				t.Errorf("%s direction %d: BFS levels diverge from plain", name, dir)
			}
		}
	}

	n := g.NumVertices()
	fns := EdgeMapFns{Update: func(_, dst graph.VertexID) bool { return dst%3 == 0 }}
	for _, dir := range []Direction{Push, Pull} {
		for _, workers := range []int{1, runtime.GOMAXPROCS(0), 4} {
			round := func(backend graph.View) []graph.VertexID {
				out := EdgeMap(backend, NewVertexSet(n, root, root+1), fns, EdgeMapOpts{Dir: dir, Workers: workers})
				return sortedMembers(out)
			}
			if got, want := round(wrappedView{g}), round(g); !reflect.DeepEqual(got, want) {
				t.Errorf("wrapped direction %d workers %d: frontier diverges from plain", dir, workers)
			}
		}
		// Traced, a list-callback round shows every edge of every list it
		// hands over, in stored order, right after the list's vertex.
		trace := func(backend graph.View) visitLog {
			var log visitLog
			EdgeMap(backend, NewVertexSet(n, root, root+1), listFns, EdgeMapOpts{Dir: dir, Trace: &log})
			return log
		}
		var want visitLog
		if dir == Push {
			for _, u := range []graph.VertexID{root, root + 1} {
				want.VertexVisited(u, false)
				for _, v := range g.OutNeighbors(u) {
					want.EdgeExamined(u, v, false)
				}
			}
		} else {
			for v := graph.VertexID(0); int(v) < n; v++ {
				want.VertexVisited(v, true)
				for _, u := range g.InNeighbors(v) {
					want.EdgeExamined(u, v, true)
				}
			}
		}
		for name, backend := range map[string]graph.View{"plain": g, "csrz": cz} {
			if got := trace(backend); !reflect.DeepEqual(got, want) {
				t.Errorf("direction %d on %s: traced %d visits and edges, want the %d of the handed lists in order",
					dir, name, len(got), len(want))
			}
		}
	}
}

// listFns is a pair of list callbacks that read their lists and report
// nothing, so a traced round's log is the kernel's alone.
var listFns = EdgeMapFns{
	PullList: func(graph.VertexID, []graph.VertexID) bool { return false },
	PushList: func(_ graph.VertexID, _ []graph.VertexID, _ graph.WeightList, hits []graph.VertexID) []graph.VertexID {
		return hits
	},
}

// TestEdgeMapCompressedParallelMatchesSequential checks one round of
// parallel EdgeMap on the compressed backend against the sequential
// round, push and pull, with an Update that records exactly which edges
// fired. Membership of the output frontier must match; pull mode must
// also examine edges in identical per-destination order (it is the
// deterministic mode the applications' bit-identity rests on).
func TestEdgeMapCompressedParallelMatchesSequential(t *testing.T) {
	g, err := gen.Generate(gen.MustDataset("sd", gen.Tiny))
	if err != nil {
		t.Fatal(err)
	}
	cz := csrz.Encode(g)
	n := g.NumVertices()
	members := make([]graph.VertexID, 0, n/4)
	for v := 0; v < n; v += 4 {
		members = append(members, graph.VertexID(v))
	}
	for _, dir := range []Direction{Push, Pull} {
		run := func(workers int) []graph.VertexID {
			var mu sync.Mutex
			touched := make(map[graph.VertexID]bool)
			fns := EdgeMapFns{Update: func(_, dst graph.VertexID) bool {
				mu.Lock()
				touched[dst] = true
				mu.Unlock()
				return dst%3 == 0
			}}
			out := EdgeMap(cz, NewVertexSet(n, members...), fns, EdgeMapOpts{Dir: dir, Workers: workers})
			got := out.Members()
			res := make([]graph.VertexID, len(got))
			copy(res, got)
			sort.Slice(res, func(i, j int) bool { return res[i] < res[j] })
			return res
		}
		seq := run(1)
		par := run(runtime.GOMAXPROCS(0))
		if !reflect.DeepEqual(seq, par) {
			t.Errorf("direction %d: parallel frontier differs from sequential", dir)
		}
	}
}
