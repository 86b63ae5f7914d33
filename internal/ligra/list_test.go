package ligra

import (
	"fmt"
	"reflect"
	"sync/atomic"
	"testing"

	"graphreorder/internal/csrz"
	"graphreorder/internal/graph"
	"graphreorder/internal/rng"
)

// randomGraph builds a small multigraph with self-loops, parallel edges
// and isolated vertices, its lists left in edge-list order.
func randomGraph(t *testing.T, r *rng.Rand) *graph.Graph {
	t.Helper()
	n := 1 + r.Intn(200)
	edges := make([]graph.Edge, r.Intn(6*n))
	for i := range edges {
		// Squaring skews the endpoints towards low IDs: some long lists.
		u, v := r.Intn(n), r.Intn(n)
		edges[i] = graph.Edge{Src: graph.VertexID(u * u / n), Dst: graph.VertexID(v * v / n)}
	}
	g, err := graph.BuildWith(edges, graph.BuildOptions{NumVertices: n})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// randomFrontier draws a subset of [0, n) in either representation.
func randomFrontier(r *rng.Rand, n int) *VertexSet {
	keep := r.Float64()
	bitmap := make([]bool, n)
	var members []graph.VertexID
	for v := range bitmap {
		if r.Float64() < keep {
			bitmap[v] = true
			members = append(members, graph.VertexID(v))
		}
	}
	if r.Intn(2) == 0 {
		return NewDenseVertexSet(bitmap)
	}
	return NewVertexSet(n, members...)
}

// listCase is one per-edge function with the list callbacks that are
// meant to compute the same thing, over property arrays the test owns.
type listCase struct {
	name    string
	perEdge func(g graph.View, acc []uint64, mark []int32) EdgeMapFns
	asLists func(g graph.View, frontier *VertexSet, acc []uint64, mark []int32) EdgeMapFns
	// pullOnly cases update plain state that only a destination's owner
	// may write.
	pullOnly bool
}

func edgeTerm(src, dst graph.VertexID) uint64 { return uint64(src+1)*3 ^ uint64(dst) }

func edgeHits(src, dst graph.VertexID) bool { return (uint32(src)+uint32(dst))%3 == 0 }

func skipFifths(dst graph.VertexID) bool { return dst%5 != 0 }

var listCases = []listCase{
	{
		// Nothing but an update: no Cond.
		name: "plain",
		perEdge: func(g graph.View, acc []uint64, _ []int32) EdgeMapFns {
			return EdgeMapFns{Update: func(src, dst graph.VertexID) bool {
				atomic.AddUint64(&acc[dst], edgeTerm(src, dst))
				return edgeHits(src, dst)
			}}
		},
		asLists: func(g graph.View, frontier *VertexSet, acc []uint64, _ []int32) EdgeMapFns {
			inFrontier := frontier.Bits()
			return EdgeMapFns{
				PullList: func(dst graph.VertexID, srcs []graph.VertexID) bool {
					joined := false
					for _, src := range srcs {
						if inFrontier.Has(src) {
							acc[dst] += edgeTerm(src, dst)
							joined = joined || edgeHits(src, dst)
						}
					}
					return joined
				},
				PushList: func(src graph.VertexID, dsts []graph.VertexID, _ graph.WeightList, hits []graph.VertexID) []graph.VertexID {
					for _, dst := range dsts {
						atomic.AddUint64(&acc[dst], edgeTerm(src, dst))
						if edgeHits(src, dst) {
							hits = append(hits, dst)
						}
					}
					return hits
				},
			}
		},
	},
	{
		// An order-independent accumulation (atomic integer adds) behind a
		// Cond that depends on dst alone.
		name: "accumulate",
		perEdge: func(g graph.View, acc []uint64, _ []int32) EdgeMapFns {
			return EdgeMapFns{Cond: skipFifths, Update: func(src, dst graph.VertexID) bool {
				atomic.AddUint64(&acc[dst], edgeTerm(src, dst))
				return edgeHits(src, dst)
			}}
		},
		asLists: func(g graph.View, frontier *VertexSet, acc []uint64, _ []int32) EdgeMapFns {
			inFrontier := frontier.Bits()
			return EdgeMapFns{
				Cond: skipFifths,
				PullList: func(dst graph.VertexID, srcs []graph.VertexID) bool {
					var sum uint64
					joined := false
					for _, src := range srcs {
						if inFrontier.Has(src) {
							sum += edgeTerm(src, dst)
							joined = joined || edgeHits(src, dst)
						}
					}
					acc[dst] += sum
					return joined
				},
				PushList: func(src graph.VertexID, dsts []graph.VertexID, _ graph.WeightList, hits []graph.VertexID) []graph.VertexID {
					for _, dst := range dsts {
						if !skipFifths(dst) {
							continue
						}
						atomic.AddUint64(&acc[dst], edgeTerm(src, dst))
						if edgeHits(src, dst) {
							hits = append(hits, dst)
						}
					}
					return hits
				},
			}
		},
	},
	{
		// BFS parent claiming: Cond reads what the update writes, so the
		// per-edge adapter must stop scanning a destination at its first
		// frontier in-neighbor, and count how far it got.
		name:     "first-parent",
		pullOnly: true,
		perEdge: func(g graph.View, acc []uint64, mark []int32) EdgeMapFns {
			return EdgeMapFns{
				Cond: func(dst graph.VertexID) bool { return mark[dst] < 0 },
				Update: func(src, dst graph.VertexID) bool {
					acc[dst]++
					mark[dst] = int32(src)
					return true
				},
			}
		},
		asLists: func(g graph.View, frontier *VertexSet, acc []uint64, mark []int32) EdgeMapFns {
			inFrontier := frontier.Bits()
			return EdgeMapFns{
				Cond: func(dst graph.VertexID) bool { return mark[dst] < 0 },
				PullList: func(dst graph.VertexID, srcs []graph.VertexID) bool {
					for _, src := range srcs {
						if inFrontier.Has(src) {
							acc[dst]++
							mark[dst] = int32(src)
							return true
						}
					}
					return false
				},
			}
		},
	},
}

// TestListCallbacksMatchPerEdgeAdapter is the engine's differential test:
// on random graphs and frontiers, in both directions, on the plain and
// the compressed backend, at 1, 2 and 4 workers, a list callback and the
// per-edge adapter around the equivalent per-edge function must leave the
// same property arrays and return the same set.
func TestListCallbacksMatchPerEdgeAdapter(t *testing.T) {
	r := rng.NewStream(0x115, 20)
	for trial := 0; trial < 60; trial++ {
		plain := randomGraph(t, r)
		n := plain.NumVertices()
		frontier := randomFrontier(r, n)
		backends := map[string]graph.View{"plain": plain, "csrz": csrz.Encode(plain)}
		for _, c := range listCases {
			for _, dir := range []Direction{Pull, Push} {
				if c.pullOnly && dir == Push {
					continue
				}
				run := func(g graph.View, lists bool, workers int) ([]graph.VertexID, []uint64, []int32) {
					acc := make([]uint64, n)
					mark := make([]int32, n)
					for v := range mark {
						mark[v] = -1 - int32(v%2) // every other vertex starts claimed
						if v%4 == 0 {
							mark[v] = int32(v)
						}
					}
					fns := c.perEdge(g, acc, mark)
					if lists {
						fns = c.asLists(g, frontier, acc, mark)
					}
					out := EdgeMap(g, frontier, fns, EdgeMapOpts{Dir: dir, Workers: workers})
					return sortedMembers(out), acc, mark
				}
				wantSet, wantAcc, wantMark := run(plain, false, 1)
				for name, g := range backends {
					for _, lists := range []bool{false, true} {
						for _, workers := range []int{1, 2, 4} {
							set, acc, mark := run(g, lists, workers)
							id := fmt.Sprintf("trial %d (n=%d m=%d) %s dir %d %s lists=%v workers=%d",
								trial, n, plain.NumEdges(), c.name, dir, name, lists, workers)
							if !reflect.DeepEqual(set, wantSet) {
								t.Fatalf("%s: output set %v, per-edge on plain at one worker %v", id, set, wantSet)
							}
							if !reflect.DeepEqual(acc, wantAcc) || !reflect.DeepEqual(mark, wantMark) {
								t.Fatalf("%s: property arrays differ from per-edge on plain at one worker", id)
							}
						}
					}
				}
			}
		}
	}
}

// TestPushListDuplicateHitsKeptOnce: a push callback may report a
// destination any number of times, in one call or across calls and
// workers; the output holds it once, in first-hit order at one worker.
func TestPushListDuplicateHitsKeptOnce(t *testing.T) {
	g := skewedGraph(t, false)
	n := g.NumVertices()
	frontier := FullVertexSet(n)
	fns := EdgeMapFns{PushList: func(_ graph.VertexID, dsts []graph.VertexID, _ graph.WeightList, hits []graph.VertexID) []graph.VertexID {
		hits = append(hits, dsts...)
		return append(hits, dsts...)
	}}
	var want []graph.VertexID
	seen := NewBitset(n)
	for v := 0; v < n; v++ {
		for _, dst := range g.OutNeighbors(graph.VertexID(v)) {
			if !seen.Has(dst) {
				seen.Set(dst)
				want = append(want, dst)
			}
		}
	}
	out := EdgeMap(g, frontier, fns, EdgeMapOpts{Dir: Push})
	if got := out.Members(); !reflect.DeepEqual(got, want) {
		t.Errorf("one worker: %d members, want the %d distinct destinations in first-hit order", len(got), len(want))
	}
	for _, w := range testWorkers {
		out := EdgeMap(g, frontier, fns, EdgeMapOpts{Dir: Push, Workers: w})
		if got := sortedMembers(out); len(got) != len(want) || !reflect.DeepEqual(got, sortedMembers(NewVertexSet(n, want...))) {
			t.Errorf("workers=%d: %d members, want the %d distinct destinations", w, len(got), len(want))
		}
	}
}
