package cluster

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync"
	"testing"
	"time"

	"graphreorder"
	"graphreorder/internal/graph"
	"graphreorder/internal/server"
)

// withDetachedRegion returns g plus three vertices the rest of the graph
// cannot reach: n is isolated (a source with no out-edges), n+1 has the
// single edge n+1 → n+2. Returns the new graph and n.
func withDetachedRegion(t testing.TB, g *graph.Graph) (*graph.Graph, graph.VertexID) {
	t.Helper()
	n := graph.VertexID(g.NumVertices())
	edges := append(g.Edges(), graph.Edge{Src: n + 1, Dst: n + 2, Weight: 5})
	out, err := graph.BuildWith(edges, graph.BuildOptions{
		NumVertices: int(n) + 3, Weighted: true, SortNeighbors: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	return out, n
}

// TestClusterSSSPDifferential pins the frontier exchange to the engine:
// the router's full distance vector must equal Run(AppSSSP) on the
// unpartitioned graph for every vertex, whatever the shard count, the
// partitioner, the shards' vertex order or their backend.
func TestClusterSSSPDifferential(t *testing.T) {
	scales := []string{"tiny", "small"}
	if testing.Short() {
		scales = scales[:1]
	}
	// Two shard layouts cover both backends and both sides of the
	// kernel's ID translation (a permuted snapshot and an identity one).
	layouts := []struct{ backend, technique string }{
		{"plain", "dbg"},
		{"compressed", "original"},
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Minute)
	defer cancel()
	for _, dataset := range []string{"sd", "lj"} {
		for _, scale := range scales {
			g, n := withDetachedRegion(t, genGraph(t, dataset, scale))
			hub := graph.VertexID(0)
			for v := graph.VertexID(0); v < n; v++ {
				if g.OutDegree(v) > g.OutDegree(hub) {
					hub = v
				}
			}
			sources := []graph.VertexID{hub, n / 2, n, n + 1}
			want := make([][]int64, len(sources))
			for i, src := range sources {
				res, err := graphreorder.Run(ctx, g, graphreorder.AppSSSP,
					graphreorder.WithRoot(src), graphreorder.WithWorkers(1))
				if err != nil {
					t.Fatal(err)
				}
				want[i] = res.Distances()
			}
			for _, shards := range []int{2, 3, 4} {
				for _, strategy := range []string{"hash", "degree"} {
					cl := startCluster(t, g, LocalOptions{Shards: shards, Strategy: strategy, Technique: layouts[0].technique})
					for li, layout := range layouts {
						if li > 0 {
							specs := make([]server.BuildSpec, shards)
							for s := range specs {
								specs[s] = server.BuildSpec{
									Path: cl.Layout.GraphPaths[s], RanksPath: cl.Layout.RankPaths[s],
									Technique: layout.technique, Backend: layout.backend,
								}
							}
							if _, err := cl.Router.PublishEpoch(ctx, specs); err != nil {
								t.Fatal(err)
							}
						}
						name := fmt.Sprintf("%s/%s/%d-%s/%s-%s", dataset, scale, shards, strategy, layout.backend, layout.technique)
						es := cl.Router.epoch.Load()
						for i, src := range sources {
							got, err := cl.Router.sssp(ctx, es, src)
							if err != nil {
								t.Fatalf("%s src=%d: %v", name, src, err)
							}
							if got.Dist.Len() != len(want[i]) {
								t.Fatalf("%s src=%d: %d distances, want %d", name, src, got.Dist.Len(), len(want[i]))
							}
							for v := range want[i] {
								d, ok := got.Dist.At(v)
								if !ok {
									d = graphreorder.InfDistance
								}
								if d != want[i][v] {
									t.Fatalf("%s src=%d: dist[%d] = %d, engine says %d", name, src, v, d, want[i][v])
								}
							}
						}
					}
					cl.Close()
				}
			}
		}
	}
}

// TestClusterSSSPCoalesces pins the router's one read path: K concurrent
// cold requests for one key at one epoch cost the shards exactly one
// request's fan-out and all get the same bytes, asking again costs
// nothing, and the next epoch computes once of its own. The rows are an
// SSSP summary and then an SSSP target query, whose reference is runSSSP,
// the bare exchange (its shard calls depend only on the frontier
// sequence), each computing once, an in-neighbors read of the hub,
// which asks every shard, and a rank, which asks the owner.
func TestClusterSSSPCoalesces(t *testing.T) {
	g := genGraph(t, "sd", "tiny")
	cl := startCluster(t, g, LocalOptions{Shards: 2})
	rt := cl.Router
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	const callers = 8
	src := graph.VertexID(0)
	hub := graph.VertexID(0)
	for v := graph.VertexID(0); int(v) < g.NumVertices(); v++ {
		if g.InDegree(v) > g.InDegree(hub) {
			hub = v
		}
	}
	asked := func(f func()) uint64 {
		before := rt.fanouts.Load()
		f()
		return rt.fanouts.Load() - before
	}
	for epoch := 1; epoch <= 2; epoch++ {
		if epoch > 1 {
			if _, err := rt.PublishEpoch(ctx, layoutSpecs(cl)); err != nil {
				t.Fatal(err)
			}
		}
		es := rt.epoch.Load()
		var want []int64
		var wantRounds int
		exchange := asked(func() {
			var err error
			if want, wantRounds, err = rt.runSSSP(ctx, es, src); err != nil {
				t.Fatal(err)
			}
		})
		if exchange == 0 {
			t.Fatalf("epoch %d: the reference exchange asked no shard", epoch)
		}
		for _, row := range []struct {
			path   string
			fanout uint64
		}{
			{fmt.Sprintf("/v1/query/sssp?src=%d", src), exchange},
			// A summary caches no vector: the first target query computes it.
			{fmt.Sprintf("/v1/query/sssp?src=%d&target=1", src), exchange},
			{fmt.Sprintf("/v1/query/neighbors?v=%d&dir=in", hub), uint64(len(rt.slots))},
			{"/v1/query/rank?v=1", 1},
		} {
			bodies := make([][]byte, callers)
			got := asked(func() {
				start := make(chan struct{})
				var wg sync.WaitGroup
				for i := range callers {
					wg.Add(1)
					go func() {
						defer wg.Done()
						<-start
						code, _, body := httpRaw(t, cl.RouterURL+row.path)
						if code != http.StatusOK {
							t.Errorf("epoch %d %s: status %d: %s", epoch, row.path, code, body)
						}
						bodies[i] = body
					}()
				}
				close(start)
				wg.Wait()
			})
			if got != row.fanout {
				t.Errorf("epoch %d %s: %d concurrent callers cost %d shard requests, one costs %d",
					epoch, row.path, callers, got, row.fanout)
			}
			for i := 1; i < callers; i++ {
				if !bytes.Equal(bodies[i], bodies[0]) {
					t.Errorf("epoch %d %s: caller %d got other bytes:\n%s%s", epoch, row.path, i, bodies[0], bodies[i])
				}
			}
			if again := asked(func() { httpRaw(t, cl.RouterURL+row.path) }); again != 0 {
				t.Errorf("epoch %d %s: asking again cost %d shard requests, want 0", epoch, row.path, again)
			}
		}
		cached, ok := es.replies.Get(pointKey('s', uint64(src)))
		if !ok || !reflect.DeepEqual(cached, server.NewSSSPDistances(want, wantRounds)) {
			t.Errorf("epoch %d: the cached vector (cached: %v) is not the bare exchange's", epoch, ok)
		}
	}
}

// BenchmarkClusterSSSP prices one cold SSSP on sd/small, through the
// router behind two shards and, for the ratio, on a single graphd: every
// iteration takes a source no cache has seen, so each runs the full
// traversal. Besides ns/op and allocs/op the router case reports the
// frontier exchange's shape per query: rounds and relax-frame bytes in
// both directions (the counters /metrics exports as
// graphd_cluster_relax_bytes_total).
func BenchmarkClusterSSSP(b *testing.B) {
	g := genGraph(b, "sd", "small")
	n := g.NumVertices()
	// 7919 is prime and does not divide n, so sources do not repeat
	// within any run shorter than n iterations.
	source := func(i int) graph.VertexID { return graph.VertexID((i + 1) * 7919 % n) }

	b.Run("router", func(b *testing.B) {
		ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
		defer cancel()
		cl, err := StartLocal(ctx, g, LocalOptions{Shards: 2, Workers: 1, Dir: b.TempDir()})
		if err != nil {
			b.Fatal(err)
		}
		defer cl.Close()
		rt := cl.Router
		es := rt.epoch.Load()
		rounds := 0
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			d, err := rt.sssp(ctx, es, source(i))
			if err != nil {
				b.Fatal(err)
			}
			rounds += d.Summary(server.QueryMeta{}, source(i)).Rounds
		}
		b.StopTimer()
		q := float64(b.N)
		b.ReportMetric(b.Elapsed().Seconds()*1e3/q, "ms/query")
		b.ReportMetric(float64(rounds)/q, "rounds/query")
		b.ReportMetric(float64(rt.relaxBytesOut.Load()+rt.relaxBytesIn.Load())/q, "wire-B/query")
	})

	b.Run("single-node", func(b *testing.B) {
		srv := server.New(server.Config{Workers: 1})
		defer func() {
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			srv.Shutdown(ctx)
			cancel()
		}()
		if _, err := srv.Store().Build(server.BuildSpec{
			Name: "base", Dataset: "sd", Scale: "small", Technique: "auto", Activate: true,
		}); err != nil {
			b.Fatal(err)
		}
		h := srv.Handler()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest("GET", fmt.Sprintf("/v1/query/sssp?src=%d", source(i)), nil))
			if rec.Code != http.StatusOK {
				b.Fatalf("status %d: %s", rec.Code, rec.Body)
			}
		}
		b.StopTimer()
		b.ReportMetric(b.Elapsed().Seconds()*1e3/float64(b.N), "ms/query")
	})
}
