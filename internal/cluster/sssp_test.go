package cluster

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"slices"
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
							got, _, err := cl.Router.clusterSSSP(es, src, nil)
							if err != nil {
								t.Fatalf("%s src=%d: %v", name, src, err)
							}
							if len(got) != len(want[i]) {
								t.Fatalf("%s src=%d: %d distances, want %d", name, src, len(got), len(want[i]))
							}
							for v, d := range got {
								if d == ssspInf {
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

// TestClusterSSSPCoalesces pins the router's heavy path: K concurrent
// clusterSSSP calls for one source at one epoch run one frontier exchange
// and all get its rounds and distances, asking again sends no relax
// frame, and the next epoch runs one exchange of its own. The reference
// is runSSSP, the bare exchange: the relax bytes the router sends depend
// only on the frontier sequence, so one exchange sends exactly what it
// sent.
func TestClusterSSSPCoalesces(t *testing.T) {
	g := genGraph(t, "sd", "tiny")
	cl := startCluster(t, g, LocalOptions{Shards: 2})
	rt := cl.Router
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	const callers = 8
	src := graph.VertexID(0)
	sent := func(f func()) uint64 {
		before := rt.relaxBytesOut.Load()
		f()
		return rt.relaxBytesOut.Load() - before
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
		one := sent(func() {
			var err error
			if want, wantRounds, err = rt.runSSSP(ctx, es, src, nil); err != nil {
				t.Fatal(err)
			}
		})
		if one == 0 {
			t.Fatalf("epoch %d: the reference exchange sent no relax bytes", epoch)
		}
		dists := make([][]int64, callers)
		rounds := make([]int, callers)
		errs := make([]error, callers)
		got := sent(func() {
			start := make(chan struct{})
			var wg sync.WaitGroup
			for i := range callers {
				wg.Add(1)
				go func() {
					defer wg.Done()
					<-start
					dists[i], rounds[i], errs[i] = rt.clusterSSSP(es, src, nil)
				}()
			}
			close(start)
			wg.Wait()
		})
		if got != one {
			t.Errorf("epoch %d: %d concurrent callers sent %d relax bytes, one exchange sends %d", epoch, callers, got, one)
		}
		for i := range callers {
			if errs[i] != nil {
				t.Fatalf("epoch %d caller %d: %v", epoch, i, errs[i])
			}
			if rounds[i] != wantRounds || !slices.Equal(dists[i], want) {
				t.Errorf("epoch %d caller %d: %d rounds and distances equal %v, the exchange took %d",
					epoch, i, rounds[i], slices.Equal(dists[i], want), wantRounds)
			}
		}
		var again []int64
		var againRounds int
		if repeat := sent(func() {
			var err error
			if again, againRounds, err = rt.clusterSSSP(es, src, nil); err != nil {
				t.Fatal(err)
			}
		}); repeat != 0 {
			t.Errorf("epoch %d: asking again sent %d relax bytes, want 0", epoch, repeat)
		}
		if againRounds != wantRounds || !slices.Equal(again, want) {
			t.Errorf("epoch %d: the repeat got %d rounds and other distances", epoch, againRounds)
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
			_, r, err := rt.clusterSSSP(es, source(i), nil)
			if err != nil {
				b.Fatal(err)
			}
			rounds += r
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
