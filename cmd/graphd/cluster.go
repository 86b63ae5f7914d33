// Cluster mode: graphd -cluster N partitions the input graph with the
// degree-aware vertex cut, runs N shard members (spawned as child
// processes re-execing this binary with -shard-member), and serves the
// ordinary graphd wire format from a scatter-gather router on -addr.
// graphd -selftest -cluster N instead boots the cluster in-process (real
// loopback TCP), drives it with the read-mix load generator, kills a
// shard primary once half the load has completed, and exits non-zero
// unless zero requests were lost and the replica was promoted — plus a
// bit-identical spot check of merged answers against a single-node
// baseline.
package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"os/signal"
	"reflect"
	"strconv"
	"syscall"
	"time"

	"graphreorder/internal/cluster"
	"graphreorder/internal/gen"
	"graphreorder/internal/graph"
	"graphreorder/internal/server"
	"graphreorder/internal/server/loadtest"
)

// clusterConfig carries the flag slice cluster mode consumes.
type clusterConfig struct {
	addr      string
	dataset   string
	scale     string
	in        string
	shards    int
	replicas  int
	strategy  string
	technique string
	workers   int
	selftest  bool
	clients   int
	ops       int
	grace     time.Duration
}

// loadClusterGraph materializes the input graph in-process: cluster
// mode partitions it locally before any server exists.
func loadClusterGraph(cfg clusterConfig) (*graph.Graph, error) {
	if cfg.in != "" {
		f, err := os.Open(cfg.in)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		g, _, err := graph.ReadAuto(f)
		return g, err
	}
	s, err := gen.ParseScale(cfg.scale)
	if err != nil {
		return nil, err
	}
	dcfg, err := gen.Dataset(cfg.dataset, s)
	if err != nil {
		return nil, err
	}
	return gen.Generate(dcfg)
}

// runShardMember is the child-process entry: a bare graphd server with
// no initial snapshot, path loads allowed (the router POSTs it build
// specs pointing at the partitioner's layout files).
func runShardMember(addr string, workers int, grace time.Duration) {
	srv := server.New(server.Config{
		Workers:        workers,
		AllowPathLoads: true,
	})
	httpSrv := &http.Server{Addr: addr, Handler: srv.Handler()}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.ListenAndServe() }()
	fmt.Fprintf(os.Stderr, "graphd: shard member serving on %s\n", addr)
	select {
	case err := <-errCh:
		fatal(err)
	case <-ctx.Done():
	}
	shutdownCtx, cancel := context.WithTimeout(context.Background(), grace)
	defer cancel()
	httpSrv.Shutdown(shutdownCtx)
	srv.Shutdown(shutdownCtx)
}

func runCluster(cfg clusterConfig) int {
	if cfg.dataset == "" && cfg.in == "" {
		fmt.Fprintln(os.Stderr, "graphd: -cluster needs -dataset or -i")
		return 2
	}
	g, err := loadClusterGraph(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "graphd:", err)
		return 1
	}
	if cfg.selftest {
		return runClusterSelftest(cfg, g)
	}
	return runClusterServe(cfg, g)
}

// runClusterServe is process mode: shard members are real child
// processes on consecutive ports after -addr's, so killing one from
// the outside exercises exactly what the selftest automates.
func runClusterServe(cfg clusterConfig, g *graph.Graph) int {
	if cfg.replicas < 1 {
		cfg.replicas = 1
	}
	host, portStr, err := net.SplitHostPort(cfg.addr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "graphd: -cluster needs an explicit host:port -addr: %v\n", err)
		return 2
	}
	basePort, err := strconv.Atoi(portStr)
	if err != nil || basePort == 0 {
		fmt.Fprintln(os.Stderr, "graphd: -cluster needs a fixed -addr port (shard ports are derived from it)")
		return 2
	}
	if host == "" {
		host = "127.0.0.1"
	}

	dir, err := os.MkdirTemp("", "graphd-cluster-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "graphd:", err)
		return 1
	}
	defer os.RemoveAll(dir)

	start := time.Now()
	res, err := cluster.Partition(g, cluster.Options{
		Shards: cfg.shards, Strategy: cfg.strategy, Workers: cfg.workers,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "graphd:", err)
		return 1
	}
	ranks, iters, checksum, err := cluster.GlobalRanks(context.Background(), g, cfg.workers)
	if err != nil {
		fmt.Fprintln(os.Stderr, "graphd:", err)
		return 1
	}
	lay, err := cluster.WriteLayout(res, dir, ranks, iters, checksum)
	if err != nil {
		fmt.Fprintln(os.Stderr, "graphd:", err)
		return 1
	}
	fmt.Fprintf(os.Stderr,
		"graphd: partitioned %d edges into %d shards (%s) in %v: max/mean balance %.4f, %d replicated hubs\n",
		g.NumEdges(), cfg.shards, cfg.strategy, time.Since(start).Round(time.Millisecond),
		res.Balance.Balance, res.Balance.ReplicatedHubs)
	// A copy, so the router does not keep res.Graphs reachable.
	placement := res.Placement

	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "graphd:", err)
		return 1
	}
	var children []*exec.Cmd
	defer func() {
		for _, c := range children {
			if c.Process != nil {
				c.Process.Signal(syscall.SIGTERM)
			}
		}
		for _, c := range children {
			c.Wait()
		}
	}()
	endpoints := make([][]string, cfg.shards)
	port := basePort
	for s := 0; s < cfg.shards; s++ {
		for r := 0; r < cfg.replicas; r++ {
			port++
			addr := net.JoinHostPort(host, strconv.Itoa(port))
			child := exec.Command(exe,
				"-shard-member",
				"-addr", addr,
				"-workers", strconv.Itoa(cfg.workers))
			child.Stdout, child.Stderr = os.Stdout, os.Stderr
			if err := child.Start(); err != nil {
				fmt.Fprintln(os.Stderr, "graphd: spawning shard member:", err)
				return 1
			}
			children = append(children, child)
			endpoints[s] = append(endpoints[s], "http://"+addr)
		}
	}
	// Wait for every member to be listening before publishing. A bare
	// member reports 503 on /healthz until its first snapshot activates,
	// so any HTTP response counts — readiness comes from PublishEpoch's
	// barrier, not from here.
	for _, eps := range endpoints {
		for _, ep := range eps {
			if err := awaitListening(ep, 30*time.Second); err != nil {
				fmt.Fprintln(os.Stderr, "graphd:", err)
				return 1
			}
		}
	}

	rt, err := cluster.NewRouter(cluster.RouterConfig{
		Placement: &placement,
		Endpoints: endpoints,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "graphd:", err)
		return 1
	}
	defer rt.Close()
	specs := make([]server.BuildSpec, cfg.shards)
	for s := range specs {
		specs[s] = server.BuildSpec{
			Path:      lay.GraphPaths[s],
			RanksPath: lay.RankPaths[s],
			Technique: cfg.technique,
		}
	}
	pubCtx, cancel := context.WithTimeout(context.Background(), 10*time.Minute)
	epoch, err := rt.PublishEpoch(pubCtx, specs)
	cancel()
	if err != nil {
		fmt.Fprintln(os.Stderr, "graphd:", err)
		return 1
	}
	fmt.Fprintf(os.Stderr, "graphd: cluster epoch %d live on %d shards × %d members\n",
		epoch, cfg.shards, cfg.replicas)

	httpSrv := &http.Server{Addr: cfg.addr, Handler: rt.Handler()}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.ListenAndServe() }()
	fmt.Fprintf(os.Stderr, "graphd: cluster router serving on %s\n", cfg.addr)
	select {
	case err := <-errCh:
		fmt.Fprintln(os.Stderr, "graphd:", err)
		return 1
	case <-ctx.Done():
	}
	fmt.Fprintln(os.Stderr, "graphd: shutting down cluster")
	shutdownCtx, cancel2 := context.WithTimeout(context.Background(), cfg.grace)
	defer cancel2()
	httpSrv.Shutdown(shutdownCtx)
	return 0
}

func awaitListening(baseURL string, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		resp, err := http.Get(baseURL + "/healthz")
		if err == nil {
			resp.Body.Close()
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("shard member %s never started listening: %w", baseURL, err)
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// fetchRaw GETs a URL and decodes JSON into out, reporting HTTP-level
// failure as an error.
func fetchRaw(url string, out any) error {
	resp, err := http.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %d", url, resp.StatusCode)
	}
	if out == nil {
		return nil
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// runClusterSelftest boots the cluster in-process with replicated
// shards, spot-checks merged answers bit-for-bit against a single-node
// baseline, then runs the load mix and kills a shard primary once half
// of it has completed. Zero lost requests plus a recorded replica
// promotion is the pass condition; the equivalence check repeats after
// the kill to prove the replica serves identical data.
func runClusterSelftest(cfg clusterConfig, g *graph.Graph) int {
	if cfg.replicas < 2 {
		cfg.replicas = 2
	}
	dir, err := os.MkdirTemp("", "graphd-cluster-selftest-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "graphd:", err)
		return 1
	}
	defer os.RemoveAll(dir)

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Minute)
	defer cancel()
	cl, err := cluster.StartLocal(ctx, g, cluster.LocalOptions{
		Shards:      cfg.shards,
		Replicas:    cfg.replicas,
		Strategy:    cfg.strategy,
		Technique:   cfg.technique,
		Workers:     cfg.workers,
		Dir:         dir,
		HealthEvery: 100 * time.Millisecond,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "graphd: cluster selftest:", err)
		return 1
	}
	defer cl.Close()
	fmt.Fprintf(os.Stderr, "graphd: cluster selftest: %d shards × %d members behind %s (balance %.4f, %d replicated hubs)\n",
		cfg.shards, cfg.replicas, cl.RouterURL, cl.Balance.Balance, cl.Balance.ReplicatedHubs)

	// Single-node baseline for the bit-equality spot check: same graph,
	// original order, same worker count (PageRank summation order, and so
	// its bits, depend on both).
	baseSrv := server.New(server.Config{Workers: cfg.workers, AllowPathLoads: true})
	baseLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		fmt.Fprintln(os.Stderr, "graphd:", err)
		return 1
	}
	baseHTTP := &http.Server{Handler: baseSrv.Handler()}
	go baseHTTP.Serve(baseLn)
	defer baseHTTP.Close()
	baseURL := "http://" + baseLn.Addr().String()
	spec := server.BuildSpec{Name: "base", Dataset: cfg.dataset, Scale: cfg.scale, Path: cfg.in, Activate: true}
	if cfg.dataset == "" {
		spec.Scale = ""
	}
	if _, err := baseSrv.Store().Build(spec); err != nil {
		fmt.Fprintln(os.Stderr, "graphd:", err)
		return 1
	}

	// The equivalence check compares whole replies as JSON objects, minus
	// the keys that say which snapshot answered; the reads center on the
	// highest out-degree vertex, whose lists span every shard.
	hub := graph.VertexID(0)
	for v := graph.VertexID(0); int(v) < g.NumVertices(); v++ {
		if g.OutDegree(v) > g.OutDegree(hub) {
			hub = v
		}
	}
	reads := []string{
		fmt.Sprintf("neighbors?v=%d&dir=out", hub),
		fmt.Sprintf("neighbors?v=%d&dir=in", hub),
		fmt.Sprintf("neighbors?v=%d&limit=8", hub),
		fmt.Sprintf("degree?v=%d&kind=out", hub),
		fmt.Sprintf("degree?v=%d&kind=in", hub),
		fmt.Sprintf("degree?v=%d&kind=total", hub),
		fmt.Sprintf("rank?v=%d", hub),
		"topk?k=10",
		fmt.Sprintf("sssp?src=0&target=%d", hub),
	}
	checkEquivalence := func(stage string) bool {
		for _, q := range reads {
			var want, got map[string]any
			if err := fetchRaw(baseURL+"/v1/query/"+q+"&snapshot=base", &want); err != nil {
				fmt.Fprintf(os.Stderr, "graphd: SELFTEST FAILED (%s): baseline %s: %v\n", stage, q, err)
				return false
			}
			if err := fetchRaw(cl.RouterURL+"/v1/query/"+q, &got); err != nil {
				fmt.Fprintf(os.Stderr, "graphd: SELFTEST FAILED (%s): cluster %s: %v\n", stage, q, err)
				return false
			}
			for _, k := range []string{"snapshot", "epoch", "cached", "stale", "rounds"} {
				delete(want, k)
				delete(got, k)
			}
			if !reflect.DeepEqual(want, got) {
				fmt.Fprintf(os.Stderr, "graphd: SELFTEST FAILED (%s): %s: cluster %v, single node %v\n", stage, q, got, want)
				return false
			}
		}
		return true
	}
	if !checkEquivalence("pre-kill") {
		return 1
	}

	// Kill shard 0's boot-time primary once half the load has completed.
	res, err := loadtest.Run(loadtest.Options{
		BaseURL: cl.RouterURL,
		Clients: cfg.clients,
		Ops:     cfg.ops,
		Mix:     loadtest.ClusterMix(),
		Drills: []loadtest.Drill{{Name: "shard kill", After: cfg.ops / 2, Do: func(*loadtest.Control) error {
			cl.Kill(0, 0)
			fmt.Fprintln(os.Stderr, "graphd: cluster selftest: killed shard 0 primary")
			return nil
		}}},
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "graphd: SELFTEST FAILED:", err)
		return 1
	}
	fmt.Print(res.String())

	if res.Drills[0].After == 0 {
		fmt.Fprintln(os.Stderr, "graphd: SELFTEST FAILED: no operation completed after the shard kill")
		return 1
	}
	if res.Failures > 0 {
		fmt.Fprintf(os.Stderr, "graphd: SELFTEST FAILED: %d/%d requests lost across the shard kill\n",
			res.Failures, res.Requests)
		return 1
	}
	var rep cluster.RouterReport
	if err := fetchRaw(cl.RouterURL+"/metrics", &rep); err != nil {
		fmt.Fprintln(os.Stderr, "graphd: SELFTEST FAILED: router metrics:", err)
		return 1
	}
	if rep.Promotions == 0 {
		fmt.Fprintln(os.Stderr, "graphd: SELFTEST FAILED: shard primary killed but no replica promotion recorded")
		return 1
	}
	if !checkEquivalence("post-kill") {
		return 1
	}
	hitPct := 0.0
	if lookups := rep.CacheHits + rep.CacheMisses; lookups > 0 {
		hitPct = 100 * float64(rep.CacheHits) / float64(lookups)
	}
	fmt.Printf("cluster: %d shards × %d members, balance %.4f, %d promotions, epoch %d, reply cache %.1f%% of %d reads\n",
		rep.Shards, cfg.replicas, cl.Balance.Balance, rep.Promotions, rep.Epoch, hitPct, rep.CacheHits+rep.CacheMisses)
	fmt.Printf("selftest OK: %d requests across a mid-run shard kill, zero requests lost, merged answers bit-identical to single node\n",
		res.Requests)
	return 0
}
