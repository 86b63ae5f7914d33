// Command graphd serves graph-analytics queries over HTTP from named,
// immutable, hot-swappable snapshots. Each snapshot is a graph loaded or
// generated once, reordered once (DBG by default — the paper's
// lightweight technique), and precomputed once; the reordering cost is
// then amortized over every query served.
//
// Usage:
//
//	graphd -dataset sd -scale small -technique dbg -addr :8090
//	graphd -i graph.gr -name web -technique hubsort
//	graphd -dataset sd -scale small -selftest
//
// Endpoints: see the graphd section of README.md, or `curl
// localhost:8090/v1/snapshots` once running. -selftest starts the server
// on an ephemeral port, drives it with the in-process load generator
// through a fixed list of -ops operations, hot-swaps a
// differently-ordered snapshot once half of them have completed, and
// exits non-zero if any request was lost.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"

	"graphreorder"
	"graphreorder/internal/server"
	"graphreorder/internal/server/loadtest"
	"graphreorder/internal/wal"
)

// version identifies the build in /healthz and -version; release builds
// override it with -ldflags "-X main.version=...".
var version = "dev"

func main() {
	var (
		addr     = flag.String("addr", ":8090", "listen address")
		dataset  = flag.String("dataset", "", "built-in dataset name (alternative to -i)")
		scale    = flag.String("scale", "small", "tiny|small|medium|large (with -dataset)")
		in       = flag.String("i", "", "graph file (text edge list or binary, auto-detected)")
		name     = flag.String("name", "", "snapshot name (default: dataset or file base name)")
		tech     = flag.String("technique", "dbg", "reordering spec for the initial snapshot: any registry name, a 'dbg|gorder'-style pipeline, 'auto' (skew-gated advisor) or 'original' (none; the default for .csrz inputs, which already embed a layout)")
		backend  = flag.String("backend", "", "snapshot serving representation: plain|compressed|auto (compressed = csrz delta+varint adjacency, bit-identical results in a fraction of the bytes; .csrz input files are served from an mmap; default: plain, or compressed for .csrz inputs)")
		degree   = flag.String("degree", "out", "degree used for reordering: in|out")
		workers  = flag.Int("workers", 0, "engine workers per traversal (0 = all cores)")
		cacheMB  = flag.Int("cache-mb", 256, "result-cache budget in MiB")
		maxConc  = flag.Int("max-concurrent", 0, "concurrent heavy queries (0 = 2*GOMAXPROCS)")
		timeout  = flag.Duration("timeout", 15*time.Second, "heavy-query timeout")
		allowFS  = flag.Bool("allow-path-loads", false, "allow POST /v1/snapshots specs that read server-side files")
		mutable  = flag.Bool("mutable", true, "serve the initial snapshot as a live graph accepting POST /v1/snapshots/{name}/edges, re-reordered once writes have decayed its hot-vertex packing (default false for .csrz inputs so they serve zero-copy from the mapping; pass -mutable to decode one into a live graph)")
		walDir   = flag.String("wal-dir", "", "durability directory for mutable snapshots (checkpoint + mutation WAL; empty = off). On startup, a mutable snapshot with durable state here is recovered from it instead of rebuilt")
		fsync    = flag.String("fsync", "always", "WAL fsync policy: always|never|interval:<dur> (with -wal-dir)")
		ckptN    = flag.Int("checkpoint-every", 16, "publishes between checkpoint rewrites (with -wal-dir; 1 = checkpoint every publish)")
		grace    = flag.Duration("shutdown-grace", 10*time.Second, "SIGTERM/SIGINT: how long to drain in-flight requests and flush+fsync the WAL before giving up")
		selftest = flag.Bool("selftest", false, "run the in-process load test with a mid-run hot swap, then exit")
		clients  = flag.Int("clients", 8, "selftest: concurrent clients")
		ops      = flag.Int("ops", 10000, "selftest: operations in the load's fixed list; each drill fires once a set share of them has completed")
		writeMix = flag.Int("write-mix", 0, "selftest: relative weight of write batches in the query mix (0 = read-only; single node only, an error with -cluster)")
		chaos    = flag.Bool("chaos", false, "selftest: crash the live graph mid-run, recover it from the WAL, and verify every acked write survived (implies a write mix and durability; single node only, an error with -cluster)")
		trace    = flag.Float64("trace-sample", 0.05, "fraction of requests getting detailed traces (per-round stats + request log; <0 disables tracing entirely, ?debug=trace always traces)")
		slowMs   = flag.Int("slow-ms", 250, "record traces slower than this (or 5xx) in the /debug/slow ring (<0 disables)")
		pprof    = flag.Bool("pprof", false, "expose net/http/pprof under /debug/pprof/")
		showVer  = flag.Bool("version", false, "print version and exit")

		clusterN    = flag.Int("cluster", 0, "shard the graph across N graphd members behind a scatter-gather router on -addr (read-only cluster tier; 0 = single node)")
		clusterRep  = flag.Int("cluster-replicas", 1, "cluster: members per shard including the primary (-selftest defaults to 2 so the mid-run kill has a replica to promote)")
		partitioner = flag.String("partitioner", "degree", "cluster: edge placement strategy: degree (degree-aware vertex cut) | hash")
		shardMember = flag.Bool("shard-member", false, "internal: run as a bare cluster shard member (no initial snapshot; the router publishes builds)")
	)
	flag.Parse()

	if *showVer {
		fmt.Printf("graphd %s %s %s/%s\n", version, runtime.Version(), runtime.GOOS, runtime.GOARCH)
		return
	}
	if *shardMember {
		runShardMember(*addr, *workers, *grace)
		return
	}
	if *clusterN > 0 {
		if *chaos || *writeMix > 0 {
			fmt.Fprintln(os.Stderr, "graphd: -chaos and -write-mix drill a live graph; -cluster serves read-only epochs")
			os.Exit(2)
		}
		os.Exit(runCluster(clusterConfig{
			addr:      *addr,
			dataset:   *dataset,
			scale:     *scale,
			in:        *in,
			shards:    *clusterN,
			replicas:  *clusterRep,
			strategy:  *partitioner,
			technique: *tech,
			workers:   *workers,
			selftest:  *selftest,
			clients:   *clients,
			ops:       *ops,
			grace:     *grace,
		}))
	}

	snapName := *name
	switch {
	case snapName != "":
	case *dataset != "":
		snapName = *dataset
	case *in != "":
		snapName = strings.TrimSuffix(filepath.Base(*in), filepath.Ext(*in))
	default:
		fmt.Fprintln(os.Stderr, "graphd: need -dataset or -i")
		flag.Usage()
		os.Exit(2)
	}

	// A .csrz input is a serialized snapshot of a specific layout, so
	// unless the flags say otherwise it is served as-is: technique
	// "original" and immutable, which keeps the mapping alive and the
	// adjacency bytes file-backed instead of decoding into a heap copy.
	// Explicit -technique/-mutable still win (and force a decode).
	if *in != "" {
		if isCZ, err := graphreorder.IsCSRZFile(*in); err == nil && isCZ {
			set := make(map[string]bool)
			flag.Visit(func(f *flag.Flag) { set[f.Name] = true })
			if !set["technique"] {
				*tech = "original"
			}
			if !set["mutable"] {
				*mutable = false
			}
		}
	}

	// The compressed selftest swaps to an mmap-backed snapshot through
	// the public admin API, which means POSTing a Path spec against our
	// own ephemeral listener — that needs path loads enabled.
	if *selftest && *backend == "compressed" {
		*allowFS = true
	}

	// The initial -i load below goes through Store().Build directly and
	// is not gated: AllowPathLoads only controls what network clients may
	// request, so it stays an explicit opt-in.
	srv := server.New(server.Config{
		Workers:        *workers,
		MaxConcurrent:  *maxConc,
		QueryTimeout:   *timeout,
		CacheBytes:     int64(*cacheMB) << 20,
		AllowPathLoads: *allowFS,
		TraceSample:    *trace,
		SlowThreshold:  time.Duration(*slowMs) * time.Millisecond,
		Pprof:          *pprof,
		Version:        version,
		Logger:         slog.New(slog.NewTextHandler(os.Stderr, nil)),
	})

	// Chaos needs durability (the point is recovering from the WAL) and
	// writes to lose; default both when the flags were left off. The temp
	// dir is removed explicitly after the selftest — os.Exit skips defers.
	var chaosTmp string
	if *chaos {
		*selftest = true
		if *writeMix == 0 {
			*writeMix = 4
		}
		if *walDir == "" {
			dir, err := os.MkdirTemp("", "graphd-chaos-wal-")
			if err != nil {
				fatal(err)
			}
			chaosTmp = dir
			*walDir = dir
		}
	}
	if *walDir != "" {
		policy, interval, err := wal.ParseSyncPolicy(*fsync)
		if err != nil {
			fatal(err)
		}
		if err := srv.Store().SetDurability(server.Durability{
			Dir:             *walDir,
			Fsync:           policy,
			Interval:        interval,
			CheckpointEvery: *ckptN,
		}); err != nil {
			fatal(err)
		}
	}

	spec := server.BuildSpec{
		Name:      snapName,
		Dataset:   *dataset,
		Scale:     *scale,
		Path:      *in,
		Technique: *tech,
		Backend:   *backend,
		Degree:    *degree,
		Activate:  true,
		Mutable:   *mutable,
	}
	if *dataset == "" {
		spec.Scale = ""
	}
	start := time.Now()
	if _, err := srv.Store().Build(spec); err != nil {
		fatal(err)
	}
	info, _ := srv.Store().Info(snapName)
	fmt.Fprintf(os.Stderr,
		"graphd: snapshot %q ready in %v (%d vertices, %d edges, technique %s; load %.0fms reorder %.0fms rebuild %.0fms precompute %.0fms; packing %.2f/%.2f)\n",
		snapName, time.Since(start).Round(time.Millisecond), info.Vertices, info.Edges,
		info.Technique, info.LoadMs, info.ReorderMs, info.RebuildMs, info.PrecomputeMs,
		info.Quality.PackingFactor, info.Quality.Ideal)
	if info.Advised != "" {
		fmt.Fprintf(os.Stderr, "graphd: advisor chose %q: %s\n", info.Advised, info.AdviceReason)
	}
	if info.Backend != "plain" {
		fmt.Fprintf(os.Stderr, "graphd: backend %s: adjacency %d bytes resident of %d plain (%.2fx)\n",
			info.Backend, info.ResidentAdjBytes, info.PlainAdjBytes, info.CompressionRatio)
	}

	if *selftest {
		if *writeMix > 0 && !*mutable {
			fatal(fmt.Errorf("-write-mix needs -mutable"))
		}
		code := runSelftest(srv, spec, *clients, *ops, *writeMix, *chaos)
		if chaosTmp != "" {
			os.RemoveAll(chaosTmp)
		}
		os.Exit(code)
	}

	httpSrv := &http.Server{Addr: *addr, Handler: srv.Handler()}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.ListenAndServe() }()
	fmt.Fprintf(os.Stderr, "graphd: serving on %s\n", *addr)

	select {
	case err := <-errCh:
		fatal(err)
	case <-ctx.Done():
	}
	// Graceful shutdown: drain in-flight HTTP requests, then stop the
	// live-graph pipelines — which folds each WAL into a final fsynced
	// checkpoint, so a clean stop never relies on replay — all within
	// -shutdown-grace.
	fmt.Fprintln(os.Stderr, "graphd: shutting down")
	shutdownCtx, cancel := context.WithTimeout(context.Background(), *grace)
	defer cancel()
	if err := httpSrv.Shutdown(shutdownCtx); err != nil {
		fmt.Fprintln(os.Stderr, "graphd: listener drain:", err)
	}
	if err := srv.Shutdown(shutdownCtx); err != nil {
		fmt.Fprintln(os.Stderr, "graphd: pipeline drain:", err)
	}
}

// runSelftest serves on an ephemeral port, drives the load generator
// through a fixed list of ops operations, and hot-swaps a
// differently-ordered snapshot once half of them have completed. With
// writeMix > 0 the list interleaves edge-mutation batches against the
// live snapshot, and the run additionally proves that decay-triggered
// re-reorders landed mid-run without losing a request and that every
// read honored the write receipts' epochs. With chaos, the live graph is
// additionally killed a third of the way in and recovered from its
// checkpoint + WAL while the load keeps running: reads must never fail,
// writes may be refused (503) only during the outage, and after recovery
// every acked insertion must still be in the graph. Returns the process
// exit code: non-zero iff any guarantee was violated.
func runSelftest(srv *server.Server, base server.BuildSpec, clients, ops, writeMix int, chaos bool) int {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		fatal(err)
	}
	httpSrv := &http.Server{Handler: srv.Handler()}
	go httpSrv.Serve(ln)
	defer httpSrv.Close()
	baseURL := "http://" + ln.Addr().String()
	fmt.Fprintf(os.Stderr, "graphd: selftest serving on %s (%d clients, %d operations)\n", baseURL, clients, ops)

	opts := loadtest.Options{
		BaseURL: baseURL,
		Clients: clients,
		Ops:     ops,
		Drills: []loadtest.Drill{{Name: "hot swap", After: ops / 2, Do: func(ctl *loadtest.Control) error {
			return hotSwap(ctl, srv, baseURL, base, ops/10)
		}}},
	}
	// Chaos: kill the live graph a third of the way in, hold the outage
	// open until a write has bounced with 503 (reads keep serving the last
	// published snapshot), then rebuild the same name — which recovers it
	// from the checkpoint + WAL, not from the spec.
	var sentinels [][2]int
	if chaos {
		opts.Drills = append(opts.Drills, loadtest.Drill{Name: "crash", After: ops / 3, Do: func(ctl *loadtest.Control) error {
			return ctl.Outage(func() (err error) {
				sentinels, err = crashLive(srv, baseURL, base.Name)
				return err
			}, func() error {
				rebuild := base
				// Republish under the same name without stealing "current":
				// the concurrent hot-swap drill owns that assertion.
				rebuild.Activate = false
				if _, err := srv.Store().Build(rebuild); err != nil {
					return fmt.Errorf("recovery build: %w", err)
				}
				fmt.Fprintf(os.Stderr, "graphd: chaos: recovered %q from checkpoint + WAL\n", base.Name)
				return nil
			})
		}})
	}
	if writeMix > 0 {
		opts.Mix = loadtest.Mix{Neighbors: 60, Rank: 15, TopK: 10, SSSP: 5, Mutate: writeMix}
	}
	res, err := loadtest.Run(opts)
	if err != nil {
		fmt.Fprintln(os.Stderr, "graphd: SELFTEST FAILED:", err)
		return 1
	}
	for _, d := range res.Drills {
		if d.After == 0 {
			fmt.Fprintf(os.Stderr, "graphd: SELFTEST FAILED: no operation completed after the %s drill returned — it did not run under load\n", d.Name)
			return 1
		}
	}
	if base.Backend == "compressed" {
		// The retired mmap snapshot must fully drain once the load stops;
		// a reference leak would hold its munmap open forever.
		drained := false
		for i := 0; i < 40; i++ {
			if srv.Store().DrainingCount() == 0 {
				drained = true
				break
			}
			time.Sleep(50 * time.Millisecond)
		}
		if !drained {
			fmt.Fprintln(os.Stderr, "graphd: SELFTEST FAILED: retired snapshots never drained after the load ended")
			return 1
		}
	}

	fmt.Print(res.String())
	var metrics server.MetricsReport
	if resp, err := http.Get(baseURL + "/metrics"); err == nil {
		json.NewDecoder(resp.Body).Decode(&metrics)
		resp.Body.Close()
		fmt.Printf("cache: %d hits / %d misses, %d coalesced; snapshots: %d published, %d swaps, %d draining\n",
			metrics.Cache.Hits, metrics.Cache.Misses, metrics.Cache.Coalesced,
			metrics.Snapshots.Published, metrics.Snapshots.Swaps, metrics.Snapshots.Draining)
		if writeMix > 0 {
			fmt.Printf("writes: %d batches (%d updates), %d publishes (%d re-reorders, %d patches), p50 %.1fms p99 %.1fms\n",
				metrics.Writes.Batches, metrics.Writes.Updates, metrics.Writes.Publishes,
				metrics.Writes.Refreshes, metrics.Writes.Publishes-metrics.Writes.Refreshes,
				metrics.Writes.P50Us/1000, metrics.Writes.P99Us/1000)
		}
	}
	if res.Failures > 0 {
		fmt.Fprintf(os.Stderr, "graphd: SELFTEST FAILED: %d/%d requests lost across the hot swap\n",
			res.Failures, res.Requests)
		return 1
	}
	if metrics.Snapshots.Swaps < 2 {
		fmt.Fprintln(os.Stderr, "graphd: SELFTEST FAILED: hot swap did not happen during the run")
		return 1
	}
	if chaos {
		// Durability: every acked insertion (the load's survivors plus the
		// pre-crash sentinel edges) must be in the recovered graph.
		ackedEdges := append(res.AckedEdges, sentinels...)
		if err := loadtest.VerifyAcked(baseURL, base.Name, ackedEdges); err != nil {
			fmt.Fprintln(os.Stderr, "graphd: SELFTEST FAILED:", err)
			return 1
		}
		if metrics.WAL.Recoveries == 0 || metrics.WAL.ReplayedBatches == 0 {
			fmt.Fprintf(os.Stderr,
				"graphd: SELFTEST FAILED: crash recovery did not replay the WAL (recoveries %d, batches replayed %d)\n",
				metrics.WAL.Recoveries, metrics.WAL.ReplayedBatches)
			return 1
		}
		if res.WriteUnavailable == 0 {
			fmt.Fprintln(os.Stderr, "graphd: SELFTEST FAILED: no write was refused during the outage — the crash window was not exercised under load")
			return 1
		}
		fmt.Printf("chaos: %d writes refused during the outage, %d acked edges verified after recovery (%d WAL batches replayed, %.1fms replay)\n",
			res.WriteUnavailable, len(ackedEdges), metrics.WAL.ReplayedBatches, metrics.WAL.ReplayMs)
	}
	if writeMix > 0 {
		if metrics.Writes.Batches == 0 {
			fmt.Fprintln(os.Stderr, "graphd: SELFTEST FAILED: write mix requested but no batch applied")
			return 1
		}
		if metrics.Writes.Refreshes == 0 {
			fmt.Fprintln(os.Stderr, "graphd: SELFTEST FAILED: no re-reorder landed during the run (the live order's packing never decayed); raise -ops or -write-mix")
			return 1
		}
		fmt.Printf("selftest OK: %d requests, %d hot-swaps, %d write batches, %d mid-run re-reorders, zero requests lost\n",
			res.Requests, metrics.Snapshots.Swaps, metrics.Writes.Batches, metrics.Writes.Refreshes)
		return 0
	}
	fmt.Printf("selftest OK: %d requests, %d hot-swaps, zero requests lost\n",
		res.Requests, metrics.Snapshots.Swaps)
	return 0
}

// hotSwap is the selftest's swap drill: it publishes a differently-ordered
// snapshot of the same graph through the public admin API and checks that
// it became current. On the compressed backend it proves the full .csrz
// round trip under load instead: it exports the serving snapshot's layout
// to a container file and swaps to it, so the new current serves straight
// from the file mapping, then republishes it once republishAfter more
// operations have completed.
func hotSwap(ctl *loadtest.Control, srv *server.Server, baseURL string, base server.BuildSpec, republishAfter int) error {
	swap := base
	swap.Name = base.Name + "-swap"
	if swap.Technique == "sort" {
		swap.Technique = "dbg"
	} else {
		swap.Technique = "sort"
	}
	swap.Activate = true
	// The swap target is a plain immutable snapshot: writers keep
	// mutating the original by name while reads follow the swap.
	swap.Mutable = false
	mmapSwap := base.Backend == "compressed"
	if mmapSwap {
		cur, release := srv.Store().Acquire()
		if cur == nil {
			return fmt.Errorf("no current snapshot to export")
		}
		f, err := os.CreateTemp("", "graphd-selftest-*.csrz")
		if err != nil {
			release()
			return err
		}
		f.Close()
		defer os.Remove(f.Name())
		err = cur.WriteCSRZ(f.Name())
		release()
		if err != nil {
			return fmt.Errorf("export .csrz: %w", err)
		}
		swap = server.BuildSpec{
			Name:      swap.Name,
			Path:      f.Name(),
			Technique: "original", // serve the file's layout as stored
			Backend:   "compressed",
			Activate:  true,
		}
	}
	post := func() error {
		body, _ := json.Marshal(swap)
		resp, err := http.Post(baseURL+"/v1/snapshots", "application/json", bytes.NewReader(body))
		if err != nil {
			return err
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusAccepted {
			return fmt.Errorf("swap build rejected: %d", resp.StatusCode)
		}
		srv.Store().WaitBuilds()
		return nil
	}
	if err := post(); err != nil {
		return err
	}
	if cur := srv.Store().Current(); cur == nil || cur.Name() != swap.Name {
		return fmt.Errorf("swap snapshot did not become current")
	}
	if !mmapSwap {
		return nil
	}
	info, ok := srv.Store().Info(swap.Name)
	if !ok || info.Backend != "compressed" || info.OnDiskBytes == 0 {
		return fmt.Errorf("swap snapshot is not serving from a .csrz mapping (backend %q, on-disk %d)",
			info.Backend, info.OnDiskBytes)
	}
	fmt.Fprintf(os.Stderr, "graphd: selftest swapped to mmap-backed snapshot (%d bytes on disk, ratio %.2fx)\n",
		info.OnDiskBytes, info.CompressionRatio)
	// Republish the same name from the same file once queries have run
	// on the mapping: the replace retires the mmap-backed snapshot while
	// queries are in flight, which is exactly the drain-before-munmap race
	// the store must win.
	if err := ctl.Await(republishAfter); err != nil {
		return err
	}
	if err := post(); err != nil {
		return fmt.Errorf("mmap republish: %w", err)
	}
	return nil
}

// crashLive is the chaos drill's crash, run while the load starts no
// write. It posts single-edge sentinel writes until one lands after the
// last checkpoint (two at least), so the WAL provably holds batches the
// recovery must replay, not just reload; then it kills the live graph.
// It returns the sentinel edges, which the recovered graph must hold.
func crashLive(srv *server.Server, baseURL, name string) ([][2]int, error) {
	var sentinels [][2]int
	for dst := 1; ; dst++ {
		ckpts := srv.Store().WALStatsReport().Checkpoints
		body := fmt.Sprintf(`{"updates":[{"src":0,"dst":%d,"weight":1}]}`, dst)
		resp, err := http.Post(baseURL+"/v1/snapshots/"+name+"/edges", "application/json", strings.NewReader(body))
		if err != nil {
			return nil, fmt.Errorf("pre-crash write: %w", err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return nil, fmt.Errorf("pre-crash write rejected: %d", resp.StatusCode)
		}
		sentinels = append(sentinels, [2]int{0, dst})
		if dst >= 2 && srv.Store().WALStatsReport().Checkpoints == ckpts {
			break
		}
		if dst == 4 {
			return nil, fmt.Errorf("every pre-crash write was folded into a checkpoint; raise -checkpoint-every")
		}
	}
	if !srv.Store().CrashLive(name) {
		return nil, fmt.Errorf("no live graph %q to crash", name)
	}
	fmt.Fprintf(os.Stderr, "graphd: chaos: crashed live graph %q (WAL abandoned unflushed beyond fsync)\n", name)
	return sentinels, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "graphd:", err)
	os.Exit(1)
}
