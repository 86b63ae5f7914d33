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
// on an ephemeral port, drives it with the in-process load generator,
// hot-swaps a differently-ordered snapshot mid-run, and exits non-zero
// if any request was lost.
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
		mutable  = flag.Bool("mutable", true, "serve the initial snapshot as a live graph accepting POST /v1/snapshots/{name}/edges (default false for .csrz inputs so they serve zero-copy from the mapping; pass -mutable to decode one into a live graph)")
		refresh  = flag.Int("refresh-every", 8, "live snapshots: full re-reorder every N write batches (relabel reuse in between; <0 disables)")
		walDir   = flag.String("wal-dir", "", "durability directory for mutable snapshots (checkpoint + mutation WAL; empty = off). On startup, a mutable snapshot with durable state here is recovered from it instead of rebuilt")
		fsync    = flag.String("fsync", "always", "WAL fsync policy: always|never|interval:<dur> (with -wal-dir)")
		ckptN    = flag.Int("checkpoint-every", 16, "publishes between checkpoint rewrites (with -wal-dir; 1 = checkpoint every publish)")
		grace    = flag.Duration("shutdown-grace", 10*time.Second, "SIGTERM/SIGINT: how long to drain in-flight requests and flush+fsync the WAL before giving up")
		selftest = flag.Bool("selftest", false, "run the in-process load test with a mid-run hot swap, then exit")
		clients  = flag.Int("clients", 8, "selftest: concurrent clients")
		duration = flag.Duration("duration", 3*time.Second, "selftest: load duration")
		writeMix = flag.Int("write-mix", 0, "selftest: relative weight of write batches in the query mix (0 = read-only)")
		chaos    = flag.Bool("chaos", false, "selftest: crash the live graph mid-run, recover it from the WAL, and verify every acked write survived (implies a write mix and durability)")
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
			duration:  *duration,
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
		RefreshEvery:   *refresh,
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
		code := runSelftest(srv, spec, *clients, *duration, *writeMix, *chaos)
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

// runSelftest serves on an ephemeral port, drives the load generator,
// and hot-swaps a differently-ordered snapshot halfway through. With
// writeMix > 0 the workload interleaves edge-mutation batches against
// the live snapshot, and the run additionally proves that
// policy-triggered re-reorders landed mid-run without losing a request
// and that every read honored the write receipts' epochs. With chaos,
// the live graph is additionally killed a third of the way in and
// recovered from its checkpoint + WAL while the load keeps running:
// reads must never fail, writes may be refused (503) only during the
// outage, and after recovery every acked insertion must still be in the
// graph. Returns the process exit code: non-zero iff any guarantee was
// violated.
func runSelftest(srv *server.Server, base server.BuildSpec, clients int, duration time.Duration, writeMix int, chaos bool) int {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		fatal(err)
	}
	httpSrv := &http.Server{Handler: srv.Handler()}
	go httpSrv.Serve(ln)
	defer httpSrv.Close()
	baseURL := "http://" + ln.Addr().String()
	fmt.Fprintf(os.Stderr, "graphd: selftest serving on %s (%d clients, %v)\n", baseURL, clients, duration)

	// Swap to a differently-ordered snapshot of the same graph at half
	// time, through the public admin API. The goroutine reports when the
	// swap actually completed, so we can prove it landed while the load
	// was still running.
	type swapReport struct {
		completed time.Time
		err       error
	}
	swapDone := make(chan swapReport, 1)
	swapName := base.Name + "-swap"
	mmapSwap := base.Backend == "compressed"
	go func() {
		time.Sleep(duration / 2)
		swap := base
		swap.Name = swapName
		if swap.Technique == "sort" {
			swap.Technique = "dbg"
		} else {
			swap.Technique = "sort"
		}
		swap.Activate = true
		// The swap target is a plain immutable snapshot: writers keep
		// mutating the original by name while reads follow the swap.
		swap.Mutable = false
		var csrzTmp string
		if mmapSwap {
			// Compressed mode proves the full .csrz round trip under
			// load: export the serving snapshot's layout to a container
			// file and swap to it, so the new current serves straight
			// from the file mapping.
			cur, release := srv.Store().Acquire()
			if cur == nil {
				swapDone <- swapReport{err: fmt.Errorf("no current snapshot to export")}
				return
			}
			f, err := os.CreateTemp("", "graphd-selftest-*.csrz")
			if err != nil {
				release()
				swapDone <- swapReport{err: err}
				return
			}
			csrzTmp = f.Name()
			f.Close()
			err = cur.WriteCSRZ(csrzTmp)
			release()
			if err != nil {
				swapDone <- swapReport{err: fmt.Errorf("export .csrz: %w", err)}
				return
			}
			defer os.Remove(csrzTmp)
			swap = server.BuildSpec{
				Name:      swapName,
				Path:      csrzTmp,
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
			return nil
		}
		if err := post(); err != nil {
			swapDone <- swapReport{err: err}
			return
		}
		srv.Store().WaitBuilds()
		if cur := srv.Store().Current(); cur == nil || cur.Name() != swapName {
			swapDone <- swapReport{err: fmt.Errorf("swap snapshot did not become current")}
			return
		}
		if mmapSwap {
			info, ok := srv.Store().Info(swapName)
			if !ok || info.Backend != "compressed" || info.OnDiskBytes == 0 {
				swapDone <- swapReport{err: fmt.Errorf("swap snapshot is not serving from a .csrz mapping (backend %q, on-disk %d)",
					info.Backend, info.OnDiskBytes)}
				return
			}
			fmt.Fprintf(os.Stderr, "graphd: selftest swapped to mmap-backed snapshot (%d bytes on disk, ratio %.2fx)\n",
				info.OnDiskBytes, info.CompressionRatio)
			// Republish the same name from the same file a moment later:
			// the replace retires the mmap-backed snapshot while queries
			// are in flight, which is exactly the drain-before-munmap
			// race the store must win.
			time.Sleep(duration / 6)
			if err := post(); err != nil {
				swapDone <- swapReport{err: fmt.Errorf("mmap republish: %w", err)}
				return
			}
			srv.Store().WaitBuilds()
		}
		swapDone <- swapReport{completed: time.Now()}
	}()

	// Chaos: kill the live graph a third of the way in, hold the outage
	// open briefly (writes 503, reads keep serving the last published
	// snapshot), then rebuild the same name — which recovers it from the
	// checkpoint + WAL, not from the spec. Two single-edge writes land
	// right before the kill so the WAL provably holds batches newer than
	// the last checkpoint: the recovery must replay, not just reload.
	type chaosReport struct {
		completed time.Time
		err       error
	}
	var chaosDone chan chaosReport
	if chaos {
		chaosDone = make(chan chaosReport, 1)
		go func() {
			time.Sleep(duration / 3)
			for _, dst := range []int{1, 2} {
				body := fmt.Sprintf(`{"updates":[{"src":0,"dst":%d,"weight":1}]}`, dst)
				resp, err := http.Post(baseURL+"/v1/snapshots/"+base.Name+"/edges",
					"application/json", strings.NewReader(body))
				if err != nil {
					chaosDone <- chaosReport{err: fmt.Errorf("pre-crash write: %w", err)}
					return
				}
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					chaosDone <- chaosReport{err: fmt.Errorf("pre-crash write rejected: %d", resp.StatusCode)}
					return
				}
			}
			if !srv.Store().CrashLive(base.Name) {
				chaosDone <- chaosReport{err: fmt.Errorf("no live graph %q to crash", base.Name)}
				return
			}
			fmt.Fprintf(os.Stderr, "graphd: chaos: crashed live graph %q (WAL abandoned unflushed beyond fsync)\n", base.Name)
			time.Sleep(duration / 6) // keep the outage open under load
			rebuild := base
			// Republish under the same name without stealing "current":
			// the concurrent hot-swap goroutine owns that assertion.
			rebuild.Activate = false
			if _, err := srv.Store().Build(rebuild); err != nil {
				chaosDone <- chaosReport{err: fmt.Errorf("recovery build: %w", err)}
				return
			}
			fmt.Fprintf(os.Stderr, "graphd: chaos: recovered %q from checkpoint + WAL\n", base.Name)
			chaosDone <- chaosReport{completed: time.Now()}
		}()
	}

	loadEnd := time.Now().Add(duration)
	opts := loadtest.Options{
		BaseURL:  baseURL,
		Clients:  clients,
		Duration: duration,
		Chaos:    chaos,
		// Every 8th read goes out with ?debug=trace so the summary can
		// split heavy-query latency into queue wait vs compute.
		TraceEvery: 8,
	}
	if writeMix > 0 {
		opts.Mix = loadtest.Mix{Neighbors: 60, Rank: 15, TopK: 10, SSSP: 5, Mutate: writeMix}
		opts.MutateSnapshot = base.Name
	}
	res, err := loadtest.Run(opts)
	if err != nil {
		fatal(err)
	}
	swap := <-swapDone
	if swap.err != nil {
		fmt.Fprintln(os.Stderr, "graphd: selftest swap failed:", swap.err)
		return 1
	}
	if swap.completed.After(loadEnd) {
		fmt.Fprintf(os.Stderr,
			"graphd: SELFTEST FAILED: hot swap completed %v after the load ended — swap-under-load was not exercised; increase -duration\n",
			swap.completed.Sub(loadEnd).Round(time.Millisecond))
		return 1
	}
	if mmapSwap {
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
	var crash chaosReport
	if chaos {
		crash = <-chaosDone
		if crash.err != nil {
			fmt.Fprintln(os.Stderr, "graphd: SELFTEST FAILED: chaos:", crash.err)
			return 1
		}
		if crash.completed.After(loadEnd) {
			fmt.Fprintf(os.Stderr,
				"graphd: SELFTEST FAILED: recovery completed %v after the load ended — recovery-under-load was not exercised; increase -duration\n",
				crash.completed.Sub(loadEnd).Round(time.Millisecond))
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
			fmt.Printf("writes: %d batches (%d updates), %d publishes (%d re-reorders, %d relabels), p50 %.1fms p99 %.1fms\n",
				metrics.Writes.Batches, metrics.Writes.Updates, metrics.Writes.Publishes,
				metrics.Writes.Refreshes, metrics.Writes.Relabels,
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
		// two pre-crash sentinel edges) must be in the recovered graph.
		ackedEdges := append(res.AckedEdges, [2]int{0, 1}, [2]int{0, 2})
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
			fmt.Fprintln(os.Stderr, "graphd: SELFTEST FAILED: no write was refused during the outage — the crash window was not exercised under load; increase -duration or -write-mix")
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
			fmt.Fprintln(os.Stderr, "graphd: SELFTEST FAILED: no policy-triggered re-reorder landed during the run; lower -refresh-every or raise -duration")
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

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "graphd:", err)
	os.Exit(1)
}
