package main

import (
	"context"
	"fmt"
	"net/http"
	"path/filepath"
	"strconv"
	"time"

	"graphreorder"
	"graphreorder/internal/apps"
	"graphreorder/internal/dynamic"
	"graphreorder/internal/gen"
	"graphreorder/internal/graph"
	"graphreorder/internal/reorder"
	"graphreorder/internal/server"
	"graphreorder/internal/trace"
	"graphreorder/internal/wal"
)

// directLatencies calls the handler without a socket, once per path, and
// returns the per-call latencies.
func directLatencies(h http.Handler, paths []string) ([]time.Duration, error) {
	lat := make([]time.Duration, 0, len(paths))
	var w memWriter
	for _, p := range paths {
		t0 := time.Now()
		status, err := w.serve(h, p)
		lat = append(lat, time.Since(t0))
		if err != nil || status != http.StatusOK {
			return nil, fmt.Errorf("handler-direct GET %s: status %d err %v", p, status, err)
		}
	}
	return lat, nil
}

// pathsOfKind renders up to limit point reads of one kind.
func pathsOfKind(ops []pointOp, kind uint8, limit int, suffix string) []string {
	var out []string
	for _, op := range ops {
		if op.Kind == kind && !op.Verify && len(out) < limit {
			out = append(out, op.path(op.V)+suffix)
		}
	}
	return out
}

// probeServe fills the server, obs, dynamic, wal and cachesim metrics of
// serve-sd.
func probeServe(r *run, srv *server.Server, admin *httpClient, ss *serveSamples) error {
	sz := r.sz
	h := srv.Handler()
	n := srv.Store().Current().Graph().NumVertices()
	probeOps := genPointOps(r.seed, 1<<23, n, 20000, httpMix, 0)
	perKind := 400 * sz.ProbeReps

	// Handler-direct route costs.
	var directNeighbors []time.Duration
	for kind, name := range kindNames {
		quiesce()
		lat, err := directLatencies(h, pathsOfKind(probeOps, uint8(kind), perKind, ""))
		if err != nil {
			return err
		}
		r.setLayer("server."+name+"_us", median(durationsUs(lat)), len(lat))
		if kind == kindNeighbors {
			directNeighbors = lat
		}
	}

	// The same route over the socket, one client: the difference is what
	// net/http and the loopback cost.
	quiesce()
	var socket []time.Duration
	for _, p := range pathsOfKind(probeOps, kindNeighbors, perKind, "") {
		t0 := time.Now()
		status, _, err := admin.get(p)
		socket = append(socket, time.Since(t0))
		if err != nil || status != http.StatusOK {
			return fmt.Errorf("socket probe GET %s: status %d err %v", p, status, err)
		}
	}
	r.setLayer("server.http_overhead_us", median(durationsUs(socket))-median(durationsUs(directNeighbors)), len(socket))
	if samplesBeyond(len(ss.pointLat), 99) >= 10 {
		r.setLayer("server.point_p99_us", percentile(sorted(durationsUs(ss.pointLat)), 99), len(ss.pointLat))
	}

	// SSSP: cold sources nobody used, then one source again and again.
	cold := coldSources(r.seed+1, n, 8)
	var coldPaths []string
	for _, s := range cold {
		coldPaths = append(coldPaths, "/v1/query/sssp?src="+strconv.FormatUint(uint64(s), 10))
	}
	quiesce()
	lat, err := directLatencies(h, coldPaths)
	if err != nil {
		return err
	}
	r.setLayer("server.sssp_cold_ms", median(durationsMs(lat)), len(lat))
	cached := make([]string, 100*sz.ProbeReps)
	for i := range cached {
		cached[i] = coldPaths[0]
	}
	if lat, err = directLatencies(h, cached); err != nil {
		return err
	}
	r.setLayer("server.sssp_cached_us", median(durationsUs(lat)), len(lat))
	if len(ss.queueUs) > 0 {
		r.setLayer("server.queue_p50_us", median(ss.queueUs), len(ss.queueUs))
		r.setLayer("server.compute_p50_ms", median(ss.compMs), len(ss.compMs))
	}

	// The two cheapest routes on a compressed twin of the snapshot.
	if _, err := srv.Store().Build(server.BuildSpec{
		Name: "benchz", Dataset: "sd", Scale: sz.ServeScale, Technique: "dbg", Backend: "compressed",
	}); err != nil {
		return fmt.Errorf("compressed snapshot: %w", err)
	}
	for _, kind := range []int{kindNeighbors, kindDegree} {
		quiesce()
		lat, err := directLatencies(h, pathsOfKind(probeOps, uint8(kind), perKind, "&snapshot=benchz"))
		if err != nil {
			return err
		}
		r.setLayer("server."+kindNames[kind]+"_csrz_us", median(durationsUs(lat)), len(lat))
	}
	if err := srv.Store().Drop("benchz"); err != nil {
		return err
	}

	// The server's own counters.
	var rep server.MetricsReport
	if err := admin.getJSON("/metrics", &rep); err != nil {
		return err
	}
	if total := rep.Cache.Hits + rep.Cache.Misses; total > 0 {
		r.setLayer("server.cache_hit_ratio", float64(rep.Cache.Hits)/float64(total), int(total))
	}
	r.setLayer("server.publishes", float64(rep.Writes.Publishes), 1)
	if rep.Writes.Publishes > 0 {
		r.setLayer("server.refresh_share", float64(rep.Writes.Refreshes)/float64(rep.Writes.Publishes), int(rep.Writes.Publishes))
	}

	if err := probeSampling(r); err != nil {
		return err
	}
	if err := probePublish(r); err != nil {
		return err
	}
	if err := probeWAL(r); err != nil {
		return err
	}
	return probeCacheSim(r)
}

// probeSampling prices the default trace sampling: two fresh servers that
// differ only in TraceSample (the default against -1, tracing off) take
// the point phase in turns, so that both see the same process and the
// same minutes of the host.
func probeSampling(r *run) error {
	sz := r.sz
	var rates [2][]float64 // sampling on, sampling off
	var phases [2]func() error
	for i, sample := range []float64{0, -1} {
		srv := server.New(server.Config{Workers: r.w, TraceSample: sample})
		defer stopServer(srv)
		if _, err := srv.Store().Build(server.BuildSpec{
			Name: serveSnapshot, Dataset: "sd", Scale: sz.ServeScale, Technique: "dbg", Activate: true,
		}); err != nil {
			return err
		}
		ln, err := listenLoopback(srv.Handler())
		if err != nil {
			return err
		}
		defer ln.close()
		n := srv.Store().Current().Graph().NumVertices()
		ops := make([][]pointOp, r.w)
		clients := make([]*httpClient, r.w)
		for c := range ops {
			ops[c] = genPointOps(r.seed, uint64(c), n, sz.ServePointOps, httpMix, 0)
			clients[c] = newHTTPClient(ln.url)
			defer clients[c].close()
		}
		paths := renderPaths(ops, func(op pointOp) string { return op.path(op.V) })
		phases[i] = func() error {
			quiesce()
			ph := runPointPhase(clients, paths, ops, nil, nil)
			if len(ph.failed) > 0 {
				return fmt.Errorf("sampling probe: %s", ph.failed[0])
			}
			rates[i] = append(rates[i], ph.rates...)
			return nil
		}
	}
	for round := 0; round < 3; round++ { // round 0 warms both servers up
		for i := range phases {
			if err := phases[i](); err != nil {
				return err
			}
		}
		if round == 0 {
			rates = [2][]float64{}
		}
	}
	if on, off := median(rates[0]), median(rates[1]); off > 0 {
		r.setLayer("obs.sampling_cost_pct", 100*(off-on)/off, len(rates[0]))
	}
	return nil
}

// probePublish shadows what one live publish does, through public
// functions on a copy of the graph: apply the batch, snapshot, relabel (or
// re-reorder) the view, recompute PageRank. What is left of the measured
// write latency is unattributed.
func probePublish(r *run) error {
	scale, err := gen.ParseScale(r.sz.ServeScale)
	if err != nil {
		return err
	}
	g, err := gen.Generate(gen.MustDataset("sd", scale))
	if err != nil {
		return err
	}
	d := dynamic.FromGraph(g)
	rr := dynamic.NewReorderer(reorder.NewDBG(), graph.OutDegree, dynamic.Policy{Every: 8})
	rr.Workers = r.w
	if _, _, err := rr.View(d); err != nil {
		return err
	}
	batches := genBatches(r.seed+2, g.NumVertices(), 16, 4)
	var applyUs, snapMs, relabelMs, refreshMs []float64
	var view *graph.Graph
	for _, b := range batches {
		updates := toUpdates(b)
		quiesce()
		t0 := time.Now()
		if err := d.Apply(updates); err != nil {
			return err
		}
		applyUs = append(applyUs, us(time.Since(t0)))
		t0 = time.Now()
		if _, err := d.Snapshot(); err != nil {
			return err
		}
		snapMs = append(snapMs, ms(time.Since(t0)))
		before := rr.Refreshes
		quiesce()
		t0 = time.Now()
		if view, _, err = rr.View(d); err != nil {
			return err
		}
		if rr.Refreshes > before {
			refreshMs = append(refreshMs, ms(time.Since(t0)))
		} else {
			relabelMs = append(relabelMs, ms(time.Since(t0)))
		}
	}
	r.setLayer("dynamic.apply_us", median(applyUs), len(applyUs))
	r.setLayer("dynamic.snapshot_ms", median(snapMs), len(snapMs))
	r.setLayer("dynamic.view_relabel_ms", median(relabelMs), len(relabelMs))
	r.setLayer("dynamic.view_refresh_ms", median(refreshMs), len(refreshMs))
	pr, k, err := timeReps(r.sz.ProbeReps, ms, func() error {
		_, err := graphreorder.Run(context.Background(), view, graphreorder.AppPR, graphreorder.WithWorkers(r.w))
		return err
	})
	if err != nil {
		return err
	}
	r.setLayer("server.publish_pr_ms", pr, k)
	if w, ok := r.layer["e2e.write_p50_ms"]; ok {
		r.setLayer("server.publish_unattributed_ms",
			w.Value-median(applyUs)/1000-median(snapMs)-median(relabelMs)-pr, w.N)
	}
	return nil
}

// toUpdates converts a generated batch into the library's update type.
func toUpdates(batch []mutation) []dynamic.Update {
	updates := make([]dynamic.Update, len(batch))
	for i, m := range batch {
		updates[i] = dynamic.Update{Remove: m.Remove, Edge: graph.Edge{Src: m.Src, Dst: m.Dst, Weight: m.Weight}}
	}
	return updates
}

// probeWAL times a synced append and the replay of a 128-batch log.
func probeWAL(r *run) error {
	path := filepath.Join(r.scratch, "probe.wal")
	log, err := wal.Open(path, 0, wal.Options{Policy: wal.SyncAlways})
	if err != nil {
		return err
	}
	batches := genBatches(r.seed+3, 1<<16, 128, 4)
	var appendUs []float64
	for i, b := range batches {
		updates := toUpdates(b)
		t0 := time.Now()
		if _, err := log.AppendBatch(uint64(i+1), 0, updates); err != nil {
			log.Close()
			return err
		}
		if err := log.Sync(); err != nil {
			log.Close()
			return err
		}
		appendUs = append(appendUs, us(time.Since(t0)))
	}
	if err := log.Close(); err != nil {
		return err
	}
	r.setLayer("wal.append_sync_us", median(appendUs), len(appendUs))
	v, k, err := timeReps(r.sz.ProbeReps, ms, func() error {
		res, err := wal.Replay(path, 0)
		if err == nil && len(res.Batches) != len(batches) {
			err = fmt.Errorf("wal replay returned %d batches, wrote %d", len(res.Batches), len(batches))
		}
		return err
	})
	if err != nil {
		return err
	}
	r.setLayer("wal.replay_ms", v, k)
	return nil
}

// probeCacheSim replays two PageRank iterations through the cache
// simulator on the original and the DBG order. These are exact counts.
func probeCacheSim(r *run) error {
	scale, err := gen.ParseScale(r.sz.ServeScale)
	if err != nil {
		return err
	}
	g, err := gen.Generate(gen.MustDataset("sd", scale))
	if err != nil {
		return err
	}
	dbg, err := reorder.PlanOf(reorder.NewDBG()).ApplyWorkers(g, graph.OutDegree, r.w)
	if err != nil {
		return err
	}
	spec, err := apps.ByName("PR")
	if err != nil {
		return err
	}
	for _, c := range []struct {
		suffix string
		g      *graph.Graph
	}{{"orig", g}, {"dbg", dbg.Graph}} {
		st, err := trace.Simulate(spec, c.g, nil, trace.MachineFor(scale), 2)
		if err != nil {
			return err
		}
		r.setLayer("cachesim.pr_l2_mpki_"+c.suffix, st.MPKI(2), 1)
		r.setLayer("cachesim.pr_llc_mpki_"+c.suffix, st.MPKI(3), 1)
	}
	return nil
}
