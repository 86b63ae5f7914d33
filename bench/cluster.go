package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"time"

	"graphreorder/internal/cluster"
	"graphreorder/internal/gen"
	"graphreorder/internal/graph"
	"graphreorder/internal/server"
)

// clusterShards is the size of the cluster: 2 shards, 1 replica each.
const clusterShards = 2

// identityKeys are the reply fields that say which snapshot answered;
// a cluster and a single node differ in them by construction.
var identityKeys = []string{"snapshot", "epoch", "cached", "stale", "rounds"}

// payload decodes a reply and drops the snapshot identity. A missing
// "truncated" means false (the single node omits it).
func payload(body []byte) (map[string]any, error) {
	var m map[string]any
	if err := json.Unmarshal(body, &m); err != nil {
		return nil, err
	}
	for _, k := range identityKeys {
		delete(m, k)
	}
	if _, ok := m["neighbors"]; ok {
		if _, ok := m["truncated"]; !ok {
			m["truncated"] = false
		}
	}
	return m, nil
}

// routerSample is a router reply kept for the end-of-run comparison with
// a single node.
type routerSample struct {
	path string
	body []byte
}

// compareWithSingleNode builds one graphd from the same generator and
// asks it everything the samples asked the router.
func compareWithSingleNode(scale string, workers int, samples []routerSample) ([]string, error) {
	base := server.New(server.Config{Workers: workers})
	defer stopServer(base)
	if _, err := base.Store().Build(server.BuildSpec{
		Name: "base", Dataset: "sd", Scale: scale, Technique: "original", Activate: true,
	}); err != nil {
		return nil, fmt.Errorf("single-node baseline: %w", err)
	}
	h := base.Handler()
	var bad []string
	var w memWriter
	for _, s := range samples {
		status, err := w.serve(h, s.path)
		if err != nil {
			return nil, err
		}
		if status != http.StatusOK {
			bad = append(bad, fmt.Sprintf("single node answers %s with status %d", s.path, status))
			continue
		}
		want, err1 := payload(w.body)
		got, err2 := payload(s.body)
		if err1 != nil || err2 != nil {
			bad = append(bad, fmt.Sprintf("%s: undecodable reply (%v, %v)", s.path, err1, err2))
			continue
		}
		if !reflect.DeepEqual(want, got) {
			bad = append(bad, fmt.Sprintf("%s: router says %v, a single node says %v", s.path, got, want))
		}
	}
	return bad, nil
}

// dropOldEpochs removes every shard snapshot but the serving one, as an
// operator would after a cutover; otherwise each publish would leave a
// graph behind and the run's memory would only grow.
func dropOldEpochs(local *cluster.Local, admin []*httpClient) error {
	_, current := local.Router.Current()
	for _, cl := range admin {
		var list struct {
			Snapshots []server.SnapshotInfo `json:"snapshots"`
		}
		if err := cl.getJSON("/v1/snapshots", &list); err != nil {
			return err
		}
		for _, s := range list.Snapshots {
			if s.Name == current || s.Current {
				continue // a member refuses to drop the snapshot it activated at boot
			}
			if status, body, err := cl.do("DELETE", "/v1/snapshots/"+s.Name, nil, ""); err != nil || status != http.StatusOK {
				return fmt.Errorf("dropping %s: status %d err %v: %s", s.Name, status, err, body)
			}
		}
	}
	return nil
}

// runCluster is cluster-sd: two shards behind the router, 1+K cycles of
// point reads, cold SSSP and epoch publishes, all through the router.
func runCluster(r *run) error {
	sz := r.sz
	scale, err := gen.ParseScale(sz.ServeScale)
	if err != nil {
		return err
	}
	ctx := context.Background()

	r.setup.start()
	g, err := gen.Generate(gen.MustDataset("sd", scale))
	if err != nil {
		return err
	}
	local, err := cluster.StartLocal(ctx, g, cluster.LocalOptions{
		Shards: clusterShards, Replicas: 1, Workers: r.w, Dir: filepath.Join(r.scratch, "cluster"),
	})
	r.setup.stop()
	if err != nil {
		return fmt.Errorf("starting the cluster: %w", err)
	}
	defer local.Close()
	n := g.NumVertices()
	specs := make([]server.BuildSpec, clusterShards)
	for s := range specs {
		specs[s] = server.BuildSpec{Path: local.Layout.GraphPaths[s], RanksPath: local.Layout.RankPaths[s], Technique: "auto"}
	}

	cycles := r.units + 1
	h := newOpHasher()
	ops := make([][]pointOp, r.w)
	for c := range ops {
		ops[c] = genPointOps(r.seed, uint64(c), n, sz.ClusterPointOps, httpMix, 0)
		h.points(ops[c])
	}
	sources := coldSources(r.seed, n, cycles*r.w*sz.ClusterSSSP)
	h.vertices(sources)
	r.opsHash = h.sum()
	paths := renderPaths(ops, func(op pointOp) string { return op.path(op.V) })
	for c := range ops {
		// Every 100th reply is kept and compared with a single node.
		for i := verifyEvery - 1; i < len(ops[c]); i += verifyEvery {
			ops[c][i].Verify = true
		}
	}

	clients := make([]*httpClient, r.w)
	for c := range clients {
		clients[c] = newHTTPClient(local.RouterURL)
		defer clients[c].close()
	}
	members := make([]*httpClient, clusterShards)
	for s := range members {
		members[s] = newHTTPClient(local.MemberURL(s, 0))
		defer members[s].close()
	}

	var scan, write, wall, tracedWall []time.Duration
	var pointRates, rounds []float64
	var samples []routerSample
	var firstScans []scanSample
	var meter rssMeter
	var measuredStart time.Time

	for unit := 0; unit <= r.units; unit++ {
		if unit == 0 {
			r.setup.start()
		}
		if unit == 1 {
			meter.start()
			measuredStart = time.Now()
		}
		traced := r.tracedUnit(unit)
		r.rec.enable(traced)
		unitStart := time.Now()

		quiesce()
		pp := runPointPhase(clients, paths, ops, r.rec, nil)
		quiesce()
		sp := runScanPhase(clients, splitSources(sources, r.w, sz.ClusterSSSP, unit), r.rec, false)
		quiesce()
		var publishLat []time.Duration
		var publishBad []string
		for i := 0; i < sz.ClusterPublishes; i++ {
			op := r.rec.newOp()
			id := r.rec.begin(0, op, "cluster.publish")
			t0 := time.Now()
			_, err := local.Router.PublishEpoch(ctx, specs)
			lat := time.Since(t0)
			r.rec.end(id)
			if err != nil {
				publishBad = append(publishBad, "publish: "+err.Error())
				continue
			}
			publishLat = append(publishLat, lat)
		}
		unitWall := time.Since(unitStart)
		r.rec.enable(false)
		if unit == 0 {
			r.setup.stop()
		}

		if err := dropOldEpochs(local, members); err != nil {
			return err
		}
		if unit == 0 {
			for _, b := range concat(pp.failed, sp.failed, publishBad) {
				r.problem("warm-up: %s", b)
			}
			continue
		}
		if unit == 1 {
			firstScans = sp.samples[:min(4, len(sp.samples))]
		}
		for _, rep := range pp.verified {
			samples = append(samples, routerSample{path: paths[rep.client][rep.index], body: rep.body})
		}
		r.attempt(classPoint, pp.done)
		r.attempt(classScan, len(sp.samples)+len(sp.failed))
		r.attempt(classWrite, sz.ClusterPublishes)
		for _, b := range pp.failed {
			r.failOp(classPoint, "cycle %d: %s", unit, b)
		}
		for _, b := range sp.failed {
			r.failOp(classScan, "cycle %d: %s", unit, b)
		}
		for _, b := range publishBad {
			r.failOp(classWrite, "cycle %d: %s", unit, b)
		}
		for _, s := range sp.samples {
			rounds = append(rounds, float64(s.reply.Rounds))
		}
		if traced {
			tracedWall = append(tracedWall, unitWall)
			continue
		}
		wall = append(wall, unitWall)
		pointRates = append(pointRates, pp.rates...)
		for _, s := range sp.samples {
			scan = append(scan, s.lat)
		}
		write = append(write, publishLat...)
	}
	r.measured = time.Since(measuredStart)
	r.setE2E("peak_rss_mb", meter.peakMiB(), 1)

	// End-of-run verification against a single node on the same graph.
	for _, s := range firstScans {
		path := "/v1/query/sssp?src=" + strconv.FormatUint(uint64(s.src), 10)
		samples = append(samples, routerSample{path: path, body: s.body})
	}
	bad, err := compareWithSingleNode(sz.ServeScale, r.w, samples)
	if err != nil {
		return err
	}
	for _, b := range bad {
		class := classPoint
		if strings.Contains(b, "/sssp") {
			class = classScan
		}
		r.failOp(class, "%s", b)
	}
	r.note("compared %d router replies with a single node built from the same graph", len(samples))

	r.setLayer("e2e.scan_p50_ms", median(durationsMs(scan)), len(scan))
	r.setLayer("e2e.point_ops_s", median(pointRates), len(pointRates))
	r.setLayer("e2e.write_p50_ms", median(durationsMs(write)), len(write))
	if !r.traced {
		return nil
	}
	r.setLayer("bench.trace_overhead_pct", overheadPct(tracedWall, wall), len(tracedWall))
	r.setLayer("cluster.sssp_relax_rounds", median(rounds), len(rounds))
	return probeCluster(r, g, local, clients[0], members[0], ops[0])
}

// probeCluster fills the cluster.* metrics.
func probeCluster(r *run, g *graph.Graph, local *cluster.Local, router, member *httpClient, ops []pointOp) error {
	ctx := context.Background()
	r.setLayer("cluster.balance_max_mean", local.Balance.Balance, 1)
	r.setLayer("cluster.replicated_hubs", float64(local.Balance.ReplicatedHubs), 1)

	var part *cluster.Result
	v, k, err := timeReps(heavyReps, ms, func() error {
		var err error
		part, err = cluster.Partition(g, cluster.Options{Shards: clusterShards, Workers: r.w})
		return err
	})
	if err != nil {
		return err
	}
	r.setLayer("cluster.partition_ms", v, k)
	var ranks []float64
	var iters int
	var checksum float64
	v, k, err = timeReps(heavyReps, ms, func() error {
		var err error
		ranks, iters, checksum, err = cluster.GlobalRanks(ctx, g, r.w)
		return err
	})
	if err != nil {
		return err
	}
	r.setLayer("cluster.global_ranks_ms", v, k)
	v, k, err = timeReps(heavyReps, ms, func() error {
		_, err := cluster.WriteLayout(part, filepath.Join(r.scratch, "probe-layout"), ranks, iters, checksum)
		return err
	})
	if err != nil {
		return err
	}
	r.setLayer("cluster.layout_write_ms", v, k)

	// The hop: the same neighbor reads through the router and straight at
	// shard 0, one client each.
	_, snapshot := local.Router.Current()
	var viaRouter, direct []time.Duration
	for _, op := range ops {
		if op.Kind != kindNeighbors || len(viaRouter) >= 400*r.sz.ProbeReps {
			continue
		}
		id := strconv.FormatUint(uint64(op.V), 10)
		t0 := time.Now()
		status, _, err := router.get(op.path(op.V))
		viaRouter = append(viaRouter, time.Since(t0))
		if err != nil || status != http.StatusOK {
			return fmt.Errorf("hop probe via router: status %d err %v", status, err)
		}
		t0 = time.Now()
		status, _, err = member.get("/v1/query/neighbors?snapshot=" + snapshot + "&ids=orig&v=" + id + "&dir=out&limit=32")
		direct = append(direct, time.Since(t0))
		if err != nil || status != http.StatusOK {
			return fmt.Errorf("hop probe at the shard: status %d err %v", status, err)
		}
	}
	r.setLayer("cluster.hop_us", median(durationsUs(viaRouter))-median(durationsUs(direct)), len(viaRouter))

	var rep cluster.RouterReport
	if err := router.getJSON("/metrics", &rep); err != nil {
		return err
	}
	var requests uint64
	for name, rs := range rep.Routes {
		if strings.HasPrefix(name, "query.") {
			requests += rs.Requests
		}
	}
	if requests > 0 {
		r.setLayer("cluster.shard_reqs_per_req", float64(rep.Fanouts)/float64(requests), int(requests))
	}
	return nil
}
