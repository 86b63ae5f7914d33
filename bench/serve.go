package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"graphreorder"
	"graphreorder/internal/gen"
	"graphreorder/internal/graph"
	"graphreorder/internal/rng"
	"graphreorder/internal/server"
	"graphreorder/internal/server/loadtest"
)

// serveSnapshot names the one mutable snapshot serve-sd serves.
const serveSnapshot = "bench"

// verifySetSize is how many vertices of the source graph the
// verification reads cycle through.
const verifySetSize = 32

// verifySet is a small model of the source graph: for a few original
// vertices, their out-neighbors and in-degree, kept up to date with every
// acknowledged write. Verification reads are checked against it after
// translating original IDs through the server's /resolve.
type verifySet struct {
	verts []uint32
	index map[uint32]int
	out   [][]uint32
	inDeg []int

	cur  []uint32   // verts in the serving order of the current epoch
	want [][]uint32 // expected neighbors reply: the first 32, in serving IDs
}

// newVerifySet picks vertices with 1..48 out-neighbors, so that resolving
// their neighborhoods stays cheap.
func newVerifySet(seed uint64, g *graph.Graph, size int) *verifySet {
	vs := &verifySet{index: make(map[uint32]int)}
	r := rng.NewStream(seed, 1<<22)
	n := g.NumVertices()
	for tries := 0; len(vs.verts) < size && tries < 100*size; tries++ {
		v := uint32(r.Intn(n))
		d := g.OutDegree(v)
		if _, dup := vs.index[v]; dup || d < 1 || d > 48 {
			continue
		}
		vs.index[v] = len(vs.verts)
		vs.verts = append(vs.verts, v)
		vs.out = append(vs.out, append([]uint32(nil), g.OutNeighbors(v)...))
		vs.inDeg = append(vs.inDeg, g.InDegree(v))
	}
	vs.cur = make([]uint32, len(vs.verts))
	vs.want = make([][]uint32, len(vs.verts))
	return vs
}

// apply folds one acknowledged batch into the model.
func (vs *verifySet) apply(batch []mutation) {
	for _, m := range batch {
		if i, ok := vs.index[m.Src]; ok {
			if m.Remove {
				for j, d := range vs.out[i] {
					if d == m.Dst {
						vs.out[i] = append(vs.out[i][:j], vs.out[i][j+1:]...)
						break
					}
				}
			} else {
				vs.out[i] = append(vs.out[i], m.Dst)
			}
		}
		if i, ok := vs.index[m.Dst]; ok {
			if m.Remove {
				vs.inDeg[i]--
			} else {
				vs.inDeg[i]++
			}
		}
	}
}

// resolve refreshes the serving-order view of the set for the epoch now
// published (a refresh publish may have changed the permutation).
func (vs *verifySet) resolve(admin *httpClient) error {
	cache := make(map[uint32]uint32)
	one := func(v uint32) (uint32, error) {
		if c, ok := cache[v]; ok {
			return c, nil
		}
		var out struct {
			Current uint32 `json:"current"`
		}
		err := admin.getJSON("/v1/snapshots/"+serveSnapshot+"/resolve?v="+strconv.FormatUint(uint64(v), 10), &out)
		cache[v] = out.Current
		return out.Current, err
	}
	for i, v := range vs.verts {
		c, err := one(v)
		if err != nil {
			return err
		}
		vs.cur[i] = c
		// A snapshot stores a neighbor list sorted by original ID and a
		// relabel keeps that order, so the reply is the list's head
		// translated, not re-sorted.
		out := vs.out[i]
		sort.Slice(out, func(a, b int) bool { return out[a] < out[b] })
		want := make([]uint32, 0, min(len(out), 32))
		for _, d := range out[:min(len(out), 32)] {
			cd, err := one(d)
			if err != nil {
				return err
			}
			want = append(want, cd)
		}
		vs.want[i] = want
	}
	return nil
}

// check compares one verification reply with the model.
func (vs *verifySet) check(rep sampledReply) string {
	i := int(rep.op.V)
	var got struct {
		Vertex    uint32   `json:"vertex"`
		Degree    int      `json:"degree"`
		Neighbors []uint32 `json:"neighbors"`
	}
	if err := json.Unmarshal(rep.body, &got); err != nil {
		return fmt.Sprintf("verification read of original vertex %d: bad reply: %v", vs.verts[i], err)
	}
	if got.Vertex != vs.cur[i] {
		return fmt.Sprintf("verification read of original vertex %d: reply is about vertex %d, asked for %d", vs.verts[i], got.Vertex, vs.cur[i])
	}
	if rep.op.Kind == kindDegree {
		if want := vs.inDeg[i] + len(vs.out[i]); got.Degree != want {
			return fmt.Sprintf("original vertex %d: total degree %d, the source graph says %d", vs.verts[i], got.Degree, want)
		}
		return ""
	}
	if got.Degree != len(vs.out[i]) {
		return fmt.Sprintf("original vertex %d: out-degree %d, the source graph says %d", vs.verts[i], got.Degree, len(vs.out[i]))
	}
	if len(got.Neighbors) != len(vs.want[i]) {
		return fmt.Sprintf("original vertex %d: %d neighbors returned, the source graph says %d", vs.verts[i], len(got.Neighbors), len(vs.want[i]))
	}
	for j, nb := range got.Neighbors {
		if nb != vs.want[i][j] {
			return fmt.Sprintf("original vertex %d: neighbor %d is %d, the source graph says %d", vs.verts[i], j, nb, vs.want[i][j])
		}
	}
	return ""
}

// receipt is the part of a write receipt the bench reads.
type receipt struct {
	Epoch     uint64 `json:"epoch"`
	Refreshed bool   `json:"refreshed"`
}

// writePhase is the result of one write phase.
type writePhase struct {
	wall      time.Duration
	lat       []time.Duration
	failed    []string
	acked     [][]mutation
	refreshed int
	reads     int       // completed by the reader beside the writer
	readRates []float64 // its throughput, one sample per chunk
	readFails []string
}

// runWritePhase posts the batches back to back from one client — each
// acknowledged by a receipt, each receipt followed by a read pinned to
// the snapshot that must report the receipt's epoch or a newer one —
// while a second client reads points until the writer is done.
func runWritePhase(writer, reader *httpClient, readerPaths []string, readerOps []pointOp, batches [][]mutation, rec *recorder) writePhase {
	var ph writePhase
	var stop atomic.Bool
	var wg sync.WaitGroup
	var readPhase pointPhase
	wg.Add(1)
	go func() {
		defer wg.Done()
		readPhase = runPointPhase([]*httpClient{reader}, [][]string{readerPaths}, [][]pointOp{readerOps}, rec, &stop)
	}()
	start := time.Now()
	for _, batch := range batches {
		body, _ := json.Marshal(map[string]any{"updates": batch})
		t0 := time.Now()
		status, reply, err := writer.traced(rec, "client.write", "POST", "/v1/snapshots/"+serveSnapshot+"/edges", body)
		lat := time.Since(t0)
		if err != nil || status != http.StatusOK {
			ph.failed = append(ph.failed, fmt.Sprintf("POST edges: status %d err %v: %s", status, err, reply))
			continue
		}
		var rc receipt
		if err := json.Unmarshal(reply, &rc); err != nil || rc.Epoch == 0 {
			ph.failed = append(ph.failed, fmt.Sprintf("POST edges: bad receipt %q", reply))
			continue
		}
		var pinned struct {
			Epoch uint64 `json:"epoch"`
		}
		if err := writer.getJSON("/v1/query/degree?v=0&snapshot="+serveSnapshot, &pinned); err != nil {
			ph.failed = append(ph.failed, "read after write: "+err.Error())
			continue
		}
		if pinned.Epoch < rc.Epoch {
			ph.failed = append(ph.failed, fmt.Sprintf("read after write reports epoch %d, older than the receipt's %d", pinned.Epoch, rc.Epoch))
			continue
		}
		ph.lat = append(ph.lat, lat)
		ph.acked = append(ph.acked, batch)
		if rc.Refreshed {
			ph.refreshed++
		}
	}
	ph.wall = time.Since(start)
	stop.Store(true)
	wg.Wait()
	ph.reads, ph.readRates, ph.readFails = readPhase.done, readPhase.rates, readPhase.failed
	return ph
}

// serveSamples collects what the measured cycles produced.
type serveSamples struct {
	pointRates, rwRates []float64
	pointLat            []time.Duration
	scan, write         []time.Duration
	allScan             []time.Duration // traced cycles included
	tracedWall, wall    []time.Duration
	queueUs, compMs     []float64
	refreshed, batches  int
}

// checkSSSP recomputes cold SSSP answers with the library on the snapshot
// that served them and compares the summaries.
func checkSSSP(g graph.View, samples []scanSample) []string {
	var bad []string
	for _, s := range samples {
		res, err := graphreorder.Run(context.Background(), g, graphreorder.AppSSSP,
			graphreorder.WithRoot(s.src), graphreorder.WithWorkers(1))
		if err != nil {
			bad = append(bad, fmt.Sprintf("SSSP from %d: %v", s.src, err))
			continue
		}
		reached, unreachable, maxDist := 0, 0, int64(0)
		for _, d := range res.Distances() {
			if d == graphreorder.InfDistance {
				unreachable++
			} else {
				reached++
				maxDist = max(maxDist, d)
			}
		}
		if s.reply.Reached != reached || s.reply.Unreachable != unreachable || s.reply.MaxDistance != maxDist {
			bad = append(bad, fmt.Sprintf("SSSP from %d: server says reached %d / unreachable %d / max %d, the library says %d / %d / %d",
				s.src, s.reply.Reached, s.reply.Unreachable, s.reply.MaxDistance, reached, unreachable, maxDist))
		}
	}
	return bad
}

// runServe is serve-sd: an in-process graphd on a loopback listener,
// 1+K cycles of three phases (point reads, cold SSSP, writes beside a
// reader).
func runServe(r *run) error {
	sz := r.sz
	r.note("server.Config{} defaults: durability off (graphd's default flush policy), 5%% trace sampling, loggers discard")

	r.setup.start()
	srv := server.New(server.Config{Workers: r.w})
	t0 := time.Now()
	snap, err := srv.Store().Build(server.BuildSpec{
		Name: serveSnapshot, Dataset: "sd", Scale: sz.ServeScale, Technique: "dbg", Mutable: true, Activate: true,
	})
	buildWall := time.Since(t0)
	if err != nil {
		return fmt.Errorf("snapshot build: %w", err)
	}
	handler := srv.Handler()
	if r.rec != nil {
		handler = r.rec.middleware(handler)
	}
	ln, err := listenLoopback(handler)
	if err != nil {
		return err
	}
	r.setup.stop()
	defer func() {
		ln.close()
		stopServer(srv)
	}()
	n := snap.Graph().NumVertices()

	// The fixed, seeded work of the whole run.
	cycles := r.units + 1
	h := newOpHasher()
	ops := make([][]pointOp, r.w)
	for c := range ops {
		ops[c] = genPointOps(r.seed, uint64(c), n, sz.ServePointOps, httpMix, verifySetSize)
		h.points(ops[c])
	}
	sources := coldSources(r.seed, n, cycles*r.w*sz.ServeSSSP)
	h.vertices(sources)
	batches := genBatches(r.seed, n, cycles*sz.ServeBatches, 4)
	h.batches(batches)
	r.opsHash = h.sum()

	scale, err := gen.ParseScale(sz.ServeScale)
	if err != nil {
		return err
	}
	source, err := gen.Generate(gen.MustDataset("sd", scale))
	if err != nil {
		return err
	}
	vs := newVerifySet(r.seed, source, verifySetSize)
	source = nil

	clients := make([]*httpClient, r.w)
	for c := range clients {
		clients[c] = newHTTPClient(ln.url)
		defer clients[c].close()
	}
	admin := newHTTPClient(ln.url)
	defer admin.close()
	// The reader beside the writer has a connection of its own: with one
	// client (W = 1) it would otherwise share the writer's.
	reader := newHTTPClient(ln.url)
	defer reader.close()
	target := func(op pointOp) string {
		if op.Verify {
			return op.path(vs.cur[op.V])
		}
		return op.path(op.V)
	}

	var ss serveSamples
	var meter rssMeter
	var measuredStart time.Time
	var firstScans []scanSample
	var firstScanGraph graph.View
	var inserted [][2]int

	for unit := 0; unit <= r.units; unit++ {
		// Outside every timer: bring the verification set to this epoch.
		if err := vs.resolve(admin); err != nil {
			return fmt.Errorf("resolving the verification set: %w", err)
		}
		paths := renderPaths(ops, target)
		if unit == 0 {
			r.setup.start()
		}
		if unit == 1 {
			meter.start()
			measuredStart = time.Now()
			firstScanGraph = srv.Store().Current().Graph()
		}
		traced := r.tracedUnit(unit)
		r.rec.enable(traced)
		unitStart := time.Now()

		quiesce()
		pp := runPointPhase(clients, paths, ops, r.rec, nil)
		quiesce()
		sp := runScanPhase(clients, splitSources(sources, r.w, sz.ServeSSSP, unit), r.rec, true)
		quiesce()
		wp := runWritePhase(clients[0], reader, paths[r.w-1], ops[r.w-1],
			batches[unit*sz.ServeBatches:(unit+1)*sz.ServeBatches], r.rec)
		unitWall := time.Since(unitStart)
		r.rec.enable(false)
		if unit == 0 {
			r.setup.stop()
		}

		// Verification and bookkeeping, outside every timer. The point
		// replies predate this cycle's writes, so they are checked before
		// the model takes the writes in.
		var verifyBad []string
		for _, rep := range pp.verified {
			if msg := vs.check(rep); msg != "" {
				verifyBad = append(verifyBad, msg)
			}
		}
		for _, batch := range wp.acked {
			vs.apply(batch)
			for _, m := range batch {
				if m.Remove {
					for i := len(inserted) - 1; i >= 0; i-- {
						if inserted[i] == [2]int{int(m.Src), int(m.Dst)} {
							inserted = append(inserted[:i], inserted[i+1:]...)
							break
						}
					}
				} else {
					inserted = append(inserted, [2]int{int(m.Src), int(m.Dst)})
				}
			}
		}
		if unit == 0 {
			for _, b := range concat(pp.failed, sp.failed, wp.failed, wp.readFails, verifyBad) {
				r.problem("warm-up: %s", b)
			}
			continue
		}
		if unit == 1 {
			firstScans = sp.samples[:min(4, len(sp.samples))]
		}
		r.attempt(classPoint, pp.done+wp.reads)
		r.attempt(classScan, len(sp.samples)+len(sp.failed))
		r.attempt(classWrite, len(wp.lat)+len(wp.failed))
		for _, b := range concat(pp.failed, wp.readFails, verifyBad) {
			r.failOp(classPoint, "cycle %d: %s", unit, b)
		}
		for _, b := range sp.failed {
			r.failOp(classScan, "cycle %d: %s", unit, b)
		}
		for _, b := range wp.failed {
			r.failOp(classWrite, "cycle %d: %s", unit, b)
		}
		for _, s := range sp.samples {
			ss.allScan = append(ss.allScan, s.lat)
		}
		if traced {
			ss.tracedWall = append(ss.tracedWall, unitWall)
			ss.queueUs = append(ss.queueUs, sp.queueUs...)
			ss.compMs = append(ss.compMs, sp.compMs...)
			continue
		}
		ss.wall = append(ss.wall, unitWall)
		ss.pointRates = append(ss.pointRates, pp.rates...)
		ss.pointLat = append(ss.pointLat, pp.lat...)
		ss.rwRates = append(ss.rwRates, wp.readRates...)
		for _, s := range sp.samples {
			ss.scan = append(ss.scan, s.lat)
		}
		ss.write = append(ss.write, wp.lat...)
		ss.refreshed += wp.refreshed
		ss.batches += len(wp.lat)
	}
	r.measured = time.Since(measuredStart)
	r.setE2E("peak_rss_mb", meter.peakMiB(), 1)

	// End-of-run verification.
	for _, b := range checkSSSP(firstScanGraph, firstScans) {
		r.failOp(classScan, "%s", b)
	}
	if len(firstScans) == 0 {
		r.problem("no cold SSSP answer was available to check against the library")
	}
	if err := loadtest.VerifyAcked(ln.url, serveSnapshot, inserted); err != nil {
		r.failOp(classWrite, "%v", err)
	}
	r.note("verified %d acknowledged insertions, %d cold SSSP answers and every %dth point reply", len(inserted), len(firstScans), verifyEvery)

	r.setLayer("e2e.scan_p50_ms", median(durationsMs(ss.scan)), len(ss.scan))
	r.setLayer("e2e.point_ops_s", median(ss.pointRates), len(ss.pointRates))
	r.setLayer("e2e.write_p50_ms", median(durationsMs(ss.write)), len(ss.write))
	// For the p95 a traced run pools the scans of all its cycles (a client
	// span costs microseconds against tens of milliseconds), because half
	// of them would leave fewer than ten samples beyond it.
	all := sorted(durationsMs(ss.allScan))
	if samplesBeyond(len(all), 95) >= 10 {
		r.setLayer("e2e.scan_p95_ms", percentile(all, 95), len(all))
	}
	r.setLayer("e2e.point_rw_ops_s", median(ss.rwRates), len(ss.rwRates))
	r.note("%d of %d publishes re-reordered", ss.refreshed, ss.batches)
	if !r.traced {
		return nil
	}
	r.setLayer("bench.trace_overhead_pct", overheadPct(ss.tracedWall, ss.wall), len(ss.tracedWall))
	r.setLayer("server.build_ms", ms(buildWall), 1)
	return probeServe(r, srv, admin, &ss)
}

func concat(lists ...[]string) []string {
	var out []string
	for _, l := range lists {
		out = append(out, l...)
	}
	return out
}
