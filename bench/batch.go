package main

import (
	"context"
	"fmt"
	"math"
	"path/filepath"
	"time"

	"graphreorder"
	"graphreorder/internal/csrz"
	"graphreorder/internal/gen"
	"graphreorder/internal/graph"
	"graphreorder/internal/reorder"
)

// suiteMaxIters bounds PR and PRD so that one suite is a fixed amount of
// work whatever the convergence behaviour.
const suiteMaxIters = 10

// batchConfig is the batch workloads' graph: the sd stand-in (skewed,
// unstructured) with its fixed generator seed.
func batchConfig(sz sizes) (gen.Config, error) {
	scale, err := gen.ParseScale(sz.BatchScale)
	if err != nil {
		return gen.Config{}, err
	}
	cfg, err := gen.Dataset("sd", scale)
	if err != nil {
		return gen.Config{}, err
	}
	if sz.BatchVertices > 0 {
		cfg.NumVertices = sz.BatchVertices
	}
	return cfg, nil
}

// suiteInputs are the suite's fixed inputs in original vertex IDs: the
// highest out-degree vertex as the SSSP/BC root and 16 evenly spaced
// Radii samples. They do not depend on -seed.
func suiteInputs(g *graph.Graph) (root graph.VertexID, samples []graph.VertexID) {
	n := g.NumVertices()
	for v := 0; v < n; v++ {
		if g.OutDegree(graph.VertexID(v)) > g.OutDegree(root) {
			root = graph.VertexID(v)
		}
	}
	samples = make([]graph.VertexID, 16)
	for i := range samples {
		samples[i] = graph.VertexID((i*n/16 + 7) % n)
	}
	return root, samples
}

// appRun is one application run of a suite.
type appRun struct {
	wall    time.Duration
	compute time.Duration
	edges   uint64
	iters   int
}

// suiteResult holds the five result vectors of one suite, indexed by the
// vertex IDs of the graph it ran on.
type suiteResult struct {
	wall   time.Duration
	apps   map[string]appRun
	ranks  map[string][]float64 // PR, PRD, BC
	dist   []int64
	radii  []int32
	failed []string
}

// runSuite runs PR, PRD, SSSP, BC and Radii back to back on g. perm maps
// the fixed original inputs into g's ID space (nil for the original
// order). rec and op record one child span per application.
func runSuite(g graph.View, perm reorder.Permutation, root graph.VertexID, samples []graph.VertexID,
	workers int, rec *recorder, parent, op int64) suiteResult {
	mapped := func(v graph.VertexID) graph.VertexID {
		if perm != nil {
			return perm[v]
		}
		return v
	}
	ms := make([]graph.VertexID, len(samples))
	for i, s := range samples {
		ms[i] = mapped(s)
	}
	res := suiteResult{apps: make(map[string]appRun), ranks: make(map[string][]float64)}
	start := time.Now()
	for _, name := range appNames {
		app, err := graphreorder.AppByName(name)
		if err != nil {
			res.failed = append(res.failed, err.Error())
			continue
		}
		id := rec.begin(parent, op, "apps."+name)
		t0 := time.Now()
		out, err := graphreorder.Run(context.Background(), g, app,
			graphreorder.WithWorkers(workers), graphreorder.WithMaxIters(suiteMaxIters),
			graphreorder.WithRoot(mapped(root)), graphreorder.WithSamples(ms))
		wall := time.Since(t0)
		rec.end(id)
		if err != nil {
			res.failed = append(res.failed, fmt.Sprintf("%s: %v", name, err))
			continue
		}
		res.apps[name] = appRun{wall: wall, compute: out.Compute, edges: out.EdgesTraversed, iters: out.Iterations}
		switch name {
		case "SSSP":
			res.dist = out.Distances()
		case "Radii":
			res.radii = out.Eccentricities()
		default:
			res.ranks[name], _ = out.Values().([]float64)
		}
	}
	res.wall = time.Since(start)
	return res
}

// relL1Tolerance bounds the relative L1 distance of the float results
// (PR, PRD, BC) from the reference; the integer results must be equal.
const relL1Tolerance = 1e-6

// compareSuite checks got, computed on a graph relabeled by perm, against
// ref, computed with one worker on the original order. Parallel push
// applications add floats in scheduling order, so their results are
// compared by distance, never bit by bit.
func compareSuite(ref, got suiteResult, perm reorder.Permutation) []string {
	var bad []string
	bad = append(bad, got.failed...)
	at := func(v int) int {
		if perm != nil {
			return int(perm[v])
		}
		return v
	}
	for _, name := range []string{"PR", "PRD", "BC"} {
		want, have := ref.ranks[name], got.ranks[name]
		if len(want) == 0 || len(have) != len(want) {
			bad = append(bad, fmt.Sprintf("%s: result has %d values, reference %d", name, len(have), len(want)))
			continue
		}
		var diff, norm float64
		for v, x := range want {
			diff += math.Abs(have[at(v)] - x)
			norm += math.Abs(x)
		}
		if norm == 0 || diff/norm > relL1Tolerance || math.IsNaN(diff) {
			bad = append(bad, fmt.Sprintf("%s: relative L1 distance %.3g from the reference exceeds %g", name, diff/norm, relL1Tolerance))
		}
	}
	if len(ref.dist) == 0 || len(got.dist) != len(ref.dist) {
		bad = append(bad, "SSSP: result length differs from the reference")
	} else {
		for v, d := range ref.dist {
			if got.dist[at(v)] != d {
				bad = append(bad, fmt.Sprintf("SSSP: distance of original vertex %d is %d, reference %d", v, got.dist[at(v)], d))
				break
			}
		}
	}
	if len(ref.radii) == 0 || len(got.radii) != len(ref.radii) {
		bad = append(bad, "Radii: result length differs from the reference")
	} else {
		for v, e := range ref.radii {
			if got.radii[at(v)] != e {
				bad = append(bad, fmt.Sprintf("Radii: eccentricity of original vertex %d is %d, reference %d", v, got.radii[at(v)], e))
				break
			}
		}
	}
	return bad
}

// batchState is what both batch workloads share: the graph, the fixed
// inputs and the one-worker reference on the original order.
type batchState struct {
	orig    *graph.Graph
	root    graph.VertexID
	samples []graph.VertexID
	ref     suiteResult
	dbg     reorder.Result      // the set-up layout; runBatch drops it before measuring
	perm    reorder.Permutation // its permutation, which every later DBG run must reproduce
	last    *graph.Graph        // the last round's layout, kept for the layer probes
	genTime time.Duration
}

// prepareBatch generates the graph and reorders it once (both timed as
// set-up), then computes the reference (not timed: verification). The
// batch workloads draw nothing from -seed: their inputs are the fixed
// dataset, root and Radii samples, so every seed runs the same operations.
func prepareBatch(r *run) (*batchState, error) {
	cfg, err := batchConfig(r.sz)
	if err != nil {
		return nil, err
	}
	st := &batchState{}
	r.setup.start()
	t0 := time.Now()
	st.orig, err = gen.Generate(cfg)
	st.genTime = time.Since(t0)
	if err != nil {
		return nil, err
	}
	st.dbg, err = reorder.PlanOf(reorder.NewDBG()).ApplyWorkers(st.orig, graph.OutDegree, r.w)
	r.setup.stop()
	if err != nil {
		return nil, err
	}
	st.perm = st.dbg.Perm
	st.root, st.samples = suiteInputs(st.orig)
	st.ref = runSuite(st.orig, nil, st.root, st.samples, 1, nil, 0, 0)
	if len(st.ref.failed) > 0 {
		return nil, fmt.Errorf("reference suite: %v", st.ref.failed)
	}
	note := "one-worker reference suite on the original order:"
	for _, name := range appNames {
		note += fmt.Sprintf(" %s %.0f ms", name, ms(st.ref.apps[name].wall))
	}
	r.note("%s", note)
	h := newOpHasher()
	h.vertices(append([]graph.VertexID{st.root}, st.samples...))
	r.opsHash = h.sum()
	return st, nil
}

// samePerm reports whether two permutations are equal.
func samePerm(a, b reorder.Permutation) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// batchSamples collects what the measured units of a batch workload
// produced.
type batchSamples struct {
	scan, write      []time.Duration
	tracedWall, wall []time.Duration // unit walls on a traced run
	apps             map[string][]appRun
}

// account books one finished unit and reports whether it was a measured
// one. The warm-up's verification failures become problems of the run; a
// measured unit counts its operations and failures and files its samples:
// on a traced run the traced units feed the per-layer metrics and the
// untraced ones everything else. writeWall is 0 on the workload that
// writes nothing.
func (bs *batchSamples) account(r *run, unit int, unitWall, writeWall time.Duration, s suiteResult, scanBad, writeBad []string) bool {
	if unit == 0 {
		for _, b := range append(scanBad, writeBad...) {
			r.problem("warm-up: %s", b)
		}
		return false
	}
	r.attempt(classScan, 1)
	for _, b := range scanBad {
		r.failOp(classScan, "round %d: %s", unit, b)
	}
	if writeWall > 0 {
		r.attempt(classWrite, 1)
		for _, b := range writeBad {
			r.failOp(classWrite, "round %d: %s", unit, b)
		}
	}
	if !r.tracedUnit(unit) {
		bs.wall = append(bs.wall, unitWall)
		bs.scan = append(bs.scan, s.wall)
		if writeWall > 0 {
			bs.write = append(bs.write, writeWall)
		}
		return true
	}
	bs.tracedWall = append(bs.tracedWall, unitWall)
	if bs.apps == nil {
		bs.apps = make(map[string][]appRun)
	}
	for name, a := range s.apps {
		bs.apps[name] = append(bs.apps[name], a)
	}
	return true
}

// report turns the samples into the end-to-end timings and, on a traced
// run, the application layer's metrics.
func (bs *batchSamples) report(r *run) {
	r.setLayer("e2e.scan_p50_ms", median(durationsMs(bs.scan)), len(bs.scan))
	if len(bs.write) > 0 {
		r.setLayer("e2e.write_p50_ms", median(durationsMs(bs.write)), len(bs.write))
	}
	if !r.traced {
		return
	}
	r.setLayer("bench.trace_overhead_pct", overheadPct(bs.tracedWall, bs.wall), len(bs.tracedWall))
	for _, name := range appNames {
		runs := bs.apps[name]
		if len(runs) == 0 {
			continue
		}
		var walls, rates []float64
		for _, a := range runs {
			walls = append(walls, ms(a.wall))
			if a.compute > 0 {
				rates = append(rates, float64(a.edges)/a.compute.Seconds())
			}
		}
		r.setLayer("apps."+name+"_ms", median(walls), len(walls))
		r.setLayer("apps."+name+"_medges_s", median(rates), len(rates))
		r.setLayer("apps."+name+"_iters", float64(runs[0].iters), len(runs))
	}
}

// runBatch is batch-sd: 1+K rounds of {DBG reorder, app suite on the new
// layout} on the plain backend.
func runBatch(r *run) error {
	st, err := prepareBatch(r)
	if err != nil {
		return err
	}
	plan := reorder.PlanOf(reorder.NewDBG())
	var bs batchSamples
	var meter rssMeter
	var measuredStart time.Time
	var quality reorder.QualityReport

	for unit := 0; unit <= r.units; unit++ {
		if unit == 0 {
			r.setup.start()
		}
		if unit == 1 {
			st.dbg = reorder.Result{} // the measured phase holds one layout at a time
			meter.start()
			measuredStart = time.Now()
		}
		r.rec.enable(r.tracedUnit(unit))
		unitStart := time.Now()

		// write: permutation + CSR rebuild.
		quiesce()
		op := r.rec.newOp()
		t0 := time.Now()
		var res reorder.Result
		if r.rec.active() {
			root := r.rec.begin(0, op, "write")
			r.rec.call(root, op, "reorder.permute", func() { res.Perm, err = plan.Permute(st.orig, graph.OutDegree) })
			if err == nil {
				r.rec.call(root, op, "graph.relabel", func() { res.Graph, err = st.orig.RelabelWorkers(res.Perm, r.w) })
			}
			if err == nil {
				r.rec.call(root, op, "reorder.evaluate", func() { res.Quality = reorder.Evaluate(res.Graph, graph.OutDegree, nil) })
			}
			r.rec.end(root)
		} else {
			res, err = plan.ApplyWorkers(st.orig, graph.OutDegree, r.w)
		}
		writeWall := time.Since(t0)
		if err != nil {
			return fmt.Errorf("reorder: %w", err)
		}

		// scan: the app suite on the new layout.
		quiesce()
		op = r.rec.newOp()
		root := r.rec.begin(0, op, "scan")
		suite := runSuite(res.Graph, res.Perm, st.root, st.samples, r.w, r.rec, root, op)
		r.rec.end(root)
		unitWall := time.Since(unitStart)

		if unit == 0 {
			r.setup.stop()
		}
		// Verification, outside every timer.
		bad := compareSuite(st.ref, suite, res.Perm)
		var writeBad []string
		if !samePerm(res.Perm, st.perm) {
			writeBad = append(writeBad, "DBG produced a different permutation than in set-up")
		}
		st.last = res.Graph
		if !bs.account(r, unit, unitWall, writeWall, suite, bad, writeBad) {
			continue
		}
		if r.tracedUnit(unit) {
			quality = res.Quality
		}
	}
	r.rec.enable(false)
	r.measured = time.Since(measuredStart)
	r.setE2E("peak_rss_mb", meter.peakMiB(), 1)
	bs.report(r)
	if r.traced {
		return probeBatch(r, st, quality)
	}
	return nil
}

// runBatchCSRZ is batch-sd-csrz: the same graph and suite on the
// compressed, memory-mapped backend. Set-up reorders, encodes, writes and
// maps the graph and drops every plain copy; each round runs the suite on
// the mapping and writes nothing.
func runBatchCSRZ(r *run) error {
	st, err := prepareBatch(r)
	if err != nil {
		return err
	}
	path := filepath.Join(r.scratch, "sd.csrz")
	perm := st.perm

	r.setup.start()
	t0 := time.Now()
	enc := csrz.Encode(st.dbg.Graph)
	encodeWall := time.Since(t0)
	t0 = time.Now()
	if err := enc.WriteFile(path); err != nil {
		return fmt.Errorf("csrz write: %w", err)
	}
	writeWall := time.Since(t0)
	ratio := enc.Stats().Ratio
	// Memory is the point of this workload: nothing plain survives.
	enc, st.orig, st.dbg.Graph = nil, nil, nil
	quiesce()
	t0 = time.Now()
	g, err := csrz.OpenFile(path)
	if err != nil {
		return fmt.Errorf("csrz open: %w", err)
	}
	openWall := time.Since(t0)
	r.setup.stop()
	defer g.Close()
	if !g.MmapBacked() {
		r.note("csrz.OpenFile fell back to a heap reader on this platform")
	}

	var bs batchSamples
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
		r.rec.enable(r.tracedUnit(unit))
		unitStart := time.Now()

		quiesce()
		op := r.rec.newOp()
		root := r.rec.begin(0, op, "scan")
		suite := runSuite(g, perm, st.root, st.samples, r.w, r.rec, root, op)
		r.rec.end(root)
		unitWall := time.Since(unitStart)
		if unit == 0 {
			r.setup.stop()
		}

		bs.account(r, unit, unitWall, 0, suite, compareSuite(st.ref, suite, perm), nil)
	}
	r.rec.enable(false)
	r.measured = time.Since(measuredStart)
	r.setE2E("peak_rss_mb", meter.peakMiB(), 1)
	bs.report(r)
	if r.traced {
		r.setLayer("csrz.encode_ms", ms(encodeWall), 1)
		r.setLayer("csrz.write_ms", ms(writeWall), 1)
		r.setLayer("csrz.open_ms", ms(openWall), 1)
		r.setLayer("csrz.ratio", ratio, 1)
		return probeCSRZ(r, g)
	}
	return nil
}
