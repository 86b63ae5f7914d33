package main

import (
	"bufio"
	"os"
	"path/filepath"
	"time"

	"graphreorder/internal/csrz"
	"graphreorder/internal/graph"
	"graphreorder/internal/ligra"
	"graphreorder/internal/reorder"
)

// Layer probes run at the end of a traced run, after the measured phase:
// each times one public function of one layer on the workload's own data.
// heavyReps is the repetition count of probes that take about a second.
const heavyReps = 2

// timeReps runs fn reps times with a collection before each and returns
// the median wall in the unit conv produces.
func timeReps(reps int, conv func(time.Duration) float64, fn func() error) (float64, int, error) {
	var xs []float64
	for i := 0; i < max(reps, 1); i++ {
		quiesce()
		t0 := time.Now()
		if err := fn(); err != nil {
			return 0, 0, err
		}
		xs = append(xs, conv(time.Since(t0)))
	}
	return median(xs), len(xs), nil
}

// spanMedianMs is the median duration of the named spans of a traced run.
func spanMedianMs(spans []span, name string) (float64, int) {
	ds := spanDurations(spans, name)
	return median(durationsMs(ds)), len(ds)
}

func noopUpdate(_, _ graph.VertexID) bool { return false }

// edgeMapNsPerEdge times a full-frontier EdgeMap with update functions
// that do nothing: what is left is the kernel's own cost of producing
// every neighbor, per edge.
func edgeMapNsPerEdge(g graph.View, dir ligra.Direction, workers, reps int) (float64, int) {
	n, m := g.NumVertices(), g.NumEdges()
	if m == 0 {
		return 0, 0
	}
	fns := ligra.EdgeMapFns{Update: noopUpdate, UpdatePull: noopUpdate}
	v, k, _ := timeReps(reps, func(d time.Duration) float64 { return float64(d.Nanoseconds()) / float64(m) }, func() error {
		frontier := ligra.FullVertexSet(n)
		out := ligra.EdgeMap(g, frontier, fns, ligra.EdgeMapOpts{Dir: dir, Workers: workers})
		if out != nil {
			out.Release()
		}
		frontier.Release()
		return nil
	})
	return v, k
}

// probeKernels fills the four ligra.* metrics of one backend.
func probeKernels(r *run, g graph.View, infix string) {
	for _, k := range []struct {
		name    string
		dir     ligra.Direction
		workers int
	}{
		{"ligra.pull" + infix + "_ns_edge", ligra.Pull, r.w},
		{"ligra.push" + infix + "_ns_edge", ligra.Push, r.w},
		{"ligra.pull" + infix + "_w1_ns_edge", ligra.Pull, 1},
		{"ligra.push" + infix + "_w1_ns_edge", ligra.Push, 1},
	} {
		v, n := edgeMapNsPerEdge(g, k.dir, k.workers, r.sz.ProbeReps)
		r.setLayer(k.name, v, n)
	}
}

// probeBatch fills the gen, graph, reorder, ligra and apps.*_orig metrics
// of batch-sd.
func probeBatch(r *run, st *batchState, quality reorder.QualityReport) error {
	spans := r.rec.snapshot()
	r.setLayer("gen.generate_s", st.genTime.Seconds(), 1)
	r.setLayer("gen.edges", float64(st.orig.NumEdges()), 1)

	v, n := spanMedianMs(spans, "reorder.permute")
	r.setLayer("reorder.permute_ms", v, n)
	v, n = spanMedianMs(spans, "graph.relabel")
	r.setLayer("reorder.rebuild_ms", v, n)
	r.setLayer("graph.relabel_ms", v, n)
	v, n = spanMedianMs(spans, "reorder.evaluate")
	r.setLayer("reorder.evaluate_ms", v, n)
	r.setLayer("reorder.packing_factor", quality.PackingFactor, 1)
	r.setLayer("reorder.predicted_ratio", quality.PredictedRatio, 1)

	v, n, _ = timeReps(heavyReps, ms, func() error {
		reorder.Advise(st.orig, graph.OutDegree)
		return nil
	})
	r.setLayer("reorder.advise_ms", v, n)

	edges := st.orig.Edges()
	v, n, err := timeReps(heavyReps, ms, func() error {
		_, err := graph.BuildWith(edges, graph.BuildOptions{
			NumVertices: st.orig.NumVertices(), Weighted: st.orig.Weighted(), SortNeighbors: true, Workers: r.w,
		})
		return err
	})
	if err != nil {
		return err
	}
	edges = nil
	r.setLayer("graph.build_ms", v, n)

	path := filepath.Join(r.scratch, "probe.graph")
	v, n, err = timeReps(heavyReps, ms, func() error {
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		w := bufio.NewWriterSize(f, 1<<20)
		if err := graph.WriteBinary(w, st.orig); err != nil {
			f.Close()
			return err
		}
		if err := w.Flush(); err != nil {
			f.Close()
			return err
		}
		return f.Close()
	})
	if err != nil {
		return err
	}
	r.setLayer("graph.write_binary_ms", v, n)
	v, n, err = timeReps(heavyReps, ms, func() error {
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		_, err = graph.ReadBinary(bufio.NewReaderSize(f, 1<<20))
		return err
	})
	if err != nil {
		return err
	}
	r.setLayer("graph.read_binary_ms", v, n)

	probeKernels(r, st.last, "")

	// The suite on the original order: the ratio of apps.X_orig_ms to
	// apps.X_ms is the paper's speed-up.
	orig := make(map[string][]float64)
	for i := 0; i < r.sz.OrigReps; i++ {
		quiesce()
		s := runSuite(st.orig, nil, st.root, st.samples, r.w, nil, 0, 0)
		for name, a := range s.apps {
			orig[name] = append(orig[name], ms(a.wall))
		}
	}
	for _, name := range appNames {
		r.setLayer("apps."+name+"_orig_ms", median(orig[name]), len(orig[name]))
	}
	return nil
}

// probeCSRZ fills the ligra.*_csrz and csrz.* metrics of batch-sd-csrz.
func probeCSRZ(r *run, g *csrz.Graph) error {
	probeKernels(r, g, "_csrz")
	m := g.NumEdges()
	v, n, _ := timeReps(r.sz.ProbeReps, func(d time.Duration) float64 { return float64(d.Nanoseconds()) / float64(max(m, 1)) }, func() error {
		var sink graph.VertexID
		for v := 0; v < g.NumVertices(); v++ {
			it := g.InIter(graph.VertexID(v))
			for {
				x, ok := it.Next()
				if !ok {
					break
				}
				sink += x
			}
		}
		probeSink += uint64(sink)
		return nil
	})
	r.setLayer("csrz.decode_ns_edge", v, n)
	st := g.Stats()
	r.setLayer("csrz.resident_mb", float64(st.ResidentBytes)/(1<<20), 1)
	r.setLayer("csrz.file_mb", float64(g.FileSize())/(1<<20), 1)
	return nil
}
