package harness

import (
	"fmt"
	"slices"
	"time"

	"graphreorder/internal/gen"
	"graphreorder/internal/graph"
	"graphreorder/internal/par"
	"graphreorder/internal/reorder"
)

// AblationGenOrder evaluates the paper's §VIII-A proposal: integrating
// skew-aware reordering with dataset generation. Both pipelines start
// from one generated edge list. The conventional one builds a CSR,
// reorders it and relabels it; the integrated one permutes the edge list
// before the one and only CSR construction. Both build, relabel and
// rename on the same workers, so a row compares orders of work, not core
// counts.
func (r *Runner) AblationGenOrder() error {
	t := NewTable("Ablation — §VIII-A: reordering integrated with generation (DBG)",
		"dataset", "generate", "conventional (build / perm / relabel)", "integrated (perm / rename / build)", "end-to-end saving")
	d := reorder.NewDBG()
	workers := r.rebuildWorkers()
	for _, name := range []string{"sd", "mp"} {
		cfg, err := gen.Dataset(name, r.opts.Scale)
		if err != nil {
			return err
		}
		start := time.Now()
		edges, _, err := gen.SynthesizeEdges(cfg)
		if err != nil {
			return err
		}
		tGen := time.Since(start)
		opts := graph.BuildOptions{NumVertices: cfg.NumVertices, Weighted: cfg.Weighted, SortNeighbors: true, Workers: workers}

		// Conventional: build the CSR, then reorder it (perm + relabel).
		start = time.Now()
		g, err := graph.BuildWith(edges, opts)
		if err != nil {
			return err
		}
		tBuild := time.Since(start)
		res, err := reorder.PlanOf(d).ApplyWorkers(g, graph.OutDegree, workers)
		if err != nil {
			return err
		}
		conventional := tGen + tBuild + res.ReorderTime + res.RebuildTime

		// Integrated: permute from edge-list degrees, rename the edges'
		// IDs in place, build the CSR exactly once.
		start = time.Now()
		degs := gen.EdgeListDegrees(edges, cfg.NumVertices, graph.OutDegree)
		perm := d.PermuteDegrees(degs, float64(len(edges))/float64(cfg.NumVertices))
		tPerm := time.Since(start)
		start = time.Now()
		par.For(len(edges), workers, 1, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				edges[i].Src, edges[i].Dst = perm[edges[i].Src], perm[edges[i].Dst]
			}
		})
		tRename := time.Since(start)
		start = time.Now()
		gi, err := graph.BuildWith(edges, opts)
		if err != nil {
			return err
		}
		tBuildI := time.Since(start)
		integrated := tGen + tPerm + tRename + tBuildI

		// Both pipelines give every vertex the same new ID, so their
		// degree arrays must match exactly.
		for _, kind := range []graph.DegreeKind{graph.OutDegree, graph.InDegree} {
			if !slices.Equal(gi.Degrees(kind), res.Graph.Degrees(kind)) {
				return fmt.Errorf("harness: integrated pipeline diverged on %s: %v-degrees differ", name, kind)
			}
		}

		ms := func(d time.Duration) time.Duration { return d.Round(time.Millisecond) }
		saving := SpeedupPercent(conventional, integrated)
		t.Add(name, ms(tGen).String(),
			fmt.Sprintf("%v / %v / %v", ms(tBuild), ms(res.ReorderTime), ms(res.RebuildTime)),
			fmt.Sprintf("%v / %v / %v", ms(tPerm), ms(tRename), ms(tBuildI)),
			fmt.Sprintf("%+.1f%%", saving))
		t.Note("%s: integrated trades the %v relabel for a %v rename, perm %v for %v and build %v for %v, saving %+.1f%% end to end.",
			name, ms(res.RebuildTime), ms(tRename), ms(res.ReorderTime), ms(tPerm), ms(tBuild), ms(tBuildI), saving)
	}
	t.Note("Both pipelines build, relabel and rename on %d worker(s).", workers)
	t.Render(r.out())
	return nil
}
