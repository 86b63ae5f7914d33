package harness

import (
	"fmt"
	"math"

	"graphreorder/internal/gen"
	"graphreorder/internal/graph"
	"graphreorder/internal/reorder"
	"graphreorder/internal/stats"
)

// Table1 regenerates Table I: hot-vertex share and hot edge coverage for
// in- and out-degree on the eight skewed datasets.
func (r *Runner) Table1() error {
	pct := func(f float64) string { return fmt.Sprintf("%.0f", f*100) }
	rows, err := r.datasetColumns(gen.SkewedNames(), []string{
		"In:  Hot Vertices (%)", "In:  Edge Coverage (%)",
		"Out: Hot Vertices (%)", "Out: Edge Coverage (%)",
	}, func(g *graph.Graph) []string {
		in, out := stats.ComputeSkew(g, graph.InDegree), stats.ComputeSkew(g, graph.OutDegree)
		return []string{pct(in.HotFrac), pct(in.EdgeCoverage), pct(out.HotFrac), pct(out.EdgeCoverage)}
	})
	if err != nil {
		return err
	}
	t := NewTable("Table I — hot vertices (%% of vertices) and edge coverage (%% of edges)",
		append([]string{"metric"}, gen.SkewedNames()...)...)
	for _, row := range rows {
		t.Add(row...)
	}
	t.Note("Paper: 9-26%% hot vertices covering 80-94%% of edges.")
	t.Render(r.out())
	return nil
}

// Table2 regenerates Table II: average number of hot vertices per 64 B
// cache block (8 B properties), counting only blocks with at least one hot
// vertex.
func (r *Runner) Table2() error {
	rows, err := r.datasetColumns(gen.SkewedNames(), []string{"Avg."}, func(g *graph.Graph) []string {
		return []string{fmt.Sprintf("%.1f", reorder.EvaluatePacking(g, graph.InDegree, nil).PackingFactor)}
	})
	if err != nil {
		return err
	}
	t := NewTable("Table II — avg hot vertices per cache block (8 B/vertex, 64 B blocks)",
		append([]string{"dataset"}, gen.SkewedNames()...)...)
	t.Add(rows[0]...)
	t.Note("Paper: 1.3-3.5 across datasets (max possible is 8).")
	t.Render(r.out())
	return nil
}

// Table3 regenerates Table III: cache capacity needed to hold all hot
// vertices at 8 and 16 bytes per property.
func (r *Runner) Table3() error {
	rows, err := r.datasetColumns(gen.SkewedNames(), []string{"8 Bytes", "16 Bytes"}, func(g *graph.Graph) []string {
		return []string{
			formatBytes(stats.HotFootprintBytes(g, graph.InDegree, 8)),
			formatBytes(stats.HotFootprintBytes(g, graph.InDegree, 16)),
		}
	})
	if err != nil {
		return err
	}
	t := NewTable("Table III — capacity needed for all hot vertices",
		append([]string{"per-vertex property"}, gen.SkewedNames()...)...)
	for _, row := range rows {
		t.Add(row...)
	}
	t.Note("Paper reports 9-230 MB at full dataset sizes; shapes (relative sizes across datasets) are what reproduce.")
	t.Render(r.out())
	return nil
}

func formatBytes(b int64) string {
	switch {
	case b >= 1<<20:
		return fmt.Sprintf("%.1fMB", float64(b)/(1<<20))
	case b >= 1<<10:
		return fmt.Sprintf("%.0fKB", float64(b)/(1<<10))
	default:
		return fmt.Sprintf("%dB", b)
	}
}

// Table4 regenerates Table IV: the degree-range histogram of hot vertices
// for the sd dataset with geometric ranges [A,2A), [2A,4A), ... [32A,inf).
func (r *Runner) Table4() error {
	g, err := r.Graph("sd")
	if err != nil {
		return err
	}
	bins := stats.DegreeRanges(g, graph.InDegree, 6, 8)
	t := NewTable(fmt.Sprintf("Table IV — hot-vertex degree distribution, sd (A = %.0f)", g.AvgDegree()),
		"degree range", "vertices (% of hot)", "footprint")
	for _, b := range bins {
		var rangeLabel string
		if math.IsInf(b.HiMult, 1) {
			rangeLabel = fmt.Sprintf("[%.0fA, inf)", b.LoMult)
		} else {
			rangeLabel = fmt.Sprintf("[%.0fA, %.0fA)", b.LoMult, b.HiMult)
		}
		t.Add(rangeLabel, fmt.Sprintf("%.0f%%", b.FracOfHot*100), formatBytes(b.FootprintBytes))
	}
	t.Note("Paper (sd): 45%%, 28%%, 15%%, 7%%, 3%%, 2%% — halving per doubling of degree range.")
	t.Render(r.out())
	return nil
}

// Table5 regenerates Table V: every skew-aware technique expressed in the
// DBG framework, with live group counts computed on the sd dataset.
func (r *Runner) Table5() error {
	g, err := r.Graph("sd")
	if err != nil {
		return err
	}
	degs := g.Degrees(graph.OutDegree)
	avg := g.AvgDegree()
	maxDeg := g.MaxDegree(graph.OutDegree)

	distinct := map[uint32]struct{}{}
	for _, d := range degs {
		distinct[d] = struct{}{}
	}
	hotDistinct := 0
	for d := range distinct {
		if float64(d) >= avg {
			hotDistinct++
		}
	}

	dbg := reorder.NewDBG()
	sizes := dbg.GroupSizes(degs, avg)

	t := NewTable("Table V — techniques as instances of the DBG framework (live on sd)",
		"technique", "#groups", "degree ranges")
	t.Add("Sort", fmt.Sprintf("%d", len(distinct)), fmt.Sprintf("[n, n+1) for n in [0, %d]", maxDeg))
	t.Add("HubSort", fmt.Sprintf("%d", hotDistinct+1), fmt.Sprintf("[0, A) plus [n, n+1) for n in [A, %d]", maxDeg))
	t.Add("HubCluster", "2", "[0, A), [A, M]")
	t.Add("DBG", fmt.Sprintf("%d", dbg.NumGroups()),
		"[32A, inf), [16A, 32A), ..., [A, 2A), [A/2, A), [0, A/2)")
	t.Note("DBG group populations on sd (hottest first): %v", sizes)
	t.Render(r.out())
	return nil
}

// Table6 prints the paper's qualitative comparison (Table VI).
func (r *Runner) Table6() error {
	t := NewTable("Table VI — qualitative comparison",
		"technique", "structure preservation", "reordering time", "net performance")
	t.Add("Sort", "poor", "good", "good")
	t.Add("HubSort", "fair", "good", "good")
	t.Add("HubCluster", "very good", "very good", "good")
	t.Add("DBG (this work)", "very good", "very good", "very good")
	t.Add("Gorder", "very good", "poor", "poor")
	t.Render(r.out())
	return nil
}
