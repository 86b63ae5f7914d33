package harness

import (
	"fmt"
	"time"

	"graphreorder/internal/apps"
	"graphreorder/internal/reorder"
)

// QualityVsSpeedup relates ordering quality to measured runtime: for each
// technique on a skewed-unstructured (sd), skewed-structured (lj) and
// no-skew (uni) dataset it reports the packing factor, packing
// utilization, mean neighbor gap and hub working set of the produced
// layout next to the PageRank runtime and speed-up over the original
// order — the paper's §IV thesis (speed-up tracks hot-vertex packing, and
// evaporates without skew) as one table. The advisor's per-dataset
// verdict is appended so its gates can be checked against the measured
// columns.
func (r *Runner) QualityVsSpeedup() error {
	spec, err := apps.ByName("PR")
	if err != nil {
		return err
	}
	datasets := []string{"sd", "lj", "uni"}
	techs := r.evaluatedTechniques()
	specs := []apps.Spec{spec}
	gr := newGrid(specs, datasets, len(techs))
	quality := make(map[string][]reorder.QualityReport) // dataset -> Original, then techs
	verdicts := make([]string, 0, len(datasets))
	err = r.walk(datasets, techs, kindsOf(specs), func(l layout) error {
		quality[l.ds] = append(quality[l.ds], reorder.Evaluate(l.graph(), spec.ReorderDegree(), nil))
		if l.res == nil {
			rec := reorder.Advise(l.g, spec.ReorderDegree())
			verdicts = append(verdicts, fmt.Sprintf("%s -> %s (hot %.0f%%, coverage %.0f%%, gain %.2fx)",
				l.ds, rec.Spec, 100*rec.HotFrac, 100*rec.EdgeCoverage, rec.PredictedGain))
		}
		return r.timeCells(gr, specs, l)
	})
	if err != nil {
		return err
	}
	t := NewTable("Ordering quality vs speed-up — packing factor against PR runtime",
		"dataset", "technique", "packing", "util %", "avg gap", "hub WS KiB", "PR time", "speed-up %")
	for _, ds := range datasets {
		cells := gr[spec.Name][ds]
		addRow := func(name string, q reorder.QualityReport, m time.Duration) {
			t.Add(ds, name,
				fmt.Sprintf("%.2f", q.PackingFactor),
				fmt.Sprintf("%.0f", 100*q.PackingUtilization),
				fmt.Sprintf("%.0f", q.AvgNeighborGap),
				fmt.Sprintf("%.0f", float64(q.HubWorkingSetBytes)/1024),
				m.Round(10*time.Microsecond).String(),
				fmt.Sprintf("%+.1f", SpeedupPercent(cells[0].base, m)))
		}
		addRow(reorder.IdentityTechnique{}.Name(), quality[ds][0], cells[0].base)
		for ti, tech := range techs {
			addRow(tech.Name(), quality[ds][ti+1], cells[ti].cand)
		}
	}
	t.Note("Skew-aware techniques lift packing toward the ideal on sd/lj and speed PR up; on uni")
	t.Note("the hot set is half the graph, packing has no headroom, and reordering only adds noise.")
	for _, v := range verdicts {
		t.Note("advisor: %s", v)
	}
	t.Render(r.out())
	return nil
}
