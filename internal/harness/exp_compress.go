package harness

import (
	"fmt"
	"time"

	"graphreorder/internal/apps"
	"graphreorder/internal/csrz"
	"graphreorder/internal/graph"
	"graphreorder/internal/reorder"
)

// CompressTable characterizes the compressed CSR backend against the
// layouts the reordering techniques produce: for each dataset ×
// {Original, HubCluster, DBG} it reports the layout's mean neighbor gap,
// the predicted out-direction compression ratio from the quality report
// (computed from the permutation alone, before any encoding), the
// realized out-direction ratio after actually delta+varint-encoding, the
// realized both-directions ratio (what a serving snapshot saves), and PR
// runtime on the plain versus compressed backend. Two claims are on
// display: prediction tracks realization (the predictor sums the exact
// varint cost), and reordering for locality is also reordering for
// compression — DBG shrinks deltas, so the ratio climbs with packing.
func (r *Runner) CompressTable() error {
	spec, err := apps.ByName("PR")
	if err != nil {
		return err
	}
	t := NewTable("Compressed CSR backend — predicted vs realized ratio, PR overhead",
		"dataset", "technique", "avg gap", "pred ratio", "real ratio", "both dirs", "PR plain", "PR csrz", "overhead %")
	techs := []reorder.Technique{reorder.HubCluster{}, reorder.NewDBG()}
	err = r.walk([]string{"sd", "lj", "uni"}, techs, []graph.DegreeKind{spec.ReorderDegree()}, func(l layout) error {
		target, roots := l.graph(), l.roots(r, r.opts.RootsPerApp)
		quality := reorder.Evaluate(target, spec.ReorderDegree(), nil)
		cz := csrz.Encode(target)
		st := cz.Stats()
		realizedOut := float64(target.NumEdges()) * 4 / float64(st.OutAdjBytes)
		plainM, err := r.MeasureApp(spec, target, roots)
		if err != nil {
			return err
		}
		czM, err := r.MeasureApp(spec, cz, roots)
		if err != nil {
			return err
		}
		overhead := 0.0
		if plainM.Mean > 0 {
			overhead = 100 * (float64(czM.Mean)/float64(plainM.Mean) - 1)
		}
		t.Add(l.ds, l.name(),
			fmt.Sprintf("%.0f", quality.AvgNeighborGap),
			fmt.Sprintf("%.2f", quality.PredictedRatio),
			fmt.Sprintf("%.2f", realizedOut),
			fmt.Sprintf("%.2f", st.Ratio),
			plainM.Mean.Round(10*time.Microsecond).String(),
			czM.Mean.Round(10*time.Microsecond).String(),
			fmt.Sprintf("%+.0f", overhead))
		return nil
	})
	if err != nil {
		return err
	}
	t.Note("pred ratio is computed from the permutation alone (exact varint cost, out direction);")
	t.Note("real ratio is the encoder's out-direction result — the two match by construction.")
	t.Note("both dirs is the serving snapshot's adjacency saving; overhead is PR's decode cost.")
	t.Render(r.out())
	return nil
}
