package harness

import (
	"fmt"

	"graphreorder/internal/apps"
	"graphreorder/internal/gen"
	"graphreorder/internal/graph"
	"graphreorder/internal/reorder"
)

// AblationGroups sweeps DBG's group count, exposing the trade-off the
// paper motivates with Table V: more groups pack hot vertices tighter but
// disrupt more structure. Sort is the K→∞ limit, HubCluster the K=2 one.
// Reported on one unstructured (sd) and one structured (mp) dataset for
// the PR application, plus a structure-disruption proxy.
func (r *Runner) AblationGroups() error {
	labels := []string{"HubCluster (K=2)", "DBG K=4", "DBG K=8", "DBG K=16", "DBG paper-8", "Sort (K=inf)"}
	techs := []reorder.Technique{reorder.HubCluster{}}
	for _, k := range []int{4, 8, 16} {
		d, err := reorder.NewDBGGeometric(k)
		if err != nil {
			return err
		}
		techs = append(techs, d)
	}
	techs = append(techs, reorder.NewDBG(), reorder.SortTechnique{})

	spec, err := apps.ByName("PR")
	if err != nil {
		return err
	}
	specs := []apps.Spec{spec}
	gr := newGrid(specs, []string{"sd", "mp"}, len(techs))
	var origDist float64
	dist := make([]float64, len(techs)) // mean |src-dst| on mp per config
	err = r.walk([]string{"sd", "mp"}, techs, kindsOf(specs), func(l layout) error {
		if l.ds == "mp" {
			d := reorder.Evaluate(l.graph(), graph.OutDegree, nil).AvgNeighborGap
			if l.res == nil {
				origDist = d
			} else {
				dist[l.ti] = d
			}
		}
		return r.timeCells(gr, specs, l)
	})
	if err != nil {
		return err
	}
	t := NewTable("Ablation — DBG group-count sweep (PR speed-up % and structure disruption)",
		"config", "sd (unstructured)", "mp (structured)", "mp mean |src-dst| after reorder")
	for i, label := range labels {
		t.Add(label,
			fmt.Sprintf("%+.1f", gr["PR"]["sd"][i].speedup()),
			fmt.Sprintf("%+.1f", gr["PR"]["mp"][i].speedup()),
			fmt.Sprintf("%.0f", dist[i]))
	}
	t.Note("mp original mean |src-dst| ID distance: %.0f (lower = more ordering locality).", origDist)
	t.Note("Expected: speed-up on structured mp degrades as K grows (finer reordering, more disruption).")
	t.Render(r.out())
	return nil
}

// AblationGorderDBG reproduces the §VII composition study: DBG applied on
// top of Gorder retains most of Gorder's speed-up while packing hot
// vertices contiguously (a prerequisite for the hardware scheme of [44]).
func (r *Runner) AblationGorderDBG() error {
	techs := []reorder.Technique{
		reorder.Gorder{},
		reorder.Compose(reorder.Gorder{}, reorder.NewDBG()),
		reorder.NewDBG(),
	}
	gr, err := r.timeGrid(apps.All(), gen.SkewedNames(), techs)
	if err != nil {
		return err
	}
	t := geomeanTable("Ablation — Gorder+DBG composition, geomean speed-up % across 5 apps", gr, gen.SkewedNames(), techs)
	t.Note("Paper: Gorder+DBG 17.2%% vs Gorder 18.6%% across 40 datapoints — composition keeps most of the benefit.")
	t.Render(r.out())
	return nil
}
