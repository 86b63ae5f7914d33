package harness

import (
	"fmt"

	"graphreorder/internal/gen"
	"graphreorder/internal/reorder"
	"graphreorder/internal/stats"
)

// AblationGroups sweeps DBG's group count, exposing the trade-off the
// paper motivates with Table V: more groups pack hot vertices tighter but
// disrupt more structure. Sort is the K→∞ limit, HubCluster the K=2 one.
// Reported on one unstructured (sd) and one structured (mp) dataset for
// the PR application, plus a structure-disruption proxy.
func (r *Runner) AblationGroups() error {
	var configs []ablationConfig
	configs = append(configs, ablationConfig{"HubCluster (K=2)", reorder.HubCluster{}})
	for _, k := range []int{4, 8, 16} {
		d, err := reorder.NewDBGGeometric(k)
		if err != nil {
			return err
		}
		configs = append(configs, ablationConfig{fmt.Sprintf("DBG K=%d", k), d})
	}
	configs = append(configs, ablationConfig{"DBG paper-8", reorder.NewDBG()})
	configs = append(configs, ablationConfig{"Sort (K=inf)", reorder.SortTechnique{}})

	grid, _, err := r.speedupGrid([]string{"PR"}, []string{"sd", "mp"}, techsOf(configs))
	if err != nil {
		return err
	}
	t := NewTable("Ablation — DBG group-count sweep (PR speed-up % and structure disruption)",
		"config", "sd (unstructured)", "mp (structured)", "mp mean |src-dst| after reorder")
	for i, c := range configs {
		res, err := r.Reorder("mp", c.tech, bestKind("mp"))
		if err != nil {
			return err
		}
		t.Add(c.label,
			fmt.Sprintf("%+.1f", grid["PR"]["sd"][i]),
			fmt.Sprintf("%+.1f", grid["PR"]["mp"][i]),
			fmt.Sprintf("%.0f", stats.MeanNeighborIDDistance(res.Graph)))
	}
	g, err := r.Graph("mp")
	if err != nil {
		return err
	}
	t.Note("mp original mean |src-dst| ID distance: %.0f (lower = more ordering locality).", stats.MeanNeighborIDDistance(g))
	t.Note("Expected: speed-up on structured mp degrades as K grows (finer reordering, more disruption).")
	t.Render(r.out())
	return nil
}

// ablationConfig labels a technique variant in an ablation sweep.
type ablationConfig struct {
	label string
	tech  reorder.Technique
}

func techsOf(configs []ablationConfig) []reorder.Technique {
	out := make([]reorder.Technique, len(configs))
	for i, c := range configs {
		out[i] = c.tech
	}
	return out
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
	grid, _, err := r.speedupGrid(appNames(), gen.SkewedNames(), techs)
	if err != nil {
		return err
	}
	t := geomeanTable("Ablation — Gorder+DBG composition, geomean speed-up % across 5 apps", grid, gen.SkewedNames(), techs)
	t.Note("Paper: Gorder+DBG 17.2%% vs Gorder 18.6%% across 40 datapoints — composition keeps most of the benefit.")
	t.Render(r.out())
	return nil
}
