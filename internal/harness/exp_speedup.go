package harness

import (
	"fmt"
	"slices"
	"time"

	"graphreorder/internal/apps"
	"graphreorder/internal/gen"
	"graphreorder/internal/graph"
	"graphreorder/internal/reorder"
)

// renderSpeedupGrid prints one table per application plus per-dataset and
// overall geometric means, in the layout of Fig. 6.
func (r *Runner) renderSpeedupGrid(title string, gr grid, datasets []string, techs []reorder.Technique) {
	for _, spec := range apps.All() {
		techTable(fmt.Sprintf("%s — %s speed-up %% over no reordering", title, spec.Name), "app \\ dataset", techs, datasets,
			func(ds string, ti int) float64 { return gr[spec.Name][ds][ti].speedup() }).Render(r.out())
	}
	geomeanTable(fmt.Sprintf("%s — geomean speed-up %% across %d apps", title, len(gr)), gr, datasets, techs).Render(r.out())
}

// techTable tabulates value(dataset, technique index) as a signed
// percentage, one row per technique and one column per dataset.
func techTable(title, corner string, techs []reorder.Technique, datasets []string, value func(string, int) float64) *Table {
	t := NewTable(title, append([]string{corner}, datasets...)...)
	for ti, tech := range techs {
		cells := []string{tech.Name()}
		for _, ds := range datasets {
			cells = append(cells, fmt.Sprintf("%+.1f", value(ds, ti)))
		}
		t.Add(cells...)
	}
	return t
}

// geomeanTable tabulates each technique's geometric-mean speed-up across
// the five applications, per dataset and over all of them.
func geomeanTable(title string, gr grid, datasets []string, techs []reorder.Technique) *Table {
	t := NewTable(title, append([]string{"technique"}, append(datasets, "ALL")...)...)
	for ti, tech := range techs {
		cells := []string{tech.Name()}
		var all []float64
		for _, ds := range datasets {
			var per []float64
			for _, spec := range apps.All() {
				per = append(per, gr[spec.Name][ds][ti].speedup())
			}
			all = append(all, per...)
			cells = append(cells, fmt.Sprintf("%+.1f", GeoMeanSpeedup(per)))
		}
		cells = append(cells, fmt.Sprintf("%+.1f", GeoMeanSpeedup(all)))
		t.Add(cells...)
	}
	return t
}

// Fig3 regenerates Fig. 3: slowdown of the Radii application under random
// reordering at vertex (RV) and cache-block (RCB-1/2/4) granularity.
func (r *Runner) Fig3() error {
	techs := []reorder.Technique{
		reorder.RandomVertex{Seed: r.opts.Seed},
		reorder.RandomCacheBlock{Seed: r.opts.Seed, Blocks: 1},
		reorder.RandomCacheBlock{Seed: r.opts.Seed, Blocks: 2},
		reorder.RandomCacheBlock{Seed: r.opts.Seed, Blocks: 4},
	}
	spec, err := apps.ByName("Radii")
	if err != nil {
		return err
	}
	gr, err := r.timeGrid([]apps.Spec{spec}, gen.SkewedNames(), techs)
	if err != nil {
		return err
	}
	t := techTable("Fig. 3 — Radii slowdown % after random reordering (lower is better)", "config", techs, gen.SkewedNames(),
		func(ds string, ti int) float64 { return -gr[spec.Name][ds][ti].speedup() })
	t.Note("Paper: RCB-1 slows real-world datasets 9.6-28.5%%; kr (synthetic) is insensitive;")
	t.Note("slowdown shrinks as granularity grows (RCB-2, RCB-4); RV worst where hot/block is high.")
	t.Render(r.out())
	return nil
}

// Fig5 regenerates Fig. 5: DBG-framework reimplementations of HubSort and
// HubCluster vs the original implementations, geomean across the five
// applications per dataset.
func (r *Runner) Fig5() error {
	techs := []reorder.Technique{
		reorder.HubSortO{}, reorder.HubSort{},
		reorder.HubClusterO{}, reorder.HubCluster{},
	}
	gr, err := r.timeGrid(apps.All(), gen.SkewedNames(), techs)
	if err != nil {
		return err
	}
	t := geomeanTable("Fig. 5 — original (-O) vs DBG-framework implementations, geomean speed-up % across 5 apps",
		gr, gen.SkewedNames(), techs)
	t.Note("Paper: the reimplementations (no suffix) outperform the originals (-O) nearly everywhere.")
	t.Render(r.out())
	return nil
}

// Table11 regenerates Table XI: reordering time of the hub techniques
// normalized to Sort's (lower is better). Only the permutations are
// timed, as in ReorderTime; no layout is built. On each dataset every
// technique computes its permutation once as a warm-up, then the
// techniques take turns for max(3, Trials) rounds, and a cell is the
// median of its technique's rounds: taking turns spreads a slow stretch
// of the host over all the techniques of a dataset instead of one.
func (r *Runner) Table11() error {
	techs := []reorder.Technique{
		reorder.SortTechnique{},
		reorder.HubSortO{}, reorder.HubSort{},
		reorder.HubClusterO{}, reorder.HubCluster{},
	}
	rounds := max(3, r.opts.Trials)
	times := make(map[string][]time.Duration) // dataset -> median permutation time per technique
	err := r.walk(gen.SkewedNames(), nil, nil, func(l layout) error {
		samples := make([][]time.Duration, len(techs))
		for round := -1; round < rounds; round++ {
			for ti, tech := range techs {
				start := time.Now()
				if _, err := reorder.PlanOf(tech).PermuteWorkers(l.g, graph.OutDegree, r.rebuildWorkers()); err != nil {
					return err
				}
				if round >= 0 { // round -1 is the warm-up
					samples[ti] = append(samples[ti], time.Since(start))
				}
			}
		}
		times[l.ds] = make([]time.Duration, len(techs))
		for ti, s := range samples {
			slices.Sort(s)
			times[l.ds][ti] = s[len(s)/2]
		}
		return nil
	})
	if err != nil {
		return err
	}
	t := NewTable("Table XI — reordering time normalized to Sort (lower is better)",
		append([]string{"technique"}, gen.SkewedNames()...)...)
	for ti, tech := range techs[1:] {
		cells := []string{tech.Name()}
		for _, ds := range gen.SkewedNames() {
			cells = append(cells, fmt.Sprintf("%.2f", float64(times[ds][ti+1])/float64(times[ds][0])))
		}
		t.Add(cells...)
	}
	t.Note("Paper: reimplemented HubSort 0.80-0.91, HubCluster 0.74-0.84 of Sort's time.")
	t.Render(r.out())
	return nil
}

// Fig6 regenerates Fig. 6, the headline result: application speed-up
// excluding reordering time for Sort, HubSort, HubCluster, DBG and Gorder
// on the eight skewed datasets, with unstructured/structured geomeans.
func (r *Runner) Fig6() error {
	techs := r.evaluatedTechniques()
	gr, err := r.timeGrid(apps.All(), gen.SkewedNames(), techs)
	if err != nil {
		return err
	}
	r.renderSpeedupGrid("Fig. 6", gr, gen.SkewedNames(), techs)

	// Unstructured vs structured geomeans (Fig. 6a/6b summary).
	t := NewTable("Fig. 6 — geomean speed-up % by dataset class",
		"technique", "unstructured", "structured", "all 40 datapoints")
	for ti, tech := range techs {
		collect := func(datasets []string) []float64 {
			var out []float64
			for _, ds := range datasets {
				for _, spec := range apps.All() {
					out = append(out, gr[spec.Name][ds][ti].speedup())
				}
			}
			return out
		}
		t.Add(tech.Name(),
			fmt.Sprintf("%+.1f", GeoMeanSpeedup(collect(gen.UnstructuredNames()))),
			fmt.Sprintf("%+.1f", GeoMeanSpeedup(collect(gen.StructuredNames()))),
			fmt.Sprintf("%+.1f", GeoMeanSpeedup(collect(gen.SkewedNames()))))
	}
	t.Note("Paper: DBG +16.8%% overall vs HubCluster +11.6%%, Sort +8.4%%, HubSort +7.9%%, Gorder +18.6%%.")
	t.Note("Unstructured: all positive, DBG leads skew-aware (+28.1%%). Structured: Sort/HubSort negative, DBG +6.5%%.")
	t.Render(r.out())
	return nil
}

// Fig7 regenerates Fig. 7: the same experiment on the no-skew datasets
// (uni, road), where skew-aware techniques should be neutral.
func (r *Runner) Fig7() error {
	techs := r.evaluatedTechniques()
	gr, err := r.timeGrid(apps.All(), gen.NoSkewNames(), techs)
	if err != nil {
		return err
	}
	r.renderSpeedupGrid("Fig. 7", gr, gen.NoSkewNames(), techs)
	fmt.Fprintln(r.out(), "  Paper: skew-aware techniques within ±1.2% on uni and ±0.4% on road; Gorder ~+3.5%.")
	return nil
}
