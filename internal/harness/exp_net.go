package harness

import (
	"fmt"
	"math"
	"time"

	"graphreorder/internal/apps"
	"graphreorder/internal/reorder"
)

// fig10Datasets are the two largest unstructured and two largest
// structured datasets, as in the paper's Fig. 10.
func fig10Datasets() []string { return []string{"tw", "sd", "fr", "mp"} }

// netSpeedup computes end-to-end speed-up including the reordering cost:
// baseline app time vs (reorder + rebuild + reordered app time).
func (r *Runner) netSpeedup(dataset string, spec apps.Spec, tech reorder.Technique) (float64, error) {
	baseM, _, err := r.appTime(dataset, spec, reorder.IdentityTechnique{})
	if err != nil {
		return 0, err
	}
	m, res, err := r.appTime(dataset, spec, tech)
	if err != nil {
		return 0, err
	}
	total := m.Mean + r.ReorderCost(res, tech)
	return SpeedupPercent(baseM.Mean, total), nil
}

// Fig10 regenerates Fig. 10: net speed-up (including reordering time) for
// every application on tw, sd, fr and mp.
func (r *Runner) Fig10() error {
	techs := r.evaluatedTechniques()
	datasets := fig10Datasets()
	perTech := make(map[string][]float64)
	for _, spec := range apps.All() {
		t := NewTable(fmt.Sprintf("Fig. 10 — %s net speed-up %% (including reordering time)", spec.Name),
			append([]string{"technique"}, datasets...)...)
		for _, tech := range techs {
			cells := []string{tech.Name()}
			for _, ds := range datasets {
				s, err := r.netSpeedup(ds, spec, tech)
				if err != nil {
					return err
				}
				perTech[tech.Name()] = append(perTech[tech.Name()], s)
				cells = append(cells, fmt.Sprintf("%+.1f", s))
			}
			t.Add(cells...)
		}
		t.Render(r.out())
	}
	t := NewTable("Fig. 10 — geomean net speed-up % across 5 apps x 4 datasets", "technique", "GMean")
	for _, tech := range techs {
		t.Add(tech.Name(), fmt.Sprintf("%+.1f", GeoMeanSpeedup(perTech[tech.Name()])))
	}
	t.Note("Paper: only DBG nets a positive average (+6.2%%); Gorder causes severe slowdowns (to -96.5%%).")
	t.Render(r.out())
	return nil
}

// Fig11 regenerates Fig. 11: SSSP net speed-up as the number of traversals
// grows (1, 8, 16, 32), amortizing the one-time reordering cost.
func (r *Runner) Fig11() error {
	spec, err := apps.ByName("SSSP")
	if err != nil {
		return err
	}
	techs := r.evaluatedTechniques()
	datasets := fig10Datasets()
	traversalCounts := []int{1, 8, 16, 32}

	// Per-traversal times: measure a single traversal on each ordering.
	type times struct {
		basePer time.Duration
		techPer map[string]time.Duration
		cost    map[string]time.Duration
	}
	perDS := make(map[string]*times)
	for _, ds := range datasets {
		g, err := r.Graph(ds)
		if err != nil {
			return err
		}
		roots := r.Roots(g, 1)
		baseM, err := r.MeasureApp(singleRootSpec(spec), g, roots)
		if err != nil {
			return err
		}
		tt := &times{basePer: baseM.Mean, techPer: map[string]time.Duration{}, cost: map[string]time.Duration{}}
		for _, tech := range techs {
			res, err := r.Reorder(ds, tech, spec.ReorderDegree())
			if err != nil {
				return err
			}
			m, err := r.MeasureApp(singleRootSpec(spec), res.Graph, MapRoots(roots, res.Perm))
			if err != nil {
				return err
			}
			tt.techPer[tech.Name()] = m.Mean
			tt.cost[tech.Name()] = r.ReorderCost(res, tech)
		}
		perDS[ds] = tt
	}

	for _, k := range traversalCounts {
		t := NewTable(fmt.Sprintf("Fig. 11 — SSSP net speed-up %%, %d traversal(s)", k),
			append([]string{"technique"}, append(datasets, "GMean")...)...)
		for _, tech := range techs {
			cells := []string{tech.Name()}
			var all []float64
			for _, ds := range datasets {
				tt := perDS[ds]
				base := time.Duration(k) * tt.basePer
				cand := tt.cost[tech.Name()] + time.Duration(k)*tt.techPer[tech.Name()]
				s := SpeedupPercent(base, cand)
				all = append(all, s)
				cells = append(cells, fmt.Sprintf("%+.1f", s))
			}
			cells = append(cells, fmt.Sprintf("%+.1f", GeoMeanSpeedup(all)))
			t.Add(cells...)
		}
		t.Render(r.out())
	}
	fmt.Fprintln(r.out(), "  Paper: all techniques lose at 1 traversal; DBG amortizes fastest (+11.5% avg at 8).")
	return nil
}

// singleRootSpec wraps a root-dependent spec so MeasureApp runs exactly
// one traversal (Fig. 11 and Table XII need per-traversal times).
func singleRootSpec(spec apps.Spec) apps.Spec {
	s := spec
	run := spec.Run
	s.NumRoots = 64 // route MeasureApp through the single-run path
	s.Run = func(in apps.Input) (apps.Output, error) {
		in.Roots = in.Roots[:1]
		return run(in)
	}
	return s
}

// Table12 regenerates Table XII: the minimum number of PR iterations
// needed to amortize each technique's reordering cost.
func (r *Runner) Table12() error {
	spec, err := apps.ByName("PR")
	if err != nil {
		return err
	}
	techs := r.evaluatedTechniques()
	datasets := fig10Datasets()
	t := NewTable("Table XII — min PR iterations to amortize reordering time",
		append([]string{"dataset"}, techNames(techs)...)...)
	for _, ds := range datasets {
		g, err := r.Graph(ds)
		if err != nil {
			return err
		}
		// Per-iteration time: one PR iteration on each ordering.
		perIter := func(tech reorder.Technique) (time.Duration, time.Duration, error) {
			if _, ok := tech.(reorder.IdentityTechnique); ok {
				m, err := r.MeasureApp(oneIterSpec(spec), g, nil)
				return m.Mean, 0, err
			}
			res, err := r.Reorder(ds, tech, spec.ReorderDegree())
			if err != nil {
				return 0, 0, err
			}
			m, err := r.MeasureApp(oneIterSpec(spec), res.Graph, nil)
			if err != nil {
				return 0, 0, err
			}
			return m.Mean, r.ReorderCost(res, tech), nil
		}
		basePer, _, err := perIter(reorder.IdentityTechnique{})
		if err != nil {
			return err
		}
		cells := []string{ds}
		for _, tech := range techs {
			candPer, cost, err := perIter(tech)
			if err != nil {
				return err
			}
			gain := basePer - candPer
			if gain <= 0 {
				cells = append(cells, "never")
				continue
			}
			iters := math.Ceil(float64(cost) / float64(gain))
			cells = append(cells, fmt.Sprintf("%.0f", iters))
		}
		t.Add(cells...)
	}
	t.Note("Paper: DBG amortizes fastest (1.9-4.4 iterations); Gorder needs 112-1359.")
	t.Render(r.out())
	return nil
}

// oneIterSpec caps PR at a single iteration for per-iteration timing.
func oneIterSpec(spec apps.Spec) apps.Spec {
	s := spec
	run := spec.Run
	s.Run = func(in apps.Input) (apps.Output, error) {
		in.MaxIters = 1
		return run(in)
	}
	return s
}

func techNames(techs []reorder.Technique) []string {
	names := make([]string, len(techs))
	for i, t := range techs {
		names[i] = t.Name()
	}
	return names
}
