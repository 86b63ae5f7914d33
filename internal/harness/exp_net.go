package harness

import (
	"fmt"
	"math"

	"graphreorder/internal/apps"
	"graphreorder/internal/reorder"
)

// fig10Datasets are the two largest unstructured and two largest
// structured datasets, as in the paper's Fig. 10.
func fig10Datasets() []string { return []string{"tw", "sd", "fr", "mp"} }

// Fig10 regenerates Fig. 10: net speed-up (including reordering time) for
// every application on tw, sd, fr and mp.
func (r *Runner) Fig10() error {
	techs := r.evaluatedTechniques()
	datasets := fig10Datasets()
	gr, err := r.timeGrid(apps.All(), datasets, techs)
	if err != nil {
		return err
	}
	for _, spec := range apps.All() {
		techTable(fmt.Sprintf("Fig. 10 — %s net speed-up %% (including reordering time)", spec.Name), "technique", techs, datasets,
			func(ds string, ti int) float64 { return gr[spec.Name][ds][ti].net(1) }).Render(r.out())
	}
	t := NewTable("Fig. 10 — geomean net speed-up % across 5 apps x 4 datasets", "technique", "GMean")
	for ti, tech := range techs {
		var all []float64
		for _, spec := range apps.All() {
			for _, ds := range datasets {
				all = append(all, gr[spec.Name][ds][ti].net(1))
			}
		}
		t.Add(tech.Name(), fmt.Sprintf("%+.1f", GeoMeanSpeedup(all)))
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
	// Per-traversal times: a single traversal on each ordering.
	gr, err := r.timeGrid([]apps.Spec{singleRootSpec(spec)}, datasets, techs)
	if err != nil {
		return err
	}
	for _, k := range []int{1, 8, 16, 32} {
		t := NewTable(fmt.Sprintf("Fig. 11 — SSSP net speed-up %%, %d traversal(s)", k),
			append([]string{"technique"}, append(datasets, "GMean")...)...)
		for ti, tech := range techs {
			cells := []string{tech.Name()}
			var all []float64
			for _, ds := range datasets {
				s := gr[spec.Name][ds][ti].net(k)
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
// one traversal (Fig. 11 needs per-traversal times).
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
	// Per-iteration times: one PR iteration on each ordering.
	gr, err := r.timeGrid([]apps.Spec{oneIterSpec(spec)}, datasets, techs)
	if err != nil {
		return err
	}
	t := NewTable("Table XII — min PR iterations to amortize reordering time",
		append([]string{"dataset"}, techNames(techs)...)...)
	for _, ds := range datasets {
		cells := []string{ds}
		for _, c := range gr[spec.Name][ds] {
			gain := c.base - c.cand
			if gain <= 0 {
				cells = append(cells, "never")
				continue
			}
			cells = append(cells, fmt.Sprintf("%.0f", math.Ceil(float64(c.cost)/float64(gain))))
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
