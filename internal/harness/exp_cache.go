package harness

import (
	"fmt"

	"graphreorder/internal/apps"
	"graphreorder/internal/cachesim"
	"graphreorder/internal/gen"
	"graphreorder/internal/reorder"
	"graphreorder/internal/trace"
)

// simStats runs the trace-driven simulation of spec on dataset reordered
// by tech and returns the cache statistics.
func (r *Runner) simStats(dataset string, spec apps.Spec, tech reorder.Technique, maxIters int) (cachesim.Stats, error) {
	g, err := r.Graph(dataset)
	if err != nil {
		return cachesim.Stats{}, err
	}
	nRoots := 1
	if spec.Name == "Radii" {
		nRoots = 64
	}
	roots := r.Roots(g, nRoots)
	machine := trace.MachineFor(r.opts.Scale)
	if _, ok := tech.(reorder.IdentityTechnique); ok || tech == nil {
		return trace.Simulate(spec, g, roots, machine, maxIters)
	}
	res, err := r.Reorder(dataset, tech, spec.ReorderDegree)
	if err != nil {
		return cachesim.Stats{}, err
	}
	return trace.Simulate(spec, res.Graph, MapRoots(roots, res.Perm), machine, maxIters)
}

// fig8Iters caps the simulated PR iterations: MPKI is a steady-state rate,
// so a couple of iterations after warm-up suffice.
const fig8Iters = 2

// Fig8 regenerates Fig. 8: L1/L2/L3 MPKI of the PR application for each
// ordering on every dataset, from the trace-driven simulator.
func (r *Runner) Fig8() error {
	spec, err := apps.ByName("PR")
	if err != nil {
		return err
	}
	orderings := append([]reorder.Technique{reorder.IdentityTechnique{}}, reorder.Evaluated()...)
	// stats[dataset][ordering]
	all := make(map[string][]cachesim.Stats)
	for _, ds := range gen.SkewedNames() {
		for _, tech := range orderings {
			st, err := r.simStats(ds, spec, tech, fig8Iters)
			if err != nil {
				return fmt.Errorf("harness: fig8 %s/%s: %w", ds, tech.Name(), err)
			}
			all[ds] = append(all[ds], st)
		}
	}
	for level := 1; level <= 3; level++ {
		t := NewTable(fmt.Sprintf("Fig. 8(%c) — L%d MPKI for PR (simulated; lower is better)", 'a'+level-1, level),
			append([]string{"ordering"}, gen.SkewedNames()...)...)
		for ti, tech := range orderings {
			cells := []string{tech.Name()}
			for _, ds := range gen.SkewedNames() {
				cells = append(cells, fmt.Sprintf("%.1f", all[ds][ti].MPKI(level)))
			}
			t.Add(cells...)
		}
		switch level {
		case 1:
			t.Note("Paper: Sort/HubSort raise L1 MPKI on structured datasets (lj wl fr mp); DBG/HubCluster do not.")
		case 3:
			t.Note("Paper: all skew-aware techniques cut L3 MPKI except on lj/wl, whose hot vertices fit in the LLC.")
		}
		t.Render(r.out())
	}
	return nil
}

// fig9Iters caps the simulated PRD iterations.
const fig9Iters = 5

// Fig9 regenerates Fig. 9: the break-up of L2 misses for the two
// applications the paper runs push-only (SSSP, PRD) with the original
// ordering and after DBG, from the simulated dual-socket machine. Each is
// simulated as it executes, so PRD's row is a pull's.
func (r *Runner) Fig9() error {
	for _, cfg := range []struct {
		title string
		tech  reorder.Technique
	}{
		{"Fig. 9(a) — break-up of L2 misses, original ordering", reorder.IdentityTechnique{}},
		{"Fig. 9(b) — break-up of L2 misses, DBG ordering", reorder.NewDBG()},
	} {
		t := NewTable(cfg.title+" (%)",
			"app/dataset", "L3 hits", "snoop (same socket)", "snoop (remote)", "off-chip")
		for _, appName := range []string{"SSSP", "PRD"} {
			spec, err := apps.ByName(appName)
			if err != nil {
				return err
			}
			for _, ds := range gen.SkewedNames() {
				st, err := r.simStats(ds, spec, cfg.tech, fig9Iters)
				if err != nil {
					return fmt.Errorf("harness: fig9 %s/%s: %w", appName, ds, err)
				}
				l3, sl, sr, off := st.L2MissBreakdown()
				t.Add(fmt.Sprintf("%s/%s", appName, ds),
					fmt.Sprintf("%.1f", l3*100), fmt.Sprintf("%.1f", sl*100),
					fmt.Sprintf("%.1f", sr*100), fmt.Sprintf("%.1f", off*100))
			}
		}
		t.Note("Paper: PRD's snoop share (26.9-69.4%% original) far exceeds SSSP's (<15%%);")
		t.Note("DBG converts off-chip accesses to on-chip, but for PRD mostly into snoop hits.")
		t.Note("PRD is simulated as executed here: a destination-owned pull with no scattered")
		t.Note("writes, where the paper pushes, so its snoop share is not the paper's.")
		t.Render(r.out())
	}
	return nil
}
