package harness

import (
	"fmt"

	"graphreorder/internal/apps"
	"graphreorder/internal/cachesim"
	"graphreorder/internal/gen"
	"graphreorder/internal/graph"
	"graphreorder/internal/reorder"
)

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
	techs := reorder.Evaluated()
	all := make(map[string][]cachesim.Stats) // dataset -> Original, then techs
	err = r.walk(gen.SkewedNames(), techs, []graph.DegreeKind{spec.ReorderDegree()}, func(l layout) error {
		st, err := r.simulate(spec, l, fig8Iters)
		all[l.ds] = append(all[l.ds], st)
		return err
	})
	if err != nil {
		return err
	}
	orderings := append([]string{reorder.IdentityTechnique{}.Name()}, techNames(techs)...)
	for level := 1; level <= 3; level++ {
		t := NewTable(fmt.Sprintf("Fig. 8(%c) — L%d MPKI for PR (simulated; lower is better)", 'a'+level-1, level),
			append([]string{"ordering"}, gen.SkewedNames()...)...)
		for ti, name := range orderings {
			cells := []string{name}
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
	var specs []apps.Spec
	for _, name := range []string{"SSSP", "PRD"} {
		spec, err := apps.ByName(name)
		if err != nil {
			return err
		}
		specs = append(specs, spec)
	}
	// rows[ordering][app] holds one row per dataset: the original
	// ordering's, then DBG's.
	var rows [2][2][][]string
	err := r.walk(gen.SkewedNames(), []reorder.Technique{reorder.NewDBG()}, kindsOf(specs), func(l layout) error {
		for a, spec := range specs {
			if !l.serves(spec) {
				continue
			}
			st, err := r.simulate(spec, l, fig9Iters)
			if err != nil {
				return fmt.Errorf("%s: %w", spec.Name, err)
			}
			l3, sl, sr, off := st.L2MissBreakdown()
			o := l.ti + 1 // -1 for the original ordering, 0 for DBG
			rows[o][a] = append(rows[o][a], []string{fmt.Sprintf("%s/%s", spec.Name, l.ds),
				fmt.Sprintf("%.1f", l3*100), fmt.Sprintf("%.1f", sl*100),
				fmt.Sprintf("%.1f", sr*100), fmt.Sprintf("%.1f", off*100)})
		}
		return nil
	})
	if err != nil {
		return err
	}
	for o, title := range []string{
		"Fig. 9(a) — break-up of L2 misses, original ordering",
		"Fig. 9(b) — break-up of L2 misses, DBG ordering",
	} {
		t := NewTable(title+" (%)",
			"app/dataset", "L3 hits", "snoop (same socket)", "snoop (remote)", "off-chip")
		for _, appRows := range rows[o] {
			for _, row := range appRows {
				t.Add(row...)
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
