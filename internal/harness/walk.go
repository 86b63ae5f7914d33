package harness

import (
	"fmt"
	"slices"
	"time"

	"graphreorder/internal/apps"
	"graphreorder/internal/cachesim"
	"graphreorder/internal/graph"
	"graphreorder/internal/reorder"
	"graphreorder/internal/trace"
)

// layout is one ordering of a dataset that a walk visits: the dataset's
// own order (res nil), or its reorder by tech, the ti-th technique of the
// walk, for one degree kind.
type layout struct {
	ds   string
	g    *graph.Graph // the dataset in its own order
	ti   int
	tech reorder.Technique
	kind graph.DegreeKind
	res  *reorder.Result
}

// graph returns the layout's graph.
func (l layout) graph() *graph.Graph {
	if l.res == nil {
		return l.g
	}
	return l.res.Graph
}

// name returns the layout's technique name, "Original" for the dataset's
// own order.
func (l layout) name() string {
	if l.res == nil {
		return reorder.IdentityTechnique{}.Name()
	}
	return l.tech.Name()
}

// serves reports whether spec runs on the layout: every spec runs on a
// dataset's own order, and on a reorder by the degree kind it keys on.
func (l layout) serves(spec apps.Spec) bool {
	return l.res == nil || spec.ReorderDegree() == l.kind
}

// roots returns the runner's k roots of the dataset in the layout's IDs,
// so every layout solves the same problem.
func (l layout) roots(r *Runner, k int) []graph.VertexID {
	roots := r.Roots(l.g, k)
	if l.res == nil {
		return roots
	}
	return MapRoots(roots, l.res.Perm)
}

// walk is every driver's one loop over its cells. Datasets are outermost
// and each is generated once. visit sees the dataset's own order first,
// then, for each technique in order and each of kinds within it, the
// dataset reordered; each reorder is dropped before the next is made, so
// at most two graphs are alive at a visit: the dataset and one relabeled
// copy. A driver collects its cells in visit and renders once the walk
// is done.
func (r *Runner) walk(datasets []string, techs []reorder.Technique, kinds []graph.DegreeKind, visit func(layout) error) error {
	for _, ds := range datasets {
		g, err := r.Graph(ds)
		if err != nil {
			return err
		}
		if err := visit(layout{ds: ds, g: g, ti: -1}); err != nil {
			return fmt.Errorf("harness: %s: %w", ds, err)
		}
		for ti, tech := range techs {
			for _, kind := range kinds {
				if err := r.ctx.Err(); err != nil {
					return fmt.Errorf("harness: %s/%s: %w", ds, tech.Name(), err)
				}
				res, err := reorder.PlanOf(tech).ApplyWorkers(g, kind, r.rebuildWorkers())
				if err == nil {
					err = visit(layout{ds, g, ti, tech, kind, &res})
				}
				if err != nil {
					return fmt.Errorf("harness: %s/%s: %w", ds, tech.Name(), err)
				}
			}
		}
	}
	return nil
}

// kindsOf returns the degree kinds specs reorder by, each once.
func kindsOf(specs []apps.Spec) []graph.DegreeKind {
	var kinds []graph.DegreeKind
	for _, s := range specs {
		if !slices.Contains(kinds, s.ReorderDegree()) {
			kinds = append(kinds, s.ReorderDegree())
		}
	}
	return kinds
}

// cell is one (app, dataset, technique) timing: the app's mean on the
// dataset's own order and on the technique's layout, and the reorder's
// cost (ReorderCost).
type cell struct{ base, cand, cost time.Duration }

// speedup is the paper's speed-up excluding the reordering time.
func (c cell) speedup() float64 { return SpeedupPercent(c.base, c.cand) }

// net is the speed-up over k runs that pay for the reorder once.
func (c cell) net(k int) float64 {
	return SpeedupPercent(time.Duration(k)*c.base, c.cost+time.Duration(k)*c.cand)
}

// grid holds a driver's cells: grid[app][dataset][technique index].
type grid map[string]map[string][]cell

func newGrid(specs []apps.Spec, datasets []string, techs int) grid {
	gr := make(grid, len(specs))
	for _, s := range specs {
		gr[s.Name] = make(map[string][]cell, len(datasets))
		for _, ds := range datasets {
			gr[s.Name][ds] = make([]cell, techs)
		}
	}
	return gr
}

// timeGrid times every spec on every layout of a walk over datasets and
// techs, each technique applied once per degree kind the specs key on.
func (r *Runner) timeGrid(specs []apps.Spec, datasets []string, techs []reorder.Technique) (grid, error) {
	gr := newGrid(specs, datasets, len(techs))
	return gr, r.walk(datasets, techs, kindsOf(specs), func(l layout) error {
		return r.timeCells(gr, specs, l)
	})
}

// timeCells times each spec l serves and files it in gr: on the dataset's
// own order as every technique's base, on a reorder as its technique's
// candidate.
func (r *Runner) timeCells(gr grid, specs []apps.Spec, l layout) error {
	for _, spec := range specs {
		if !l.serves(spec) {
			continue
		}
		nRoots := r.opts.RootsPerApp
		if spec.NumRoots > 1 {
			nRoots = spec.NumRoots
		}
		m, err := r.MeasureApp(spec, l.graph(), l.roots(r, nRoots))
		if err != nil {
			return fmt.Errorf("%s: %w", spec.Name, err)
		}
		cells := gr[spec.Name][l.ds]
		if l.res == nil {
			for i := range cells {
				cells[i].base = m.Mean
			}
			continue
		}
		cells[l.ti].cand, cells[l.ti].cost = m.Mean, r.ReorderCost(l.res, l.tech)
	}
	return nil
}

// simulate runs the trace-driven simulation of spec on l.
func (r *Runner) simulate(spec apps.Spec, l layout, maxIters int) (cachesim.Stats, error) {
	return trace.Simulate(spec, l.graph(), l.roots(r, max(spec.NumRoots, 1)),
		trace.MachineFor(r.opts.Scale), maxIters)
}

// datasetColumns fills a table one dataset column at a time: row i is
// labels[i], then column(g)[i] for each dataset's graph g.
func (r *Runner) datasetColumns(datasets, labels []string, column func(*graph.Graph) []string) ([][]string, error) {
	rows := make([][]string, len(labels))
	for i, label := range labels {
		rows[i] = []string{label}
	}
	return rows, r.walk(datasets, nil, nil, func(l layout) error {
		for i, c := range column(l.g) {
			rows[i] = append(rows[i], c)
		}
		return nil
	})
}
