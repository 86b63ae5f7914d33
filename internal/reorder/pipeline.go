package reorder

import (
	"context"
	"fmt"
	"strings"
	"time"

	"graphreorder/internal/graph"
)

// Plan is a composable reordering pipeline: an ordered list of stages,
// each a Technique. Stage i+1 sees the graph as relabeled by stages
// 0..i — it receives the prior permutation's degree view, exactly the
// paper's Gorder-then-DBG composition (§VII) generalized to any chain —
// and the stage permutations are composed into one. A Plan is itself a
// Technique, so it slots into every Technique-taking entry point, but the
// plan methods (Apply, ApplyWorkers, ApplyContext) are the canonical way
// to execute a reordering: they time both phases and attach the new
// layout's packing report to the Result.
//
// The empty plan is the identity ordering, and the only spelling of it:
// len(Stages()) == 0 is how a consumer asks "does this reorder at all".
type Plan struct {
	stages []Technique
}

// Compose builds a Plan from stages, applied left to right. Nested plans
// are flattened and nil and IdentityTechnique stages dropped, so
// Compose(PlanOf(a), b) chains cleanly and no plan relabels by the
// identity.
func Compose(stages ...Technique) *Plan {
	p := &Plan{stages: make([]Technique, 0, len(stages))}
	for _, s := range stages {
		switch t := s.(type) {
		case nil, IdentityTechnique:
		case *Plan:
			p.stages = append(p.stages, t.stages...)
		default:
			p.stages = append(p.stages, s)
		}
	}
	return p
}

// PlanOf wraps a single technique as a one-stage plan; a *Plan argument
// is returned as-is. Nil means the identity plan.
func PlanOf(t Technique) *Plan {
	if p, ok := t.(*Plan); ok {
		return p
	}
	return Compose(t)
}

// Stages returns the plan's stages in application order (a copy).
func (p *Plan) Stages() []Technique {
	return append([]Technique(nil), p.stages...)
}

// Name implements Technique: stage names joined by the spec separator
// ("DBG|Gorder"); the empty plan is "Original".
func (p *Plan) Name() string {
	if len(p.stages) == 0 {
		return IdentityTechnique{}.Name()
	}
	names := make([]string, len(p.stages))
	for i, s := range p.stages {
		names[i] = s.Name()
	}
	return strings.Join(names, "|")
}

// Permute implements Technique: it runs the stages in order and returns
// the composed permutation.
func (p *Plan) Permute(g *graph.Graph, kind graph.DegreeKind) (Permutation, error) {
	return p.permuteContext(context.Background(), g, kind, 1)
}

// PermuteWorkers is Permute with a worker count for the relabels between
// the stages of a multi-stage plan, as ApplyWorkers takes one.
func (p *Plan) PermuteWorkers(g *graph.Graph, kind graph.DegreeKind, workers int) (Permutation, error) {
	return p.permuteContext(context.Background(), g, kind, workers)
}

// permuteContext chains the stages, checking the context between them
// (stage boundaries are the pipeline's cancellation points; a stage is
// never torn apart). Intermediate relabels — a later stage must see the
// graph in the order produced so far — use the given worker count; they
// are charged to the permutation phase because they are part of
// computing the composed permutation.
func (p *Plan) permuteContext(ctx context.Context, g *graph.Graph, kind graph.DegreeKind, workers int) (Permutation, error) {
	if len(p.stages) == 0 {
		return Identity(g.NumVertices()), nil
	}
	var perm Permutation
	cur := g
	for i, stage := range p.stages {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		sp, err := stage.Permute(cur, kind)
		if err != nil {
			if len(p.stages) == 1 {
				return nil, err
			}
			return nil, fmt.Errorf("stage %d (%s): %w", i, stage.Name(), err)
		}
		if perm == nil {
			perm = sp
		} else {
			perm = perm.Compose(sp)
		}
		if i < len(p.stages)-1 {
			cur, err = cur.RelabelWorkers(sp, workers)
			if err != nil {
				return nil, fmt.Errorf("stage %d (%s): relabel: %w", i, stage.Name(), err)
			}
		}
	}
	return perm, nil
}

// Apply executes the plan on g: composed permutation, sequential CSR
// rebuild, packing report. See ApplyContext for the full contract.
func (p *Plan) Apply(g *graph.Graph, kind graph.DegreeKind) (Result, error) {
	return p.ApplyContext(context.Background(), g, kind, 1)
}

// ApplyWorkers is Apply with an explicit worker count for the CSR rebuild
// (0 or 1 pins the sequential rebuild so measured RebuildTime is
// host-independent; negative means GOMAXPROCS; parallel rebuilds are
// capped at 16 workers — see graph.BuildOptions.Workers). The rebuilt
// graph is bit-identical at every worker count.
func (p *Plan) ApplyWorkers(g *graph.Graph, kind graph.DegreeKind, workers int) (Result, error) {
	return p.ApplyContext(context.Background(), g, kind, workers)
}

// ApplyContext is the canonical reordering execution path. Cancellation
// is cooperative and phase-grained: the context is checked before each
// pipeline stage and again before the CSR rebuild, so a deadline aborts
// between phases with ctx.Err() but never tears a phase apart. The
// returned Result carries the relabeled graph, the composed permutation,
// both phase timings (the paper's Fig. 10 cost split), and the new
// layout's EvaluatePacking report, an O(V) pass taken outside the timed
// phases. Its neighbor gap and Predicted* fields are zero: a caller that
// reads them runs Evaluate(res.Graph, kind, nil), an O(E) pass.
func (p *Plan) ApplyContext(ctx context.Context, g *graph.Graph, kind graph.DegreeKind, workers int) (Result, error) {
	if err := ctx.Err(); err != nil {
		return Result{}, err
	}
	start := time.Now()
	perm, err := p.permuteContext(ctx, g, kind, workers)
	reorderTime := time.Since(start)
	if err != nil {
		return Result{}, fmt.Errorf("reorder: %s: %w", p.Name(), err)
	}
	if err := ctx.Err(); err != nil {
		return Result{}, err
	}
	start = time.Now()
	relabeled, err := g.RelabelWorkers(perm, workers)
	rebuildTime := time.Since(start)
	if err != nil {
		return Result{}, fmt.Errorf("reorder: %s: relabel: %w", p.Name(), err)
	}
	return Result{
		Graph:       relabeled,
		Perm:        perm,
		ReorderTime: reorderTime,
		RebuildTime: rebuildTime,
		Quality:     EvaluatePacking(relabeled, kind, nil),
	}, nil
}
