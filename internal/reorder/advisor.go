package reorder

import (
	"fmt"

	"graphreorder/internal/graph"
	"graphreorder/internal/stats"
)

// The skew-gated advisor. The paper's finding is two-sided: lightweight
// reordering pays off on graphs whose degree skew concentrates most edges
// on a small hot vertex set (Fig. 6), and it is neutral-to-harmful when
// the skew is absent (Fig. 7) or the hot set is already packed. Advise
// encodes that decision procedure: measure the skew (Table I) and the
// layout's remaining packing headroom (Table II), and recommend a
// hub-aware pipeline only when both say reordering will pay.

// The advisor's gates, calibrated on the paper's dataset suite: the eight
// skewed datasets pass all three, the no-skew pair (uniform, road) fails
// the skew gates.
const (
	// maxHotFrac is the largest hot-vertex fraction still considered
	// skewed; above it (uniform-ish degree distributions classify about
	// half the vertices hot) reordering has nothing to concentrate.
	maxHotFrac = 1.0 / 3
	// minEdgeCoverage is the smallest fraction of edges the hot set must
	// cover for reordering to matter.
	minEdgeCoverage = 0.6
	// minPackingGain is the smallest predicted packing-factor improvement
	// (ideal / current) worth a reorder; below it the hot set is already
	// packed.
	minPackingGain = 1.25
)

// Recommendation is the advisor's verdict: a ready-to-run Plan plus the
// evidence it was based on.
type Recommendation struct {
	// Spec is the registry spec of the recommended pipeline ("dbg",
	// "original"), suitable for logs, BuildSpecs and ByName round-trips.
	Spec string
	// Plan executes the recommendation (the identity plan when Spec is
	// "original").
	Plan *Plan
	// Reason explains the verdict in one sentence.
	Reason string
	// HotFrac and EdgeCoverage are the measured Table I skew statistics.
	HotFrac, EdgeCoverage float64
	// CurrentPacking is the layout's measured packing factor and
	// PredictedPacking the contiguous ideal; PredictedGain is their
	// ratio, clamped to >= 1.
	CurrentPacking, PredictedPacking, PredictedGain float64
}

// Reorder reports whether the recommendation is an actual reordering
// (false means serve the original order).
func (r Recommendation) Reorder() bool { return r.Spec != "original" }

// Advise inspects g's degree skew and current hot-vertex packing and
// recommends a reordering pipeline — or the identity, per the paper's
// "reordering can hurt" finding.
func Advise(g *graph.Graph, kind graph.DegreeKind) Recommendation {
	return AdviseDegrees(g.Degrees(kind), g.NumEdges())
}

// AdviseDegrees is Advise from what it reads of a graph: the degree array
// of the kind the plan will reorder by, and the edge count. A loader that
// knows the degrees before the edges can therefore advise before it reads
// an edge.
func AdviseDegrees(degs []uint32, m int) Recommendation {
	rec := Recommendation{Spec: "original", Plan: Compose(), PredictedGain: 1}

	if len(degs) == 0 || m == 0 {
		rec.Reason = "graph has no edges: nothing to reorder"
		return rec
	}
	skew := stats.SkewOf(degs, graph.AvgDegreeOf(len(degs), m))
	q := packingOf(degs, m, nil)
	rec.HotFrac = skew.HotFrac
	rec.EdgeCoverage = skew.EdgeCoverage
	rec.CurrentPacking = q.PackingFactor
	rec.PredictedPacking = q.IdealPackingFactor
	rec.PredictedGain = q.PackingGain()

	switch {
	case skew.HotFrac > maxHotFrac:
		rec.Reason = fmt.Sprintf(
			"degree distribution is not skewed (%.0f%% of vertices are hot, above the %.0f%% gate): hub packing would disrupt structure for no locality win",
			100*skew.HotFrac, 100*maxHotFrac)
	case skew.EdgeCoverage < minEdgeCoverage:
		rec.Reason = fmt.Sprintf(
			"hot vertices cover only %.0f%% of edges (below the %.0f%% gate): too little traffic concentrates on hubs to reward packing them",
			100*skew.EdgeCoverage, 100*minEdgeCoverage)
	case rec.PredictedGain < minPackingGain:
		rec.Reason = fmt.Sprintf(
			"hot vertices are already packed (packing factor %.2f of an ideal %.2f, gain %.2fx below the %.2fx gate)",
			q.PackingFactor, q.IdealPackingFactor, rec.PredictedGain, minPackingGain)
	default:
		rec.Spec = "dbg"
		rec.Plan = Compose(NewDBG())
		rec.Reason = fmt.Sprintf(
			"skewed degrees (%.0f%% hot vertices cover %.0f%% of edges) and a %.2fx packing-factor headroom (%.2f -> %.2f): DBG packs hubs while preserving structure",
			100*skew.HotFrac, 100*skew.EdgeCoverage, rec.PredictedGain, q.PackingFactor, q.IdealPackingFactor)
	}
	return rec
}

// Auto is the advisor as a Technique: each Permute call runs Advise on
// the input graph and executes the recommended plan. Registered as
// "auto" in the registry; on low-skew graphs it deliberately returns the
// identity permutation.
type Auto struct{}

// Name implements Technique.
func (Auto) Name() string { return "Auto" }

// Permute implements Technique.
func (Auto) Permute(g *graph.Graph, kind graph.DegreeKind) (Permutation, error) {
	if perm, _, _ := Resolve(Auto{}, g.Degrees(kind), g.NumEdges()); perm != nil {
		return perm, nil
	}
	return Identity(g.NumVertices()), nil
}

// Resolve turns a technique into a graph's order from what the paper's
// skew-aware techniques read of it (Table V): degs, the degree array of
// the kind the order is keyed by, and m, the edge count. perm is nil for
// the identity. For Auto, and a plan of Auto alone, the advisor picks the
// plan first (AdviseDegrees) and rec is its verdict; rec is nil for every
// other technique. ok is false when the plan reads more than the degrees
// — a structure-based technique (Gorder, random orders) or a composition
// of stages — and the caller runs PlanOf(t) on the graph itself.
func Resolve(t Technique, degs []uint32, m int) (perm Permutation, rec *Recommendation, ok bool) {
	plan := PlanOf(t)
	if len(plan.stages) == 1 {
		if _, auto := plan.stages[0].(Auto); auto {
			r := AdviseDegrees(degs, m)
			rec, plan = &r, r.Plan
		}
	}
	switch len(plan.stages) {
	case 0:
		return nil, rec, true
	case 1:
		if db, ok := plan.stages[0].(DegreeBased); ok {
			return db.PermuteDegrees(degs, graph.AvgDegreeOf(len(degs), m)), rec, true
		}
	}
	return nil, rec, false
}
