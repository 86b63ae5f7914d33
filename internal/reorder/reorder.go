// Package reorder implements the paper's primary contribution —
// Degree-Based Grouping (DBG) — together with every reordering technique
// it is evaluated against: Sort, Hub Sorting, Hub Clustering (each in both
// the paper's DBG-framework formulation and an "original implementation"
// variant), Random reordering at vertex and cache-block granularity, and
// Gorder.
//
// A reordering technique produces a Permutation: newID[v] is the new ID of
// original vertex v. Applying the permutation with graph.Relabel yields a
// graph whose arrays are physically laid out in the new order, which is
// exactly the paper's notion of reordering vertices in memory (§II-E).
//
// Skew-aware techniques depend only on the degree array; they additionally
// implement DegreeBased, which both simplifies testing against the paper's
// worked examples (Fig. 2 and Fig. 4) and makes the reordering cost model
// transparent. Per the paper's Table V, Sort, Hub Sorting, Hub Clustering
// and DBG are one algorithm — assign each vertex a group from its degree,
// lay the groups out hottest-first, keep the original order inside a
// group (stableGroupLayout) — and differ only in the group function.
//
// The paper's constants are constants here: 64 B cache blocks, 8 B
// per-vertex properties, "hot" meaning degree >= the average degree A,
// DBG's eight groups and C = A/2 for dbg:<k>.
//
// Techniques compose into pipelines (Plan, Compose, ParsePlan — specs
// like "dbg|gorder" or "dbg:8"), every executed plan reports its layout's
// packing (EvaluatePacking: the paper's packing factor and hub working-set
// bytes; Evaluate adds the O(E) neighbor gap and predicted compression),
// and a skew-gated advisor (Advise, the "auto" technique) picks a
// pipeline — or the identity, when the degree distribution does not
// reward reordering — from those metrics.
package reorder

import (
	"fmt"
	"time"

	"graphreorder/internal/graph"
)

// Permutation maps original vertex IDs to new vertex IDs: p[v] is where
// vertex v lands. A valid permutation is a bijection on [0, len(p)).
type Permutation []graph.VertexID

// Validate returns an error unless p is a bijection on [0, len(p)).
func (p Permutation) Validate() error {
	seen := make([]bool, len(p))
	for v, id := range p {
		if int(id) >= len(p) {
			return fmt.Errorf("reorder: vertex %d maps to %d, out of range [0,%d)", v, id, len(p))
		}
		if seen[id] {
			return fmt.Errorf("reorder: new ID %d assigned twice", id)
		}
		seen[id] = true
	}
	return nil
}

// Inverse returns q with q[p[v]] = v.
func (p Permutation) Inverse() Permutation {
	q := make(Permutation, len(p))
	for v, id := range p {
		q[id] = graph.VertexID(v)
	}
	return q
}

// Compose returns the permutation equivalent to applying p first, then q:
// result[v] = q[p[v]]. Used for, e.g., Gorder followed by DBG (§VII).
func (p Permutation) Compose(q Permutation) Permutation {
	if len(p) != len(q) {
		panic("reorder: composing permutations of different lengths")
	}
	r := make(Permutation, len(p))
	for v := range p {
		r[v] = q[p[v]]
	}
	return r
}

// Identity returns the identity permutation on n vertices.
func Identity(n int) Permutation {
	p := make(Permutation, n)
	for i := range p {
		p[i] = graph.VertexID(i)
	}
	return p
}

// Technique computes a vertex permutation for a graph. Implementations
// must be deterministic for a given receiver value and input graph.
type Technique interface {
	// Name returns the display name used in tables ("DBG", "HubSort", ...).
	Name() string
	// Permute computes the permutation using degrees of the given kind
	// (the paper uses out-degree for pull-dominated applications and
	// in-degree for push-dominated ones, Table VIII).
	Permute(g *graph.Graph, kind graph.DegreeKind) (Permutation, error)
}

// DegreeBased is implemented by skew-aware techniques, which need only the
// degree array and the dataset's average degree. Exercised directly by
// tests that replay the paper's worked examples.
type DegreeBased interface {
	// PermuteDegrees computes the permutation from a degree array. avg is
	// the dataset's average degree (edges/vertices, the paper's hot
	// threshold).
	PermuteDegrees(degs []uint32, avg float64) Permutation
}

// Result bundles the outcome of applying a reordering plan to a graph.
type Result struct {
	// Graph is the relabeled graph.
	Graph *graph.Graph
	// Perm maps original to new IDs.
	Perm Permutation
	// ReorderTime is the time spent computing the permutation — the
	// paper's "reordering time" (the CSR rebuild is reported separately
	// because the paper's future-work section discusses amortizing it).
	ReorderTime time.Duration
	// RebuildTime is the time spent rebuilding the CSR in the new order.
	RebuildTime time.Duration
	// Quality is the new layout's hot-vertex packing (EvaluatePacking,
	// computed outside the timed phases). AvgNeighborGap and the
	// Predicted* fields are zero; Evaluate(Graph, kind, nil) fills them.
	Quality QualityReport
}

// degreeBasedPermute adapts a DegreeBased implementation to the Technique
// contract.
func degreeBasedPermute(g *graph.Graph, kind graph.DegreeKind, d DegreeBased) (Permutation, error) {
	return d.PermuteDegrees(g.Degrees(kind), g.AvgDegree()), nil
}

// IdentityTechnique is the no-op baseline ("Original" ordering).
type IdentityTechnique struct{}

// Name implements Technique.
func (IdentityTechnique) Name() string { return "Original" }

// Permute implements Technique; it returns the identity permutation.
func (IdentityTechnique) Permute(g *graph.Graph, _ graph.DegreeKind) (Permutation, error) {
	return Identity(g.NumVertices()), nil
}
