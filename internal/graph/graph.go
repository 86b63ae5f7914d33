// Package graph provides the Compressed Sparse Row (CSR) graph substrate
// that every other component of this repository builds on.
//
// A Graph stores a directed multigraph in CSR form twice: once over
// out-edges (for push-based computations) and once over in-edges (for
// pull-based computations), mirroring §II-B of the paper. Vertices are
// dense uint32 IDs in [0, N). Optional per-edge weights (used by SSSP) are
// stored once, aligned with the out-edge array: only a push reads them,
// and a pull sees in-neighbor IDs alone. They are packed at the narrowest
// of 1, 2 or 4 bytes that holds the largest of them, the layout
// internal/csrz stores too, and handed out a list at a time as stored
// (OutWeightList): the SSSP push reads them in place.
//
// Graphs are immutable after construction; reordering produces a new Graph
// via Relabel.
package graph

import (
	"errors"
	"fmt"
)

// VertexID identifies a vertex. IDs are dense in [0, NumVertices).
type VertexID = uint32

// Edge is a directed edge with an optional weight (0 when unweighted).
type Edge struct {
	Src, Dst VertexID
	Weight   uint32
}

// Graph is an immutable directed multigraph in dual-CSR form.
type Graph struct {
	n int
	m int // number of directed edges

	// Out-CSR: outEdges[outIndex[v]:outIndex[v+1]] are v's out-neighbors.
	outIndex []uint64
	outEdges []VertexID

	// In-CSR: inEdges[inIndex[v]:inIndex[v+1]] are v's in-neighbors.
	inIndex []uint64
	inEdges []VertexID

	// Weights aligned with outEdges, wb little-endian bytes each (see
	// weights.go); nil when the graph is unweighted.
	outWeights []byte
	wb         int // bytes per weight: 1, 2 or 4 when weighted, 0 when not
}

// NumVertices returns the number of vertices N.
func (g *Graph) NumVertices() int { return g.n }

// NumEdges returns the number of directed edges M.
func (g *Graph) NumEdges() int { return g.m }

// Weighted reports whether per-edge weights are present.
func (g *Graph) Weighted() bool { return g.wb != 0 }

// AvgDegree returns the average degree M/N (0 for an empty graph).
func (g *Graph) AvgDegree() float64 { return AvgDegreeOf(g.n, g.m) }

// AvgDegreeOf returns the average degree m/n of a graph of n vertices and
// m edges (0 when n is 0).
func AvgDegreeOf(n, m int) float64 {
	if n == 0 {
		return 0
	}
	return float64(m) / float64(n)
}

// OutDegree returns the out-degree of v.
func (g *Graph) OutDegree(v VertexID) int {
	return int(g.outIndex[v+1] - g.outIndex[v])
}

// InDegree returns the in-degree of v.
func (g *Graph) InDegree(v VertexID) int {
	return int(g.inIndex[v+1] - g.inIndex[v])
}

// OutNeighbors returns v's out-neighbors as a shared sub-slice; callers
// must not modify it.
func (g *Graph) OutNeighbors(v VertexID) []VertexID {
	return g.outEdges[g.outIndex[v]:g.outIndex[v+1]]
}

// InNeighbors returns v's in-neighbors as a shared sub-slice; callers must
// not modify it.
func (g *Graph) InNeighbors(v VertexID) []VertexID {
	return g.inEdges[g.inIndex[v]:g.inIndex[v+1]]
}

// OutWeightList returns the weights aligned with OutNeighbors(v) as
// stored: a read-only sub-slice of the packed weight array.
func (g *Graph) OutWeightList(v VertexID) WeightList {
	wb := uint64(g.wb)
	return WeightList{Bytes: g.outWeights[g.outIndex[v]*wb : g.outIndex[v+1]*wb], Width: g.wb}
}

// OutIndex exposes the raw out-CSR offset array (length N+1). It is shared
// state: callers must treat it as read-only. Exposed for the trace engine,
// which models the exact memory layout of the Vertex Array.
func (g *Graph) OutIndex() []uint64 { return g.outIndex }

// InIndex exposes the raw in-CSR offset array (length N+1), read-only.
func (g *Graph) InIndex() []uint64 { return g.inIndex }

// OutEdgeArray exposes the raw out-edge array (length M), read-only.
func (g *Graph) OutEdgeArray() []VertexID { return g.outEdges }

// InEdgeArray exposes the raw in-edge array (length M), read-only.
func (g *Graph) InEdgeArray() []VertexID { return g.inEdges }

// OutWeightArray exposes the raw packed weights (M weights of wb bytes
// each, as WeightList holds them) and wb; nil and 0 when unweighted.
// Read-only.
func (g *Graph) OutWeightArray() (w []byte, wb int) { return g.outWeights, g.wb }

// Degrees returns a freshly allocated slice of degrees of the requested
// kind for all vertices.
func (g *Graph) Degrees(kind DegreeKind) []uint32 {
	d := make([]uint32, g.n)
	for v := 0; v < g.n; v++ {
		switch kind {
		case InDegree:
			d[v] = uint32(g.InDegree(VertexID(v)))
		case OutDegree:
			d[v] = uint32(g.OutDegree(VertexID(v)))
		case TotalDegree:
			d[v] = uint32(g.InDegree(VertexID(v)) + g.OutDegree(VertexID(v)))
		default:
			panic(fmt.Sprintf("graph: unknown DegreeKind %d", kind))
		}
	}
	return d
}

// MaxDegree returns the maximum degree of the requested kind (0 for an
// empty graph).
func (g *Graph) MaxDegree(kind DegreeKind) uint32 {
	var max uint32
	for _, d := range g.Degrees(kind) {
		if d > max {
			max = d
		}
	}
	return max
}

// DegreeKind selects which degree a computation is based on. The paper's
// Table VIII prescribes out-degree for pull-dominated applications and
// in-degree for push-dominated ones.
type DegreeKind uint8

const (
	// InDegree counts edges pointing at the vertex.
	InDegree DegreeKind = iota
	// OutDegree counts edges leaving the vertex.
	OutDegree
	// TotalDegree is the sum of in- and out-degree.
	TotalDegree
)

// String returns the lowercase name of the degree kind.
func (k DegreeKind) String() string {
	switch k {
	case InDegree:
		return "in"
	case OutDegree:
		return "out"
	case TotalDegree:
		return "total"
	default:
		return fmt.Sprintf("DegreeKind(%d)", uint8(k))
	}
}

// Edges materializes the edge list (src, dst, weight) in out-CSR order.
// Intended for tests and I/O, not hot paths.
func (g *Graph) Edges() []Edge {
	edges := make([]Edge, 0, g.m)
	var ws []uint32
	for v := 0; v < g.n; v++ {
		ws = g.OutWeightList(VertexID(v)).Append(ws[:0])
		for i, dst := range g.OutNeighbors(VertexID(v)) {
			e := Edge{Src: VertexID(v), Dst: dst}
			if g.Weighted() {
				e.Weight = ws[i]
			}
			edges = append(edges, e)
		}
	}
	return edges
}

// Validate checks internal CSR invariants. It returns nil for a
// well-formed graph and is used by tests and by the binary loader to
// reject corrupted files.
func (g *Graph) Validate() error {
	if g.n < 0 || g.m < 0 {
		return errors.New("graph: negative dimensions")
	}
	if len(g.outIndex) != g.n+1 || len(g.inIndex) != g.n+1 {
		return fmt.Errorf("graph: index arrays have lengths %d/%d, want %d",
			len(g.outIndex), len(g.inIndex), g.n+1)
	}
	if len(g.outEdges) != g.m || len(g.inEdges) != g.m {
		return fmt.Errorf("graph: edge arrays have lengths %d/%d, want %d",
			len(g.outEdges), len(g.inEdges), g.m)
	}
	if err := validateIndex(g.outIndex, g.m, "out"); err != nil {
		return err
	}
	if err := validateIndex(g.inIndex, g.m, "in"); err != nil {
		return err
	}
	for _, d := range g.outEdges {
		if int(d) >= g.n {
			return fmt.Errorf("graph: out-edge destination %d out of range [0,%d)", d, g.n)
		}
	}
	for _, s := range g.inEdges {
		if int(s) >= g.n {
			return fmt.Errorf("graph: in-edge source %d out of range [0,%d)", s, g.n)
		}
	}
	switch {
	case g.wb == 0 && g.outWeights != nil:
		return errors.New("graph: weights present on an unweighted graph")
	case g.wb == 0:
	case g.wb != 1 && g.wb != 2 && g.wb != 4:
		return fmt.Errorf("graph: weight width %d, want 1, 2 or 4", g.wb)
	case len(g.outWeights) != g.wb*g.m:
		return fmt.Errorf("graph: weight array has %d bytes, want %d weights of %d", len(g.outWeights), g.m, g.wb)
	case WeightWidth(g.outWeights, g.wb) != g.wb:
		return fmt.Errorf("graph: weights stored %d bytes wide, wider than the largest needs", g.wb)
	}
	return nil
}

func validateIndex(index []uint64, m int, name string) error {
	if index[0] != 0 {
		return fmt.Errorf("graph: %s-index[0] = %d, want 0", name, index[0])
	}
	for i := 1; i < len(index); i++ {
		if index[i] < index[i-1] {
			return fmt.Errorf("graph: %s-index not monotonic at %d", name, i)
		}
	}
	if index[len(index)-1] != uint64(m) {
		return fmt.Errorf("graph: %s-index[N] = %d, want %d", name, index[len(index)-1], m)
	}
	return nil
}
