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
// via Relabel. A patched graph (Patch) may share its edge and weight
// arrays with the graph it was patched from: see patch.go for the layout
// and Compact for the way back to a build's.
package graph

import (
	"errors"
	"fmt"
	"sync/atomic"
)

// VertexID identifies a vertex. IDs are dense in [0, NumVertices).
type VertexID = uint32

// Edge is a directed edge with an optional weight (0 when unweighted).
type Edge struct {
	Src, Dst VertexID
	Weight   uint32
}

// Graph is an immutable directed multigraph in dual-CSR form.
//
// Each direction's index holds the prefix sums of the list lengths, so
// outIndex[v+1]-outIndex[v] is v's out-degree on every graph. On a
// compact graph — every build, load and relabel — the index also places
// the lists: outEdges[outIndex[v]:outIndex[v+1]] are v's out-neighbors,
// back to back. A patched graph whose edited lists were written into
// shared capacity (patch.go) has a start array beside the index: v's
// list then begins at outEdges[outStart[v]], and the arrays hold entries
// between its lists that it never reads.
type Graph struct {
	n int
	m int // number of directed edges

	// Out-CSR: v's out-list starts at outIndex[v], or at outStart[v] when
	// outStart is not nil, and is outIndex[v+1]-outIndex[v] long.
	outIndex []uint64
	outStart []uint64
	outEdges []VertexID

	// In-CSR, laid out like the out-CSR.
	inIndex []uint64
	inStart []uint64
	inEdges []VertexID

	// Weights aligned with outEdges, wb little-endian bytes each (see
	// weights.go); nil when the graph is unweighted.
	outWeights []byte
	wb         int // bytes per weight: 1, 2 or 4 when weighted, 0 when not

	// outTail and inTail count the entries of the out- and in-arrays'
	// backing storage that patches have claimed; nil when no patch may
	// write past the arrays (patch.go).
	outTail, inTail *atomic.Uint64
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

// listSpan returns the bounds of v's list in a direction's edge array:
// index holds the prefix sums of the list lengths, start the lists'
// places when they are not back to back (nil when they are).
func listSpan(index, start []uint64, v VertexID) (lo, hi uint64) {
	lo, hi = index[v], index[v+1]
	if start != nil {
		lo, hi = start[v], start[v]+hi-lo
	}
	return lo, hi
}

// OutNeighbors returns v's out-neighbors as a shared sub-slice, capped at
// its length; callers must not modify it.
func (g *Graph) OutNeighbors(v VertexID) []VertexID {
	lo, hi := listSpan(g.outIndex, g.outStart, v)
	return g.outEdges[lo:hi:hi]
}

// InNeighbors returns v's in-neighbors as a shared sub-slice, capped at
// its length; callers must not modify it.
func (g *Graph) InNeighbors(v VertexID) []VertexID {
	lo, hi := listSpan(g.inIndex, g.inStart, v)
	return g.inEdges[lo:hi:hi]
}

// OutWeightList returns the weights aligned with OutNeighbors(v) as
// stored: a read-only sub-slice of the packed weight array, capped at
// its length.
func (g *Graph) OutWeightList(v VertexID) WeightList {
	lo, hi := listSpan(g.outIndex, g.outStart, v)
	wb := uint64(g.wb)
	return WeightList{Bytes: g.outWeights[lo*wb : hi*wb : hi*wb], Width: g.wb}
}

// OutIndex exposes the out-CSR offset array (length N+1): the prefix sums
// of the out-degrees, which place every list on a compact graph and
// would after Compact on any other. It is shared state: callers must
// treat it as read-only. Exposed for the trace engine, which models the
// memory layout of the Vertex Array, and the engine's pull balancing.
func (g *Graph) OutIndex() []uint64 { return g.outIndex }

// InIndex exposes the in-CSR offset array (length N+1), read-only, as
// OutIndex does the out-CSR's.
func (g *Graph) InIndex() []uint64 { return g.inIndex }

// IsCompact reports whether g is laid out as a build lays it out: every
// list at its index offset, back to back, weights at the width the
// largest needs. Only a patched graph may be otherwise; Compact makes it
// so.
func (g *Graph) IsCompact() bool { return g.outStart == nil && g.inStart == nil }

// mustBeCompact panics on a graph whose raw arrays hold entries it does
// not read.
func (g *Graph) mustBeCompact(what string) {
	if !g.IsCompact() {
		panic("graph: " + what + " of a patched graph that shares its arrays; call Compact first")
	}
}

// OutEdgeArray exposes the raw out-edge array (length M) of a compact
// graph, read-only. It panics on any other: call Compact first.
func (g *Graph) OutEdgeArray() []VertexID {
	g.mustBeCompact("OutEdgeArray")
	return g.outEdges
}

// InEdgeArray exposes the raw in-edge array (length M) of a compact
// graph, read-only. It panics on any other: call Compact first.
func (g *Graph) InEdgeArray() []VertexID {
	g.mustBeCompact("InEdgeArray")
	return g.inEdges
}

// OutWeightArray exposes the raw packed weights (M weights of wb bytes
// each, as WeightList holds them) and wb of a compact graph; nil and 0
// when unweighted. Read-only. It panics on a graph that is not compact:
// call Compact first.
func (g *Graph) OutWeightArray() (w []byte, wb int) {
	g.mustBeCompact("OutWeightArray")
	return g.outWeights, g.wb
}

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
	if err := validateIndex(g.outIndex, g.m, "out"); err != nil {
		return err
	}
	if err := validateIndex(g.inIndex, g.m, "in"); err != nil {
		return err
	}
	if err := validateLists(g.outIndex, g.outStart, g.outEdges, g.n, "out"); err != nil {
		return err
	}
	if err := validateLists(g.inIndex, g.inStart, g.inEdges, g.n, "in"); err != nil {
		return err
	}
	switch {
	case g.wb == 0 && g.outWeights != nil:
		return errors.New("graph: weights present on an unweighted graph")
	case g.wb == 0:
	case g.wb != 1 && g.wb != 2 && g.wb != 4:
		return fmt.Errorf("graph: weight width %d, want 1, 2 or 4", g.wb)
	case len(g.outWeights) != g.wb*len(g.outEdges):
		return fmt.Errorf("graph: weight array has %d bytes, want %d weights of %d", len(g.outWeights), len(g.outEdges), g.wb)
	case g.outStart == nil && WeightWidth(g.outWeights, g.wb) != g.wb:
		// A patch that shares its arrays keeps their width: only a
		// compact graph is held to the narrowest.
		return fmt.Errorf("graph: weights stored %d bytes wide, wider than the largest needs", g.wb)
	}
	return nil
}

// validateLists checks that every list of one direction lies inside adj
// and names vertices of [0, n): on a compact direction (nil start) adj
// is the lists back to back, as long as the index says.
func validateLists(index, start []uint64, adj []VertexID, n int, name string) error {
	if start == nil {
		if uint64(len(adj)) != index[n] {
			return fmt.Errorf("graph: %s-edge array has length %d, want %d", name, len(adj), index[n])
		}
		for _, d := range adj {
			if int(d) >= n {
				return fmt.Errorf("graph: %s-edge neighbor %d out of range [0,%d)", name, d, n)
			}
		}
		return nil
	}
	if len(start) != n {
		return fmt.Errorf("graph: %s-start array has length %d, want %d", name, len(start), n)
	}
	for v := range VertexID(n) {
		lo, hi := listSpan(index, start, v)
		if hi < lo || hi > uint64(len(adj)) {
			return fmt.Errorf("graph: %s-list of %d at [%d,%d) outside an array of %d", name, v, lo, hi, len(adj))
		}
		for _, d := range adj[lo:hi] {
			if int(d) >= n {
				return fmt.Errorf("graph: %s-edge neighbor %d out of range [0,%d)", name, d, n)
			}
		}
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
