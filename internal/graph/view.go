package graph

// View is the read-only graph interface the execution engine and the five
// benchmark applications consume. *Graph implements it with direct CSR
// sub-slices; compressed representations (internal/csrz) implement it by
// decoding on demand. Implementations must be safe for concurrent use.
//
// The accessor contract matches *Graph: OutNeighbors/InNeighbors return
// read-only slices, OutWeightList v's weights aligned index-for-index
// with OutNeighbors (weights are stored once, on the out-edges: no kernel
// pulls over them), and the order of a vertex's neighbor list is part of
// the representation — two Views of the same graph must enumerate each
// list in the same order for float-accumulating applications (PR, BC) to
// produce bit-identical results.
//
// Both backends store weights packed at the width the largest needs, the
// same bytes: OutWeightList hands out v's weights as stored, a free
// sub-slice on either backend that a hot loop reads in place and
// WeightList.Append decodes. Neighbor lists are free
// sub-slices on a plain graph but decoded per call on a compressed one.
// Per-edge consumers — the engine's two EdgeMap kernels first among them
// — go through an AdjBuffer, which borrows the sub-slices on plain graphs
// and reuses one decode buffer on NeighborStreamer backends.
type View interface {
	NumVertices() int
	NumEdges() int
	AvgDegree() float64
	Weighted() bool
	OutDegree(v VertexID) int
	InDegree(v VertexID) int
	OutNeighbors(v VertexID) []VertexID
	InNeighbors(v VertexID) []VertexID
	OutWeightList(v VertexID) WeightList
	Degrees(kind DegreeKind) []uint32
}

// NeighborStreamer is implemented by Views whose neighbor lists are
// decoded rather than stored (compressed CSR): Append* decode v's list
// onto buf and return it, so a caller holding one buffer per goroutine
// gets amortized-zero-allocation access. The plain *Graph deliberately
// does not implement it — callers use AdjBuffer, which prefers the
// direct sub-slice.
type NeighborStreamer interface {
	AppendOutNeighbors(v VertexID, buf []VertexID) []VertexID
	AppendInNeighbors(v VertexID, buf []VertexID) []VertexID
}

// AdjBuffer provides amortized-zero-allocation neighbor access over any
// View: direct sub-slices on plain graphs, a reused decode buffer on
// NeighborStreamer implementations. Not safe for concurrent use — keep
// one per goroutine. A returned list is invalidated by the next call.
type AdjBuffer struct {
	st  NeighborStreamer
	buf []VertexID
}

// NewAdjBuffer returns an AdjBuffer for g.
func NewAdjBuffer(g View) AdjBuffer {
	st, _ := g.(NeighborStreamer)
	return AdjBuffer{st: st}
}

// Rebind points a at g, keeping its decode buffer: a pooled AdjBuffer
// serves one View after another without growing a fresh buffer for each.
func (a *AdjBuffer) Rebind(g View) {
	a.st, _ = g.(NeighborStreamer)
}

// Out returns v's out-neighbors of g (read-only, valid until the next
// call on this buffer).
func (a *AdjBuffer) Out(g View, v VertexID) []VertexID {
	if a.st == nil {
		return g.OutNeighbors(v)
	}
	a.buf = a.st.AppendOutNeighbors(v, a.buf[:0])
	return a.buf
}

// In returns v's in-neighbors of g (read-only, valid until the next call
// on this buffer).
func (a *AdjBuffer) In(g View, v VertexID) []VertexID {
	if a.st == nil {
		return g.InNeighbors(v)
	}
	a.buf = a.st.AppendInNeighbors(v, a.buf[:0])
	return a.buf
}

// IsNilView reports whether v is nil or a typed-nil *Graph — the two
// "no graph" shapes an interface parameter can smuggle past a plain nil
// check.
func IsNilView(v View) bool {
	if v == nil {
		return true
	}
	g, ok := v.(*Graph)
	return ok && g == nil
}

// NewFromCSR assembles a Graph directly from dual-CSR arrays (the layout
// Validate checks): index arrays of length n+1, edge arrays of length m,
// out-weights nil (wb 0) or m weights of wb = 1, 2 or 4 bytes each, packed
// as WeightList holds them. The slices are retained, not copied, except
// that weights stored wider than the largest of them needs are re-stored
// at that width (a version-1 .csrz file holds four bytes each whatever
// the weights). Used by decoders that already hold both CSRs
// (internal/csrz) and by tests.
func NewFromCSR(n, m int, outIndex []uint64, outEdges []VertexID, outWeights []byte, wb int,
	inIndex []uint64, inEdges []VertexID) (*Graph, error) {
	g := &Graph{
		n: n, m: m,
		outIndex: outIndex, outEdges: outEdges, outWeights: outWeights, wb: wb,
		inIndex: inIndex, inEdges: inEdges,
	}
	if (wb == 1 || wb == 2 || wb == 4) && len(outWeights) == wb*m {
		g.outWeights, g.wb = narrowWeights(outWeights, wb, m)
	}
	if err := g.Validate(); err != nil {
		return nil, err
	}
	return g, nil
}
