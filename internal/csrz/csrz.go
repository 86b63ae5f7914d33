package csrz

import (
	"fmt"
	"slices"
	"sync"

	"graphreorder/internal/graph"
)

// Graph is a compressed dual-CSR graph. Both directions keep the plain
// representation's n+1 edge-index array (so degrees, weight slicing and
// parallel chunk balancing behave exactly like *graph.Graph) but replace
// the 4-bytes-per-edge neighbor arrays with delta+varint byte streams,
// addressed by an n+1 byte-offset array. Weights, when present, are the
// plain graph's packed weights, byte for byte: stored once, for the
// out-direction, at the narrowest of 1, 2 or 4 little-endian bytes that
// holds the graph's largest weight, addressed by the out edge-index array
// and index-aligned with the decoded out-neighbors. Readers take a list's
// weights as stored (OutWeightList): hot loops read them in place, the
// rest decode them with WeightList.Append.
//
// A Graph is immutable after construction and safe for concurrent use.
// When it was produced by OpenFile its arrays point into a shared
// read-only mapping; see Close.
type Graph struct {
	n, m int

	outIdx  []uint64 // edge offsets, len n+1; outIdx[n] == m
	outOff  []uint64 // byte offsets into outData, len n+1
	outData []byte
	outW    []byte // m weights of wb bytes each when weighted, else nil

	inIdx  []uint64
	inOff  []uint64
	inData []byte

	wb int // bytes per stored weight: 1, 2 or 4 when weighted, 0 when not

	mapping *mapping // non-nil when mmap-backed (OpenFile)
}

// interface conformance
var (
	_ graph.View             = (*Graph)(nil)
	_ graph.NeighborStreamer = (*Graph)(nil)
)

// NumVertices returns the number of vertices.
func (g *Graph) NumVertices() int { return g.n }

// NumEdges returns the number of directed edges.
func (g *Graph) NumEdges() int { return g.m }

// Weighted reports whether the graph carries edge weights.
func (g *Graph) Weighted() bool { return g.wb != 0 }

// AvgDegree returns the mean out-degree.
func (g *Graph) AvgDegree() float64 { return graph.AvgDegreeOf(g.n, g.m) }

// OutDegree returns the out-degree of v.
func (g *Graph) OutDegree(v graph.VertexID) int {
	return int(g.outIdx[v+1] - g.outIdx[v])
}

// InDegree returns the in-degree of v.
func (g *Graph) InDegree(v graph.VertexID) int {
	return int(g.inIdx[v+1] - g.inIdx[v])
}

// Degrees returns the per-vertex degree array of the requested kind.
// Degrees live in the index arrays, so this never touches the compressed
// adjacency bytes.
func (g *Graph) Degrees(kind graph.DegreeKind) []uint32 {
	d := make([]uint32, g.n)
	for v := 0; v < g.n; v++ {
		switch kind {
		case graph.InDegree:
			d[v] = uint32(g.InDegree(graph.VertexID(v)))
		case graph.OutDegree:
			d[v] = uint32(g.OutDegree(graph.VertexID(v)))
		case graph.TotalDegree:
			d[v] = uint32(g.InDegree(graph.VertexID(v)) + g.OutDegree(graph.VertexID(v)))
		default:
			panic(fmt.Sprintf("csrz: unknown DegreeKind %d", kind))
		}
	}
	return d
}

// OutWeightList returns the weights aligned with v's out-neighbors as
// stored: a read-only sub-slice of the packed weight section.
func (g *Graph) OutWeightList(v graph.VertexID) graph.WeightList {
	wb := uint64(g.wb)
	return graph.WeightList{Bytes: g.outW[g.outIdx[v]*wb : g.outIdx[v+1]*wb], Width: g.wb}
}

// OutNeighbors decodes v's out-neighbor list into a fresh slice, in
// stored order. This is the convenience path (query layer, tests); hot
// loops use OutIter or AppendOutNeighbors instead.
func (g *Graph) OutNeighbors(v graph.VertexID) []graph.VertexID {
	return g.AppendOutNeighbors(v, nil)
}

// InNeighbors decodes v's in-neighbor list into a fresh slice, in stored
// order.
func (g *Graph) InNeighbors(v graph.VertexID) []graph.VertexID {
	return g.AppendInNeighbors(v, nil)
}

// AppendOutNeighbors decodes v's out-neighbors into buf and returns it.
func (g *Graph) AppendOutNeighbors(v graph.VertexID, buf []graph.VertexID) []graph.VertexID {
	return appendList(buf, g.outData[g.outOff[v]:g.outOff[v+1]], v, g.OutDegree(v))
}

// AppendInNeighbors decodes v's in-neighbors into buf and returns it.
func (g *Graph) AppendInNeighbors(v graph.VertexID, buf []graph.VertexID) []graph.VertexID {
	return appendList(buf, g.inData[g.inOff[v]:g.inOff[v+1]], v, g.InDegree(v))
}

// appendList is the bulk decoder: it appends the deg neighbors of v that
// data encodes to buf. The buffer grows once, to the list's length, and
// the varint loop stores into it by index. data was validated at
// construction (Encode) or load (ReadCSRZ/OpenFile), so the only bounds
// checks are the slices' own.
func appendList(buf []graph.VertexID, data []byte, v graph.VertexID, deg int) []graph.VertexID {
	base := len(buf)
	buf = slices.Grow(buf, deg)[:base+deg]
	prev := int64(v)
	i := 0
	for k := base; k < len(buf); k++ {
		c := data[i]
		i++
		x := uint64(c & 0x7f)
		for s := uint(7); c >= 0x80; s += 7 {
			c = data[i]
			i++
			x |= uint64(c&0x7f) << s
		}
		prev += unzigzag(x)
		buf[k] = graph.VertexID(uint32(prev))
	}
	return buf
}

// InIndex returns the in-direction edge-offset array (length n+1, the
// same array and name as graph.Graph.InIndex); the engine balances
// parallel pull chunks by it on either backend. Read-only.
func (g *Graph) InIndex() []uint64 { return g.inIdx }

// OutIter returns a streaming decoder over v's out-neighbors. The
// iterator reads the compressed bytes in place — nothing is materialized.
func (g *Graph) OutIter(v graph.VertexID) AdjIter {
	return AdjIter{
		data: g.outData[g.outOff[v]:g.outOff[v+1]],
		prev: int64(v),
		rem:  g.OutDegree(v),
	}
}

// InIter returns a streaming decoder over v's in-neighbors.
func (g *Graph) InIter(v graph.VertexID) AdjIter {
	return AdjIter{
		data: g.inData[g.inOff[v]:g.inOff[v+1]],
		prev: int64(v),
		rem:  g.InDegree(v),
	}
}

// AdjIter streams one neighbor list. It is a value type: copy freely,
// no allocation, no cleanup. Valid only while the Graph it came from is
// retained (for mmap-backed graphs, until Close).
type AdjIter struct {
	data []byte
	prev int64
	rem  int
}

// Next returns the next neighbor in stored order, or ok=false when the
// list is exhausted.
func (it *AdjIter) Next() (graph.VertexID, bool) {
	if it.rem <= 0 {
		return 0, false
	}
	it.rem--
	// Inline LEB128 decode. The data stream was validated at
	// construction (Encode) or load (ReadCSRZ/OpenFile), so the
	// bounds check here is the slice's own.
	var x uint64
	var s uint
	i := 0
	for {
		c := it.data[i]
		i++
		if c < 0x80 {
			x |= uint64(c) << s
			break
		}
		x |= uint64(c&0x7f) << s
		s += 7
	}
	it.data = it.data[i:]
	it.prev += unzigzag(x)
	return graph.VertexID(uint32(it.prev)), true
}

// Remaining returns how many neighbors are left to decode.
func (it *AdjIter) Remaining() int { return it.rem }

// Encode compresses g. The plain graph is not retained: its packed
// weights (if any) are copied as they are, at the width g stores them
// once compact — a patched graph that shares its arrays is compacted
// first (graph.Graph.Compact), so the encoding is a function of the lists.
// Both directions encode concurrently, the out-direction with its weights.
func Encode(g *graph.Graph) *Graph {
	g = g.Compact()
	n, m := g.NumVertices(), g.NumEdges()
	w, wb := g.OutWeightArray()
	z := &Graph{n: n, m: m, wb: wb}

	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		z.outIdx = append([]uint64(nil), g.OutIndex()...)
		z.outOff, z.outData = encodeDirection(g.OutIndex(), g.OutEdgeArray(), n)
		z.outW = slices.Clone(w)
	}()
	go func() {
		defer wg.Done()
		z.inIdx = append([]uint64(nil), g.InIndex()...)
		z.inOff, z.inData = encodeDirection(g.InIndex(), g.InEdgeArray(), n)
	}()
	wg.Wait()
	return z
}

func encodeDirection(index []uint64, edges []graph.VertexID, n int) (off []uint64, data []byte) {
	off = make([]uint64, n+1)
	// First pass: exact byte size, so the data buffer allocates once.
	var total uint64
	for v := 0; v < n; v++ {
		off[v] = total
		prev := uint32(v)
		for _, u := range edges[index[v]:index[v+1]] {
			total += uint64(deltaLen(prev, uint32(u)))
			prev = uint32(u)
		}
	}
	off[n] = total
	data = make([]byte, 0, total)
	for v := 0; v < n; v++ {
		prev := uint32(v)
		for _, u := range edges[index[v]:index[v+1]] {
			data = appendUvarint(data, zigzag(int64(uint32(u))-int64(prev)))
			prev = uint32(u)
		}
	}
	return off, data
}

// Decode rebuilds a plain *graph.Graph (fresh arrays, independent of any
// mapping: the packed weights are copied, since a mapped file must not
// leak into a plain graph). Used when a .csrz snapshot must be reordered
// or mutated, and by round-trip tests.
func (g *Graph) Decode() (*graph.Graph, error) {
	outEdges := make([]graph.VertexID, 0, g.m)
	inEdges := make([]graph.VertexID, 0, g.m)
	for v := 0; v < g.n; v++ {
		outEdges = g.AppendOutNeighbors(graph.VertexID(v), outEdges)
		inEdges = g.AppendInNeighbors(graph.VertexID(v), inEdges)
	}
	return graph.NewFromCSR(g.n, g.m,
		append([]uint64(nil), g.outIdx...), outEdges, slices.Clone(g.outW), g.wb,
		append([]uint64(nil), g.inIdx...), inEdges)
}

// Stats describes the space behavior of a compressed graph.
type Stats struct {
	Vertices int
	Edges    int
	Weighted bool

	// Adjacency-only byte counts: what the compression actually acts on.
	PlainAdjBytes      int64 // 4 bytes × m × 2 directions
	CompressedAdjBytes int64 // len(outData) + len(inData)
	OutAdjBytes        int64
	InAdjBytes         int64

	// Whole-representation resident sizes (indexes + weights included):
	// both representations store each weight once, ResidentBytes at the
	// width this graph stores, PlainResidentBytes at the narrowest that
	// holds the largest weight, as a plain graph does. The two agree on
	// every file but a version-1 one.
	ResidentBytes      int64
	PlainResidentBytes int64

	Ratio       float64 // PlainAdjBytes / CompressedAdjBytes
	BitsPerEdge float64 // compressed adjacency bits per directed edge (both dirs)
	MmapBacked  bool
	OnDiskBytes int64 // .csrz file size when mmap-backed, else 0
}

// Stats returns space statistics for g.
func (g *Graph) Stats() Stats {
	s := Stats{
		Vertices:    g.n,
		Edges:       g.m,
		Weighted:    g.Weighted(),
		OutAdjBytes: int64(len(g.outData)),
		InAdjBytes:  int64(len(g.inData)),
	}
	s.PlainAdjBytes = int64(g.m) * 4 * 2
	s.CompressedAdjBytes = s.OutAdjBytes + s.InAdjBytes
	idxBytes := int64(len(g.outIdx)+len(g.inIdx)) * 8
	offBytes := int64(len(g.outOff)+len(g.inOff)) * 8
	s.ResidentBytes = s.CompressedAdjBytes + idxBytes + offBytes + int64(len(g.outW))
	s.PlainResidentBytes = s.PlainAdjBytes + idxBytes
	if g.Weighted() {
		// The width Encode copied, or narrower: a version-1 file stored
		// four bytes whatever the weights, and Decode narrows them.
		s.PlainResidentBytes += int64(g.m) * int64(graph.WeightWidth(g.outW, g.wb))
	}
	if s.CompressedAdjBytes > 0 {
		s.Ratio = float64(s.PlainAdjBytes) / float64(s.CompressedAdjBytes)
	}
	if g.m > 0 {
		s.BitsPerEdge = float64(s.CompressedAdjBytes) * 8 / float64(2*g.m)
	}
	if g.mapping != nil {
		s.MmapBacked = true
		s.OnDiskBytes = g.mapping.size
	}
	return s
}

// Close releases the file mapping behind an OpenFile-loaded graph. After
// Close every iterator and slice obtained from g is invalid; callers
// (internal/server) must drain readers first — see the package contract
// in doc.go. Close is idempotent and a no-op for heap-backed graphs.
func (g *Graph) Close() error {
	if g.mapping == nil {
		return nil
	}
	return g.mapping.close()
}

// MmapBacked reports whether g's arrays live in a file mapping that
// Close will invalidate.
func (g *Graph) MmapBacked() bool { return g.mapping != nil }

// Closed reports whether Close has unmapped g's backing file. Heap-backed
// graphs are never closed. Safe to call concurrently with Close — the
// snapshot lifecycle tests use it to pin down exactly when the refcount
// protocol releases a mapping.
func (g *Graph) Closed() bool { return g.mapping != nil && g.mapping.isClosed() }

// validate fully decodes both directions, checking that every neighbor
// ID is in range and that every list consumes exactly its byte extent.
// Called on load paths (ReadCSRZ, OpenFile) before the graph is handed
// out, so that AdjIter can run without per-step validation.
func (g *Graph) validate() error {
	if err := validateDirection(g.outIdx, g.outOff, g.outData, g.n, g.m, "out"); err != nil {
		return err
	}
	return validateDirection(g.inIdx, g.inOff, g.inData, g.n, g.m, "in")
}

func validateDirection(idx, off []uint64, data []byte, n, m int, dir string) error {
	if len(idx) != n+1 || len(off) != n+1 {
		return fmt.Errorf("csrz: %s index length %d/%d, want %d", dir, len(idx), len(off), n+1)
	}
	if idx[0] != 0 || off[0] != 0 {
		return fmt.Errorf("csrz: %s index does not start at 0", dir)
	}
	if idx[n] != uint64(m) {
		return fmt.Errorf("csrz: %s edge count %d, want %d", dir, idx[n], m)
	}
	if off[n] != uint64(len(data)) {
		return fmt.Errorf("csrz: %s byte extent %d, want %d", dir, off[n], len(data))
	}
	for v := 0; v < n; v++ {
		if idx[v] > idx[v+1] || off[v] > off[v+1] {
			return fmt.Errorf("csrz: %s offsets not monotonic at vertex %d", dir, v)
		}
		deg := int(idx[v+1] - idx[v])
		b := data[off[v]:off[v+1]]
		prev := int64(v)
		for i := 0; i < deg; i++ {
			u, k := readUvarint(b)
			if k == 0 {
				return fmt.Errorf("csrz: %s list of vertex %d truncated", dir, v)
			}
			b = b[k:]
			prev += unzigzag(u)
			if prev < 0 || prev >= int64(n) {
				return fmt.Errorf("csrz: %s neighbor %d of vertex %d out of range", dir, prev, v)
			}
		}
		if len(b) != 0 {
			return fmt.Errorf("csrz: %s list of vertex %d has %d trailing bytes", dir, v, len(b))
		}
	}
	return nil
}
