package graph

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"testing"

	"graphreorder/internal/rng"
)

// benchGraph builds a power-law-ish multigraph big enough for codec
// throughput to dominate fixed costs (~64K vertices, ~1M edges).
func benchGraph(b *testing.B, weighted bool) *Graph {
	b.Helper()
	const n = 1 << 16
	const m = 1 << 20
	r := rng.New(42)
	edges := make([]Edge, m)
	for i := range edges {
		// Zipf-like sources concentrate edges on hubs, as in real datasets.
		src := VertexID(r.Zipf(n, 1.1))
		dst := VertexID(r.Intn(n))
		edges[i] = Edge{Src: src, Dst: dst}
		if weighted {
			edges[i].Weight = uint32(1 + r.Intn(63))
		}
	}
	g, err := BuildWith(edges, BuildOptions{NumVertices: n, Weighted: weighted, SortNeighbors: true})
	if err != nil {
		b.Fatal(err)
	}
	return g
}

func BenchmarkWriteBinary(b *testing.B) {
	g := benchGraph(b, true)
	for _, bench := range []struct {
		name string
		fn   func(io.Writer, *Graph) error
	}{
		{"direct", WriteBinary},
		{"legacy", legacyWriteBinary},
	} {
		b.Run(bench.name, func(b *testing.B) {
			var buf bytes.Buffer
			if err := bench.fn(&buf, g); err != nil {
				b.Fatal(err)
			}
			b.SetBytes(int64(buf.Len()))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				buf.Reset()
				if err := bench.fn(&buf, g); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkReadBinary(b *testing.B) {
	g := benchGraph(b, true)
	var buf bytes.Buffer
	if err := WriteBinary(&buf, g); err != nil {
		b.Fatal(err)
	}
	data := buf.Bytes()
	for _, bench := range []struct {
		name string
		fn   func(io.Reader) (*Graph, error)
	}{
		{"direct", ReadBinary},
		{"legacy", legacyReadBinary},
		// A load into a new order, relabeling as it reads, against the
		// load and relabel it replaces.
		{"ordered", func(r io.Reader) (*Graph, error) { return readOrdered(r, reverseIDs) }},
		{"then-relabel", func(r io.Reader) (*Graph, error) {
			g, err := ReadBinary(r)
			if err != nil {
				return nil, err
			}
			p, _ := reverseIDs(make([]uint32, g.n), g.m)
			return g.RelabelWorkers(p, 1)
		}},
	} {
		b.Run(bench.name, func(b *testing.B) {
			b.SetBytes(int64(len(data)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := bench.fn(bytes.NewReader(data)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func TestLegacyCodecAgreesWithDirect(t *testing.T) {
	// The legacy codec below is the benchmark baseline; keep it honest.
	g := buildRandom(t, 21, 64, 400, true)
	var direct, legacy bytes.Buffer
	if err := WriteBinary(&direct, g); err != nil {
		t.Fatal(err)
	}
	if err := legacyWriteBinary(&legacy, g); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(direct.Bytes(), legacy.Bytes()) {
		t.Fatal("direct and legacy writers disagree on the wire format")
	}
	h, err := legacyReadBinary(bytes.NewReader(direct.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if h.NumVertices() != g.NumVertices() || h.NumEdges() != g.NumEdges() {
		t.Fatal("legacy reader mangled dimensions")
	}
}

// legacyWriteBinary is the pre-optimization writer: binary.Write per
// slice, which stages the whole slice into a freshly allocated buffer on
// every call. Kept here as the benchmark baseline.
func legacyWriteBinary(w io.Writer, g *Graph) error {
	bw := bufio.NewWriter(w)
	hdr := []uint64{binaryMagic, binaryVersion, uint64(g.n), uint64(g.m)}
	flags := uint64(0)
	if g.Weighted() {
		flags = 1
	}
	hdr = append(hdr, flags)
	for _, h := range hdr {
		if err := binary.Write(bw, binary.LittleEndian, h); err != nil {
			return err
		}
	}
	if err := binary.Write(bw, binary.LittleEndian, g.outIndex); err != nil {
		return err
	}
	if err := binary.Write(bw, binary.LittleEndian, g.outEdges); err != nil {
		return err
	}
	if g.Weighted() {
		if err := binary.Write(bw, binary.LittleEndian, appendWeights(nil, g.outWeights, g.wb, 0, uint64(g.m))); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// legacyReadBinary is the pre-optimization loader: binary.Read per slice
// plus a full edge-list materialization and builder re-run (including the
// neighbor sort). Kept here as the benchmark baseline.
func legacyReadBinary(r io.Reader) (*Graph, error) {
	br := bufio.NewReader(r)
	var hdr [5]uint64
	for i := range hdr {
		if err := binary.Read(br, binary.LittleEndian, &hdr[i]); err != nil {
			return nil, fmt.Errorf("graph: reading header: %w", err)
		}
	}
	if hdr[0] != binaryMagic {
		return nil, errors.New("graph: bad magic; not a graph binary")
	}
	if hdr[1] != binaryVersion {
		return nil, fmt.Errorf("graph: unsupported version %d", hdr[1])
	}
	n, m, flags := int(hdr[2]), int(hdr[3]), hdr[4]
	if n < 0 || m < 0 || n > 1<<31 || m > 1<<38 {
		return nil, fmt.Errorf("graph: implausible dimensions n=%d m=%d", n, m)
	}
	outIndex := make([]uint64, n+1)
	if err := binary.Read(br, binary.LittleEndian, outIndex); err != nil {
		return nil, fmt.Errorf("graph: reading index: %w", err)
	}
	outEdges := make([]VertexID, m)
	if err := binary.Read(br, binary.LittleEndian, outEdges); err != nil {
		return nil, fmt.Errorf("graph: reading edges: %w", err)
	}
	var outWeights []uint32
	if flags&1 != 0 {
		outWeights = make([]uint32, m)
		if err := binary.Read(br, binary.LittleEndian, outWeights); err != nil {
			return nil, fmt.Errorf("graph: reading weights: %w", err)
		}
	}
	edges := make([]Edge, m)
	v := 0
	for i := 0; i < m; i++ {
		for uint64(i) >= outIndex[v+1] {
			v++
			if v >= n {
				return nil, errors.New("graph: corrupt index array")
			}
		}
		if int(outEdges[i]) >= n {
			return nil, fmt.Errorf("graph: edge destination %d out of range", outEdges[i])
		}
		edges[i] = Edge{Src: VertexID(v), Dst: outEdges[i]}
		if outWeights != nil {
			edges[i].Weight = outWeights[i]
		}
	}
	g, err := BuildWith(edges, BuildOptions{
		NumVertices:   n,
		Weighted:      outWeights != nil,
		SortNeighbors: true,
	})
	if err != nil {
		return nil, err
	}
	if err := g.Validate(); err != nil {
		return nil, err
	}
	return g, nil
}
