package graph

import (
	"bytes"
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
	b.Run("direct", func(b *testing.B) {
		var buf bytes.Buffer
		if err := WriteBinary(&buf, g); err != nil {
			b.Fatal(err)
		}
		b.SetBytes(int64(buf.Len()))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			buf.Reset()
			if err := WriteBinary(&buf, g); err != nil {
				b.Fatal(err)
			}
		}
	})
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
		// A stream that hides its length is staged before it is decoded.
		{"unsized", func(r io.Reader) (*Graph, error) { return ReadBinary(struct{ io.Reader }{r}) }},
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
