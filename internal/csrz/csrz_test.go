package csrz

import (
	"bytes"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"graphreorder/internal/gen"
	"graphreorder/internal/graph"
)

func testGraph(t testing.TB, name string, weighted bool) *graph.Graph {
	t.Helper()
	cfg := gen.MustDataset(name, gen.Tiny)
	cfg.Weighted = weighted
	g, err := gen.Generate(cfg)
	if err != nil {
		t.Fatalf("generate %s: %v", name, err)
	}
	return g
}

// shuffledGraph builds a graph whose neighbor lists are deliberately NOT
// sorted, to pin the order-preservation contract (Relabel does not
// re-sort, so the codec must not assume ascending lists).
func shuffledGraph(t testing.TB) *graph.Graph {
	t.Helper()
	rng := rand.New(rand.NewSource(7))
	const n = 500
	var edges []graph.Edge
	for v := 0; v < n; v++ {
		deg := rng.Intn(8)
		for i := 0; i < deg; i++ {
			edges = append(edges, graph.Edge{Src: graph.VertexID(v), Dst: graph.VertexID(rng.Intn(n))})
		}
	}
	g, err := graph.BuildWith(edges, graph.BuildOptions{NumVertices: n, SortNeighbors: false})
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	return g
}

func assertSameView(t *testing.T, want *graph.Graph, got graph.View) {
	t.Helper()
	if got.NumVertices() != want.NumVertices() || got.NumEdges() != want.NumEdges() || got.Weighted() != want.Weighted() {
		t.Fatalf("shape mismatch: got (%d,%d,%v) want (%d,%d,%v)",
			got.NumVertices(), got.NumEdges(), got.Weighted(),
			want.NumVertices(), want.NumEdges(), want.Weighted())
	}
	for v := 0; v < want.NumVertices(); v++ {
		id := graph.VertexID(v)
		if got.OutDegree(id) != want.OutDegree(id) || got.InDegree(id) != want.InDegree(id) {
			t.Fatalf("vertex %d: degree mismatch", v)
		}
		if o, w := got.OutNeighbors(id), want.OutNeighbors(id); !equalIDs(o, w) {
			t.Fatalf("vertex %d: out neighbors %v want %v", v, o, w)
		}
		if o, w := got.InNeighbors(id), want.InNeighbors(id); !equalIDs(o, w) {
			t.Fatalf("vertex %d: in neighbors mismatch", v)
		}
		if want.Weighted() {
			if !reflect.DeepEqual(got.OutWeightList(id).Append([]uint32{}), want.OutWeightList(id).Append([]uint32{})) {
				t.Fatalf("vertex %d: out weights mismatch", v)
			}
		}
	}
}

// sameSections reports whether a and b hold the same dimensions, weight
// width and sections, byte for byte.
func sameSections(a, b *Graph) bool {
	return a.n == b.n && a.m == b.m && a.wb == b.wb &&
		reflect.DeepEqual(a.outIdx, b.outIdx) && reflect.DeepEqual(a.outOff, b.outOff) &&
		bytes.Equal(a.outData, b.outData) && bytes.Equal(a.outW, b.outW) &&
		reflect.DeepEqual(a.inIdx, b.inIdx) && reflect.DeepEqual(a.inOff, b.inOff) &&
		bytes.Equal(a.inData, b.inData)
}

func equalIDs(a, b []graph.VertexID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestEncodeRoundTrip(t *testing.T) {
	for _, tc := range []struct {
		name     string
		weighted bool
	}{{"lj", false}, {"uni", false}, {"road", true}} {
		t.Run(tc.name, func(t *testing.T) {
			g := testGraph(t, tc.name, tc.weighted)
			z := Encode(g)
			assertSameView(t, g, z)

			dec, err := z.Decode()
			if err != nil {
				t.Fatalf("decode: %v", err)
			}
			assertSameView(t, g, dec)
		})
	}
}

func TestEncodePreservesUnsortedOrder(t *testing.T) {
	g := shuffledGraph(t)
	z := Encode(g)
	assertSameView(t, g, z)
}

// TestIteratorMatchesNeighbors pins the two decoders against the plain
// lists and against each other: the streaming AdjIter and the bulk
// Append*Neighbors must both replay a list in stored order, and the bulk
// one must do so appended onto a non-empty buffer (whose contents it
// keeps) and into one too small for the list (which it grows).
func TestIteratorMatchesNeighbors(t *testing.T) {
	for name, g := range map[string]*graph.Graph{"lj": testGraph(t, "lj", false), "unsorted": shuffledGraph(t)} {
		z := Encode(g)
		if len(z.outData) <= z.m || len(z.inData) <= z.m {
			t.Fatalf("%s: no multi-byte varint in the encoding; the test would not cover them", name)
		}
		maxDeg := 0
		for v := 0; v < g.NumVertices(); v++ {
			id := graph.VertexID(v)
			maxDeg = max(maxDeg, g.OutDegree(id), g.InDegree(id))
			for _, dir := range []struct {
				name   string
				want   []graph.VertexID
				it     AdjIter
				append func(graph.VertexID, []graph.VertexID) []graph.VertexID
			}{
				{"out", g.OutNeighbors(id), z.OutIter(id), z.AppendOutNeighbors},
				{"in", g.InNeighbors(id), z.InIter(id), z.AppendInNeighbors},
			} {
				it, want := dir.it, dir.want
				if it.Remaining() != len(want) {
					t.Fatalf("%s vertex %d %s: Remaining %d want %d", name, v, dir.name, it.Remaining(), len(want))
				}
				for i, w := range want {
					u, ok := it.Next()
					if !ok || u != w {
						t.Fatalf("%s vertex %d %s: iter[%d] = %d,%v want %d", name, v, dir.name, i, u, ok, w)
					}
				}
				if _, ok := it.Next(); ok {
					t.Fatalf("%s vertex %d %s: iterator did not terminate", name, v, dir.name)
				}

				const sentinel = graph.VertexID(0xFFFFFFFF)
				onto := dir.append(id, []graph.VertexID{sentinel, sentinel})
				if len(onto) != 2+len(want) || onto[0] != sentinel || onto[1] != sentinel || !equalIDs(onto[2:], want) {
					t.Fatalf("%s vertex %d %s: append onto a non-empty buffer = %v want prefix + %v", name, v, dir.name, onto, want)
				}
				small := make([]graph.VertexID, 0, len(want)/2)
				if got := dir.append(id, small); !equalIDs(got, want) {
					t.Fatalf("%s vertex %d %s: append into a short buffer = %v want %v", name, v, dir.name, got, want)
				}
			}
		}
		if name == "lj" && maxDeg < 64 {
			t.Fatalf("lj: largest list has %d neighbors; no hub list covered", maxDeg)
		}
	}
}

// edgelessWeighted is a weighted graph without edges: its weight
// sections are empty, so only the header says it is weighted.
func edgelessWeighted(t testing.TB) *graph.Graph {
	t.Helper()
	g, err := graph.BuildWith(nil, graph.BuildOptions{NumVertices: 3, Weighted: true})
	if err != nil {
		t.Fatal(err)
	}
	if !g.Weighted() {
		t.Fatal("edgeless build dropped the weighted flag")
	}
	return g
}

func TestFileRoundTrip(t *testing.T) {
	for _, tc := range []struct {
		name  string
		graph func(testing.TB) *graph.Graph
	}{
		{"lj", func(t testing.TB) *graph.Graph { return testGraph(t, "lj", false) }},
		{"road", func(t testing.TB) *graph.Graph { return testGraph(t, "road", true) }},
		{"edgeless-weighted", edgelessWeighted},
	} {
		t.Run(tc.name, func(t *testing.T) {
			g := tc.graph(t)
			z := Encode(g)
			path := filepath.Join(t.TempDir(), "g.csrz")
			if err := z.WriteFile(path); err != nil {
				t.Fatalf("write: %v", err)
			}

			f, err := os.Open(path)
			if err != nil {
				t.Fatal(err)
			}
			heap, err := ReadCSRZ(f)
			f.Close()
			if err != nil {
				t.Fatalf("ReadCSRZ: %v", err)
			}
			assertSameView(t, g, heap)
			if heap.MmapBacked() {
				t.Fatal("ReadCSRZ graph claims to be mmap-backed")
			}

			mapped, err := OpenFile(path)
			if err != nil {
				t.Fatalf("OpenFile: %v", err)
			}
			assertSameView(t, g, mapped)
			st := mapped.Stats()
			if st.MmapBacked != (mapped.mapping != nil) {
				t.Fatalf("stats mmap flag mismatch")
			}
			if err := mapped.Close(); err != nil {
				t.Fatalf("close: %v", err)
			}
			if err := mapped.Close(); err != nil {
				t.Fatalf("second close: %v", err)
			}
		})
	}
}

// patchChain returns g patched four times: an insert (a build's first
// patch copies every list into arrays with room), an insert of weight 300
// that widens the weights to two bytes, the removal of that edge, which
// shares the wide arrays and keeps their width though one byte would do,
// and one more insert, sharing them again.
func patchChain(t testing.TB, g *graph.Graph) []*graph.Graph {
	t.Helper()
	n := g.NumVertices()
	chain := []*graph.Graph{g}
	for _, edits := range [][]graph.EdgeEdit{
		{{Src: 1, Dst: 2, Weight: 3}},
		{{Src: 0, Dst: 1, Weight: 300}},
		{{Src: 0, Dst: 1, Weight: 300, Remove: true}, {Src: 5, Dst: 6, Weight: 7}},
		{{Src: 2, Dst: 3, Weight: 9}},
	} {
		p, err := chain[len(chain)-1].Patch(edits, n, nil)
		if err != nil {
			t.Fatal(err)
		}
		chain = append(chain, p)
	}
	return chain[1:]
}

// TestEncodeOfPatchIsEncodeOfCompact: Encode of a patched graph, which
// reads each list where the patch left it, equals Encode of its Compact,
// section for section, through a chain that widens the weights and then
// keeps the wide width after the edge that needed it is gone: the
// encoding stores the width the lists need.
func TestEncodeOfPatchIsEncodeOfCompact(t *testing.T) {
	chain := patchChain(t, testGraph(t, "sd", true))
	narrowed := chain[2]
	if narrowed.IsCompact() || narrowed.OutWeightList(0).Width != 2 {
		t.Fatal("the removal did not leave a shared graph with two-byte weights")
	}
	for i, p := range chain {
		if got, want := Encode(p), Encode(p.Compact()); !sameSections(got, want) {
			t.Errorf("patch %d: Encode differs from Encode of its Compact (weight width %d, want %d)", i, got.wb, want.wb)
		}
	}
	if wb := Encode(narrowed).wb; wb != 1 {
		t.Errorf("the narrowed patch encodes at %d bytes a weight, want 1", wb)
	}
}

// TestEncodeAllocatesItsSections: encoding a twice-patched sd/small graph
// allocates at most 1.2x the bytes its sections hold; it reads each list
// where the patches left it instead of compacting a copy of the whole CSR
// first (2.6x when it did).
func TestEncodeAllocatesItsSections(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's own allocations are counted")
	}
	cfg := gen.MustDataset("sd", gen.Small)
	cfg.Weighted = true
	g, err := gen.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	n := g.NumVertices()
	p, err := g.Patch([]graph.EdgeEdit{{Src: 1, Dst: 2, Weight: 3}}, n, nil)
	if err == nil {
		p, err = p.Patch([]graph.EdgeEdit{{Src: 5, Dst: 6, Weight: 7}}, n, nil)
	}
	if err != nil {
		t.Fatal(err)
	}
	if p.IsCompact() {
		t.Fatal("the second patch did not share the first one's arrays")
	}
	var z *Graph
	got := allocatedBy(func() { z = Encode(p) })
	held := z.Stats().ResidentBytes
	t.Logf("Encode allocated %d B for sections of %d B (%.2fx)", got, held, float64(got)/float64(held))
	if float64(got) > 1.2*float64(held) {
		t.Errorf("Encode allocated %d B, more than 1.2x the %d B its sections hold", got, held)
	}
}

func TestWriteIsDeterministic(t *testing.T) {
	z := Encode(testGraph(t, "lj", false))
	var a, b bytes.Buffer
	if _, err := z.Write(&a); err != nil {
		t.Fatal(err)
	}
	if _, err := z.Write(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("two writes of the same graph differ")
	}
}

func TestCorruptionDetected(t *testing.T) {
	z := Encode(testGraph(t, "lj", false))
	path := filepath.Join(t.TempDir(), "g.csrz")
	if err := z.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Flip one adjacency bit somewhere past the header.
	raw[len(raw)/2] ^= 0x10
	bad := filepath.Join(t.TempDir(), "bad.csrz")
	if err := os.WriteFile(bad, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenFile(bad); err == nil {
		t.Fatal("OpenFile accepted a corrupted file")
	}
	if _, err := ReadCSRZ(bytes.NewReader(raw)); err == nil {
		t.Fatal("ReadCSRZ accepted a corrupted stream")
	}
	// Truncation must also fail, in both readers.
	if _, err := ReadCSRZ(bytes.NewReader(raw[:len(raw)/3])); err == nil {
		t.Fatal("ReadCSRZ accepted a truncated stream")
	}
	trunc := filepath.Join(t.TempDir(), "trunc.csrz")
	if err := os.WriteFile(trunc, raw[:len(raw)/3], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenFile(trunc); err == nil {
		t.Fatal("OpenFile accepted a truncated file")
	}
}

// TestStats checks the space accounting on an unweighted and a weighted
// graph. Both representations store each weight once, on the out-edges,
// at the same width: on sd/tiny (weights 1..63) one byte, which
// ResidentBytes and PlainResidentBytes — what graphinfo and the compress
// experiment compare against — both charge.
func TestStats(t *testing.T) {
	for _, tc := range []struct {
		name     string
		weighted bool
		wb       int64 // stored bytes per weight
	}{{"lj", false, 0}, {"sd", true, 1}} {
		g := testGraph(t, tc.name, tc.weighted)
		z := Encode(g)
		st := z.Stats()
		if st.Vertices != g.NumVertices() || st.Edges != g.NumEdges() {
			t.Fatalf("%s: stats shape mismatch: %+v", tc.name, st)
		}
		if st.PlainAdjBytes != int64(g.NumEdges())*8 {
			t.Fatalf("%s: plain adjacency bytes %d want %d", tc.name, st.PlainAdjBytes, g.NumEdges()*8)
		}
		if st.CompressedAdjBytes <= 0 || st.CompressedAdjBytes >= st.PlainAdjBytes {
			t.Fatalf("%s: compression did not shrink adjacency: %d vs %d", tc.name, st.CompressedAdjBytes, st.PlainAdjBytes)
		}
		if st.Ratio <= 1 {
			t.Fatalf("%s: ratio %.3f, want > 1", tc.name, st.Ratio)
		}
		n, m := int64(g.NumVertices()), int64(g.NumEdges())
		idx := 2 * (n + 1) * 8
		if want := st.CompressedAdjBytes + 2*idx + m*tc.wb; st.ResidentBytes != want {
			t.Errorf("%s: ResidentBytes %d, want %d (adjacency + indexes + offsets + %d B per weight)",
				tc.name, st.ResidentBytes, want, tc.wb)
		}
		if want := st.PlainAdjBytes + idx + m*tc.wb; st.PlainResidentBytes != want {
			t.Errorf("%s: PlainResidentBytes %d, want %d (adjacency + indexes + %d B per weight)",
				tc.name, st.PlainResidentBytes, want, tc.wb)
		}
	}
}

// TestWeightWidth pins the narrowest width at each boundary, on the plain
// graph and in what Encode stores: a wider one would still decode
// correctly, so only this notices the waste.
func TestWeightWidth(t *testing.T) {
	for maxW, want := range map[uint32]int{0: 1, 63: 1, 255: 1, 256: 2, 65535: 2, 65536: 4, math.MaxUint32: 4} {
		g, err := graph.BuildWith([]graph.Edge{{Src: 0, Dst: 1, Weight: 1}, {Src: 1, Dst: 0, Weight: maxW}},
			graph.BuildOptions{Weighted: true, SortNeighbors: true})
		if err != nil {
			t.Fatal(err)
		}
		if _, got := g.OutWeightArray(); got != want {
			t.Errorf("largest weight %d: plain width %d, want %d", maxW, got, want)
		}
		if got := Encode(g).wb; got != want {
			t.Errorf("largest weight %d: encoded width %d, want %d", maxW, got, want)
		}
	}
}

func TestVarint(t *testing.T) {
	cases := []int64{0, 1, -1, 2, -2, 63, 64, -64, -65, 1 << 20, -(1 << 20), 1<<32 - 1, -(1<<32 - 1)}
	for _, d := range cases {
		b := appendUvarint(nil, zigzag(d))
		if len(b) != uvarintLen(zigzag(d)) {
			t.Fatalf("delta %d: encoded %d bytes, uvarintLen says %d", d, len(b), uvarintLen(zigzag(d)))
		}
		u, n := readUvarint(b)
		if n != len(b) || unzigzag(u) != d {
			t.Fatalf("delta %d: round-trip got %d (consumed %d/%d)", d, unzigzag(u), n, len(b))
		}
	}
	if _, n := readUvarint([]byte{0x80, 0x80, 0x80, 0x80, 0x80, 0x80}); n != 0 {
		t.Fatal("overlong varint accepted")
	}
	if _, n := readUvarint([]byte{0x80}); n != 0 {
		t.Fatal("truncated varint accepted")
	}
}

func TestEmptyGraph(t *testing.T) {
	g, err := graph.BuildWith(nil, graph.BuildOptions{NumVertices: 3})
	if err != nil {
		t.Fatal(err)
	}
	z := Encode(g)
	assertSameView(t, g, z)
	var buf bytes.Buffer
	if _, err := z.Write(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadCSRZ(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	assertSameView(t, g, back)
}
