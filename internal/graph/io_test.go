package graph

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"
	"testing/iotest"

	"graphreorder/internal/rng"
)

// randomEdges generates a reproducible multigraph edge list with self
// loops and duplicates, weighted or not.
func randomIOEdges(t *testing.T, seed uint64, n, m int, weighted bool) []Edge {
	t.Helper()
	r := rng.New(seed)
	edges := make([]Edge, m)
	for i := range edges {
		edges[i] = Edge{Src: VertexID(r.Intn(n)), Dst: VertexID(r.Intn(n))}
		if weighted {
			edges[i].Weight = uint32(1 + r.Intn(63))
		}
	}
	return edges
}

func buildRandom(t *testing.T, seed uint64, n, m int, weighted bool) *Graph {
	t.Helper()
	g, err := BuildWith(randomIOEdges(t, seed, n, m, weighted), BuildOptions{
		NumVertices: n, Weighted: weighted, SortNeighbors: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// requireSameGraph asserts h is byte-for-byte the same CSR as g.
func requireSameGraph(t *testing.T, g, h *Graph, what string) {
	t.Helper()
	if h.NumVertices() != g.NumVertices() || h.NumEdges() != g.NumEdges() {
		t.Fatalf("%s: dimensions changed: %d/%d -> %d/%d",
			what, g.NumVertices(), g.NumEdges(), h.NumVertices(), h.NumEdges())
	}
	if !reflect.DeepEqual(g.OutIndex(), h.OutIndex()) ||
		!reflect.DeepEqual(g.OutEdgeArray(), h.OutEdgeArray()) {
		t.Fatalf("%s: out-CSR changed", what)
	}
	if !reflect.DeepEqual(g.InIndex(), h.InIndex()) ||
		!reflect.DeepEqual(g.InEdgeArray(), h.InEdgeArray()) {
		t.Fatalf("%s: in-CSR changed", what)
	}
	if !reflect.DeepEqual(g.Edges(), h.Edges()) {
		t.Fatalf("%s: edge list (with weights) changed", what)
	}
}

func TestBinaryRoundTripExact(t *testing.T) {
	for _, weighted := range []bool{false, true} {
		g := buildRandom(t, 7, 64, 400, weighted)
		var buf bytes.Buffer
		if err := WriteBinary(&buf, g); err != nil {
			t.Fatal(err)
		}
		h, err := ReadBinary(&buf)
		if err != nil {
			t.Fatal(err)
		}
		requireSameGraph(t, g, h, "binary round trip")
		if err := h.Validate(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestTextToBinaryToTextRoundTrip(t *testing.T) {
	for _, weighted := range []bool{false, true} {
		// Parallel edges stay: the neighbor sort orders them by weight, so
		// the sorted CSR does not depend on the edge list's order.
		g, err := BuildWith(randomIOEdges(t, 11, 40, 200, weighted), BuildOptions{
			NumVertices: 40, Weighted: weighted, SortNeighbors: true,
		})
		if err != nil {
			t.Fatal(err)
		}

		// text -> graph -> binary -> graph -> text: both text forms equal.
		var text1 bytes.Buffer
		if err := WriteEdgeList(&text1, g); err != nil {
			t.Fatal(err)
		}
		edges, err := ReadEdgeList(bytes.NewReader(text1.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		fromText, err := BuildWith(edges, BuildOptions{
			NumVertices: g.NumVertices(), Weighted: weighted, SortNeighbors: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		requireSameGraph(t, g, fromText, "text round trip")

		var bin bytes.Buffer
		if err := WriteBinary(&bin, fromText); err != nil {
			t.Fatal(err)
		}
		fromBin, err := ReadBinary(&bin)
		if err != nil {
			t.Fatal(err)
		}
		var text2 bytes.Buffer
		if err := WriteEdgeList(&text2, fromBin); err != nil {
			t.Fatal(err)
		}
		if text1.String() != text2.String() {
			t.Fatal("text -> binary -> text round trip changed the edge list")
		}
	}
}

func TestReadAutoSniffsFormats(t *testing.T) {
	g := buildRandom(t, 3, 32, 100, true)

	var bin bytes.Buffer
	if err := WriteBinary(&bin, g); err != nil {
		t.Fatal(err)
	}
	h, format, err := ReadAuto(bytes.NewReader(bin.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if format != FormatBinary {
		t.Fatalf("binary input detected as %v", format)
	}
	requireSameGraph(t, g, h, "ReadAuto binary")

	var text bytes.Buffer
	if err := WriteEdgeList(&text, g); err != nil {
		t.Fatal(err)
	}
	h, format, err = ReadAuto(bytes.NewReader(text.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if format != FormatText {
		t.Fatalf("text input detected as %v", format)
	}
	requireSameGraph(t, g, h, "ReadAuto text")
}

func TestReadAutoShortAndEmptyInputs(t *testing.T) {
	// Inputs shorter than the 8-byte magic must fall through to the text
	// parser, not error out of the sniffer.
	g, format, err := ReadAuto(strings.NewReader("1 2\n"))
	if err != nil {
		t.Fatal(err)
	}
	if format != FormatText || g.NumEdges() != 1 {
		t.Fatalf("short text input: format=%v edges=%d", format, g.NumEdges())
	}
	g, format, err = ReadAuto(strings.NewReader(""))
	if err != nil {
		t.Fatal(err)
	}
	if format != FormatText || g.NumVertices() != 0 {
		t.Fatalf("empty input: format=%v n=%d", format, g.NumVertices())
	}
}

func TestReadBinaryCorruptHeader(t *testing.T) {
	g := buildRandom(t, 5, 16, 40, false)
	var buf bytes.Buffer
	if err := WriteBinary(&buf, g); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()

	corrupt := func(mutate func(b []byte)) []byte {
		b := bytes.Clone(good)
		mutate(b)
		return b
	}
	cases := map[string][]byte{
		"bad magic":   corrupt(func(b []byte) { b[0] ^= 0xff }),
		"bad version": corrupt(func(b []byte) { b[8] = 0x7f }),
		"giant n": corrupt(func(b []byte) {
			binary.LittleEndian.PutUint64(b[16:], 1<<40)
		}),
		"giant m": corrupt(func(b []byte) {
			binary.LittleEndian.PutUint64(b[24:], 1<<40)
		}),
		"non-monotonic index": corrupt(func(b []byte) {
			binary.LittleEndian.PutUint64(b[40+8:], ^uint64(0)>>1)
		}),
		"edge out of range": corrupt(func(b []byte) {
			idxBytes := (g.NumVertices() + 1) * 8
			binary.LittleEndian.PutUint32(b[40+idxBytes:], uint32(g.NumVertices()+5))
		}),
	}
	for name, data := range cases {
		if _, err := ReadBinary(bytes.NewReader(data)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestReadBinaryTruncated(t *testing.T) {
	g := buildRandom(t, 9, 32, 200, true)
	var buf bytes.Buffer
	if err := WriteBinary(&buf, g); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()
	// Cut in the header, in the index array, in the edge array, and in the
	// weight array.
	idxEnd := 40 + (g.NumVertices()+1)*8
	edgeEnd := idxEnd + g.NumEdges()*4
	for _, cut := range []int{0, 7, 39, idxEnd - 3, edgeEnd - 3, len(good) - 1} {
		if _, err := ReadBinary(bytes.NewReader(good[:cut])); err == nil {
			t.Errorf("truncated at %d/%d bytes: accepted", cut, len(good))
		}
	}
}

// TestStagedLoadKeepsStreamError: a stream that hides its length and
// fails mid-payload fails the load with its own error; one that just ends
// early fails it with io.ErrUnexpectedEOF, whether the index, the edges
// or the weights were cut.
func TestStagedLoadKeepsStreamError(t *testing.T) {
	g := buildRandom(t, 9, 32, 200, true)
	var buf bytes.Buffer
	if err := WriteBinary(&buf, g); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()
	failed := errors.New("disk gone")
	for _, cut := range []int{41, 40 + 8*(g.NumVertices()+1) + 3, len(good) - 1} {
		r := io.MultiReader(bytes.NewReader(good[:cut]), iotest.ErrReader(failed))
		if _, err := ReadBinary(r); !errors.Is(err, failed) {
			t.Errorf("failing at %d/%d bytes: error %v, want the stream's", cut, len(good), err)
		}
		if _, err := ReadBinary(struct{ io.Reader }{bytes.NewReader(good[:cut])}); !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Errorf("ending at %d/%d bytes: error %v, want io.ErrUnexpectedEOF", cut, len(good), err)
		}
	}
}

// allocatedBy reports the heap bytes fn allocated.
func allocatedBy(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestReadBinarySizedReader: a reader that can tell its length settles
// the header's claim up front — a lying header is refused before anything
// is allocated, an honest one gets each array allocated once — and a
// reader that cannot still loads the same graph once staged.
func TestReadBinarySizedReader(t *testing.T) {
	var lying [40]byte
	binary.LittleEndian.PutUint64(lying[0:], binaryMagic)
	binary.LittleEndian.PutUint64(lying[8:], binaryVersion)
	binary.LittleEndian.PutUint64(lying[16:], 1<<31)
	binary.LittleEndian.PutUint64(lying[24:], 1<<38)
	var err error
	if got := allocatedBy(func() { _, err = ReadBinary(bytes.NewReader(lying[:])) }); err == nil || got > 1<<20 {
		t.Errorf("lying header on a sized reader: err %v after allocating %d bytes", err, got)
	}
	if _, _, err := ReadAuto(bytes.NewReader(lying[:])); err == nil {
		t.Error("ReadAuto accepted the lying header")
	}

	g := buildRandom(t, 17, 1<<14, 1<<18, true)
	var buf bytes.Buffer
	if err := WriteBinary(&buf, g); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	// A load keeps the out-CSR, its weights at their width (one byte each:
	// buildRandom draws them from 1..63), an in-CSR of the same size as
	// the out-CSR and the in-CSR's cursor array; chunk buffers and the
	// bufio are the slack, which a 4-byte array of every weight exceeds.
	m := uint64(g.NumEdges())
	outCSR := uint64(len(data)-40) - 4*m
	keeps := 2*outCSR + m + uint64(8*g.NumVertices())
	var sized, unsized, auto *Graph
	sizedBytes := allocatedBy(func() { sized, err = ReadBinary(bytes.NewReader(data)) })
	if err != nil {
		t.Fatal(err)
	}
	unsizedBytes := allocatedBy(func() { unsized, err = ReadBinary(struct{ io.Reader }{bytes.NewReader(data)}) })
	if err != nil {
		t.Fatal(err)
	}
	autoBytes := allocatedBy(func() { auto, _, err = ReadAuto(bytes.NewReader(data)) })
	if err != nil {
		t.Fatal(err)
	}
	const slack = 1 << 19
	if sizedBytes > keeps+slack || autoBytes > keeps+slack {
		t.Errorf("sized load allocated %d (ReadAuto %d) bytes for a graph that keeps %d", sizedBytes, autoBytes, keeps)
	}
	if unsizedBytes <= sizedBytes {
		t.Errorf("staged path allocated %d bytes, the sized one %d: the sized path is not taken", unsizedBytes, sizedBytes)
	}
	requireSameGraph(t, g, sized, "sized reader")
	requireSameGraph(t, g, unsized, "unsized reader")
	requireSameGraph(t, g, auto, "ReadAuto on a sized reader")
}

// readOrdered is ReadBinary loading in the order choose picks.
func readOrdered(r io.Reader, choose OrderChooser) (*Graph, error) {
	return readBinary(bufio.NewReaderSize(r, ioChunkBytes), remainingBytes(r), choose)
}

// reverseIDs is an OrderChooser that renames v to n-1-v, moving every
// list.
func reverseIDs(degs []uint32, _ int) ([]VertexID, error) {
	p := make([]VertexID, len(degs))
	for v := range p {
		p[v] = VertexID(len(p) - 1 - v)
	}
	return p, nil
}

// TestOrderedLoadAllocatesOneCSR: a load that relabels as it reads
// allocates the graph it returns, the file's index, the degrees and order
// handed to the chooser and the permutation check, and never a file-order
// CSR: load-then-relabel from the same stream allocates an edge array
// more. A stream that hides its length is staged, so its load allocates
// the payload's bytes besides, and still no file-order CSR.
func TestOrderedLoadAllocatesOneCSR(t *testing.T) {
	g := buildRandom(t, 19, 1<<14, 1<<18, true)
	var buf bytes.Buffer
	if err := WriteBinary(&buf, g); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	n, m := uint64(g.NumVertices()), uint64(g.NumEdges())
	// The graph: two edge arrays, two indexes, one byte a weight; the
	// in-CSR's cursors; the file's index, the degrees, the order and the
	// check's bitmap.
	outCSR := uint64(len(data)-40) - 4*m
	keeps := 2*outCSR + m + 8*n + (8+4+4+1)*n
	const slack = 1 << 19
	for _, stream := range []struct {
		name   string
		open   func() io.Reader
		staged uint64
	}{
		{"sized", func() io.Reader { return bytes.NewReader(data) }, 0},
		{"unsized", func() io.Reader { return struct{ io.Reader }{bytes.NewReader(data)} }, uint64(len(data) - 40)},
	} {
		var ordered, relabeled *Graph
		var err error
		orderedBytes := allocatedBy(func() { ordered, err = readOrdered(stream.open(), reverseIDs) })
		if err != nil {
			t.Fatal(err)
		}
		twoStepBytes := allocatedBy(func() {
			if relabeled, err = ReadBinary(stream.open()); err == nil {
				p, _ := reverseIDs(relabeled.Degrees(OutDegree), int(m))
				relabeled, err = relabeled.RelabelWorkers(p, 1)
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		bound := keeps + stream.staged + slack
		t.Logf("%s: ordered load %d bytes, load-then-relabel %d, bound %d", stream.name, orderedBytes, twoStepBytes, bound)
		if orderedBytes > bound {
			t.Errorf("%s: ordered load allocated %d bytes for a graph that keeps %d and a payload of %d",
				stream.name, orderedBytes, keeps, stream.staged)
		}
		if orderedBytes+4*m > twoStepBytes {
			t.Errorf("%s: ordered load allocated %d bytes, load-then-relabel %d: less than an edge array apart",
				stream.name, orderedBytes, twoStepBytes)
		}
		if err := sameArrays(ordered, relabeled); err != nil {
			t.Errorf("%s: %v", stream.name, err)
		}
	}
}

// TestReadBinaryWidensWeightsMidStream: the reader packs weights a chunk
// at a time, so a weight that needs a wider width can arrive after chunks
// stored narrower, and a second one can widen again. Wherever the wide
// weights sit in the stream, the graph read back is the built one array
// for array, its stored width included, on a sized and an unsized stream,
// and an ordered load is the built one relabeled.
func TestReadBinaryWidensWeightsMidStream(t *testing.T) {
	const n = 1 << 10
	const m = 3*ioChunkBytes/4 + 100 // the weights span four chunks
	for _, tc := range []struct {
		name string
		wide map[VertexID]uint32 // source of an edge -> its weight
	}{
		{"narrow", nil},
		{"first list", map[VertexID]uint32{0: 256}},
		{"middle list", map[VertexID]uint32{n / 2: 65535}},
		{"last list", map[VertexID]uint32{n - 1: 1<<32 - 1}},
		{"twice", map[VertexID]uint32{n / 3: 256, n - 1: 65536}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			edges := randomIOEdges(t, 5, n, m, true)
			i := 0
			for src, w := range tc.wide {
				edges[i] = Edge{Src: src, Dst: 1, Weight: w}
				i++
			}
			g, err := BuildWith(edges, BuildOptions{NumVertices: n, Weighted: true, SortNeighbors: true})
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			if err := WriteBinary(&buf, g); err != nil {
				t.Fatal(err)
			}
			for _, stream := range []struct {
				name string
				r    io.Reader
			}{
				{"sized", bytes.NewReader(buf.Bytes())},
				{"unsized", struct{ io.Reader }{bytes.NewReader(buf.Bytes())}},
			} {
				h, err := ReadBinary(stream.r)
				if err != nil {
					t.Fatalf("%s: %v", stream.name, err)
				}
				if err := sameArrays(h, g); err != nil {
					t.Errorf("%s: %v", stream.name, err)
				}
			}
			// Relabeled as it is read, each list lands in a new place, so
			// a chunk that widens the weights re-stores slots written in
			// every order.
			h, err := readOrdered(bytes.NewReader(buf.Bytes()), reverseIDs)
			if err != nil {
				t.Fatal(err)
			}
			p, _ := reverseIDs(make([]uint32, n), m)
			want, err := g.Relabel(p)
			if err != nil {
				t.Fatal(err)
			}
			if err := sameArrays(h, want); err != nil {
				t.Errorf("ordered: %v", err)
			}
		})
	}
}

func TestReadBinaryPreservesAdjacencyOrder(t *testing.T) {
	// Relabel does not re-sort adjacency lists; the loader must round-trip
	// that layout untouched rather than sorting it back.
	g := buildRandom(t, 13, 48, 300, true)
	perm := make([]VertexID, g.NumVertices())
	for i := range perm {
		perm[i] = VertexID(g.NumVertices() - 1 - i)
	}
	rel, err := g.Relabel(perm)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteBinary(&buf, rel); err != nil {
		t.Fatal(err)
	}
	h, err := ReadBinary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	// The out-CSR (the bytes on the wire) must round-trip exactly. The
	// in-CSR is derived on load in canonical source-ascending order, which
	// may differ from Relabel's scatter order, so compare it per vertex as
	// a sorted multiset.
	if !reflect.DeepEqual(rel.OutIndex(), h.OutIndex()) ||
		!reflect.DeepEqual(rel.OutEdgeArray(), h.OutEdgeArray()) ||
		!reflect.DeepEqual(rel.Edges(), h.Edges()) {
		t.Fatal("relabeled round trip changed the out-CSR")
	}
	if !reflect.DeepEqual(rel.InIndex(), h.InIndex()) {
		t.Fatal("relabeled round trip changed the in-index")
	}
	for v := 0; v < rel.NumVertices(); v++ {
		want := slices.Sorted(slices.Values(rel.InNeighbors(VertexID(v))))
		got := slices.Sorted(slices.Values(h.InNeighbors(VertexID(v))))
		if !slices.Equal(want, got) {
			t.Fatalf("vertex %d: in-neighbor multiset changed", v)
		}
	}
}
