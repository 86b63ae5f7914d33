package graph

import (
	"bytes"
	"encoding/binary"
	"hash/fnv"
	"io"
	"reflect"
	"slices"
	"testing"

	"graphreorder/internal/rng"
)

// FuzzReadBinary feeds arbitrary bytes to the binary graph codec.
// ReadBinary must never panic or trust header dimensions ahead of the
// payload (a lying header on a tiny file must fail, not allocate), and
// anything it accepts must survive a write/read round trip bit-identically.
// An ordered load, under a permutation drawn from the input, must reject
// what ReadBinary rejects, equal load-then-relabel on what it accepts,
// and allocate no more than a fixed multiple of the bytes it was given;
// so must one from a stream that hides its length, which is staged and
// may allocate one staging piece more.
func FuzzReadBinary(f *testing.F) {
	g, err := Build([]Edge{{Src: 0, Dst: 1}, {Src: 1, Dst: 2}, {Src: 2, Dst: 0}, {Src: 0, Dst: 2}})
	if err != nil {
		f.Fatal(err)
	}
	var plain bytes.Buffer
	if err := WriteBinary(&plain, g); err != nil {
		f.Fatal(err)
	}
	f.Add(plain.Bytes())

	wg, err := Build([]Edge{{Src: 0, Dst: 1, Weight: 5}, {Src: 1, Dst: 0, Weight: 2}})
	if err != nil {
		f.Fatal(err)
	}
	var weighted bytes.Buffer
	if err := WriteBinary(&weighted, wg); err != nil {
		f.Fatal(err)
	}
	f.Add(weighted.Bytes())

	// A header claiming 2^31 vertices on an otherwise empty file: the
	// reader must reject it cheaply instead of preallocating 16 GiB.
	var lying [40]byte
	binary.LittleEndian.PutUint64(lying[0:], binaryMagic)
	binary.LittleEndian.PutUint64(lying[8:], binaryVersion)
	binary.LittleEndian.PutUint64(lying[16:], 1<<31)
	binary.LittleEndian.PutUint64(lying[24:], 1<<38)
	f.Add(lying[:])
	f.Add(plain.Bytes()[:20]) // truncated header

	f.Fuzz(func(t *testing.T, data []byte) {
		g, err := ReadBinary(bytes.NewReader(data))
		var perm []VertexID
		choose := func(degs []uint32, _ int) ([]VertexID, error) {
			perm = fuzzPerm(len(degs), data)
			return perm, nil
		}
		var ordered, staged *Graph
		var orderedErr, stagedErr error
		// Every array an ordered load keeps or passes through is backed by
		// payload bytes (at least 4 a vertex and 4 an edge, 8 an index
		// entry); the scratch buffers are the constant. A staged load also
		// holds a copy of the input, and may allocate a piece ahead of it.
		bound := 16*uint64(len(data)) + 1<<20
		if got := allocatedBy(func() { ordered, orderedErr = readOrdered(bytes.NewReader(data), choose) }); got > bound {
			t.Fatalf("ordered load of %d bytes allocated %d", len(data), got)
		}
		hidden := struct{ io.Reader }{bytes.NewReader(data)}
		if got := allocatedBy(func() { staged, stagedErr = readOrdered(hidden, choose) }); got > bound+uint64(len(data))+stagePiece {
			t.Fatalf("staged ordered load of %d bytes allocated %d", len(data), got)
		}
		if err != nil {
			if orderedErr == nil || stagedErr == nil {
				t.Fatalf("ReadBinary rejects the input (%v), an ordered load accepts it (sized: %v, staged: %v)",
					err, orderedErr, stagedErr)
			}
			return
		}
		if orderedErr != nil || stagedErr != nil {
			t.Fatalf("ReadBinary accepts the input, an ordered load rejects it (sized: %v, staged: %v)", orderedErr, stagedErr)
		}
		if err := sameArrays(staged, ordered); err != nil {
			t.Fatalf("staged ordered load differs from the sized one: %v", err)
		}
		relabeled, err := g.RelabelWorkers(perm, 1)
		if err != nil {
			t.Fatal(err)
		}
		if err := sameArrays(ordered, relabeled); err != nil {
			t.Fatalf("ordered load differs from load-then-relabel: %v", err)
		}
		var out bytes.Buffer
		if err := WriteBinary(&out, g); err != nil {
			t.Fatalf("rewriting an accepted graph failed: %v", err)
		}
		g2, err := ReadBinary(&out)
		if err != nil {
			t.Fatalf("rereading a rewritten graph failed: %v", err)
		}
		if g.n != g2.n || g.m != g2.m || g.wb != g2.wb ||
			!reflect.DeepEqual(g.outIndex, g2.outIndex) ||
			!reflect.DeepEqual(g.outEdges, g2.outEdges) ||
			!reflect.DeepEqual(g.outWeights, g2.outWeights) ||
			!reflect.DeepEqual(g.inIndex, g2.inIndex) ||
			!reflect.DeepEqual(g.inEdges, g2.inEdges) {
			t.Fatal("write/read round trip diverged")
		}
	})
}

// fuzzPerm draws a permutation of n vertices from data: a Fisher-Yates
// shuffle seeded with the input's hash.
func fuzzPerm(n int, data []byte) []VertexID {
	h := fnv.New64a()
	h.Write(data)
	r := rng.New(h.Sum64())
	p := make([]VertexID, n)
	for i := range p {
		p[i] = VertexID(i)
	}
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// FuzzSortLists holds the radix sort to slices.Sort on keys taken from the
// fuzz bytes, eight a key (a short tail is zero-padded), and sortLists to
// the same order on the (neighbor, weight) list those keys unpack to. Up
// to twice radixSortMin keys, so sortLists takes both of its paths.
func FuzzSortLists(f *testing.F) {
	keyBytes := func(keys ...uint64) []byte {
		b := make([]byte, 8*len(keys))
		for i, k := range keys {
			binary.LittleEndian.PutUint64(b[8*i:], k)
		}
		return b
	}
	f.Add(keyBytes(42<<32|7, 42<<32|7, 42<<32|7))       // equal keys: no digit varies
	f.Add(keyBytes(0xdeadbeef<<32 | 0x12345678))        // one key
	f.Add(keyBytes(5, 1<<33|2, 1<<60|7, 3, 1<<33|5, 0)) // bits 0-2, 33 and 60 vary: three passes, an odd number
	f.Add(keyBytes(9<<32|1, 3<<32|1, 9<<32|1, 0<<32|1)) // only neighbor bits vary: one pass
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 8*2*radixSortMin {
			return
		}
		keys := make([]uint64, (len(data)+7)/8)
		for i := range keys {
			var b [8]byte
			copy(b[:], data[8*i:])
			keys[i] = binary.LittleEndian.Uint64(b[:])
		}
		want := slices.Sorted(slices.Values(keys))

		index := []uint64{0, uint64(len(keys))}
		adj, ws := make([]VertexID, len(keys)), make([]uint32, len(keys))
		for i, k := range keys {
			adj[i], ws[i] = VertexID(k>>32), uint32(k)
		}
		new(listSorter).sortLists(index, adj, ws, 0, 1)
		for i, k := range want {
			if adj[i] != VertexID(k>>32) || ws[i] != uint32(k) {
				t.Fatalf("sortLists: position %d holds (%d, %d), want (%d, %d)", i, adj[i], ws[i], k>>32, uint32(k))
			}
		}

		radixSort(keys, make([]uint64, len(keys)), new([radixDigits][radixBuckets]int))
		if !slices.Equal(keys, want) {
			t.Fatalf("radixSort: %#x, want %#x", keys, want)
		}
	})
}
