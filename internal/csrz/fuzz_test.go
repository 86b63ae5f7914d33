package csrz

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strconv"
	"testing"

	"graphreorder/internal/graph"
)

// TestRegenerateCorpus rewrites the committed seed corpus under
// testdata/fuzz/FuzzReadCSRZ when CSRZ_WRITE_CORPUS=1 is set — run it
// after a format change so CI fuzzes the current container layout.
func TestRegenerateCorpus(t *testing.T) {
	if os.Getenv("CSRZ_WRITE_CORPUS") == "" {
		t.Skip("set CSRZ_WRITE_CORPUS=1 to rewrite the seed corpus")
	}
	dir := filepath.Join("testdata", "fuzz", "FuzzReadCSRZ")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	for name, data := range seedInputs(t) {
		body := "go test fuzz v1\n[]byte(" + strconv.Quote(string(data)) + ")\n"
		if err := os.WriteFile(filepath.Join(dir, name), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// seedInputs builds the canonical fuzz seeds, shared by f.Add and the
// committed corpus so the two cannot drift.
func seedInputs(t testing.TB) map[string][]byte {
	t.Helper()
	g, err := graph.Build([]graph.Edge{{Src: 0, Dst: 1}, {Src: 1, Dst: 2}, {Src: 2, Dst: 0}, {Src: 0, Dst: 2}})
	if err != nil {
		t.Fatal(err)
	}
	var plain bytes.Buffer
	if _, err := Encode(g).Write(&plain); err != nil {
		t.Fatal(err)
	}

	// One weighted graph per stored width, the largest weight deciding.
	weighted := func(maxW uint32) *Graph {
		wg, err := graph.BuildWith([]graph.Edge{{Src: 0, Dst: 1, Weight: maxW}, {Src: 1, Dst: 0, Weight: 2}, {Src: 1, Dst: 2, Weight: 1}},
			graph.BuildOptions{Weighted: true, SortNeighbors: true})
		if err != nil {
			t.Fatal(err)
		}
		return Encode(wg)
	}
	write := func(z *Graph) []byte {
		var b bytes.Buffer
		if _, err := z.Write(&b); err != nil {
			t.Fatal(err)
		}
		return b.Bytes()
	}

	// The old containers, the same graph as "weighted" with the in-weight
	// section they carried: version 2 at one byte per weight, version 1,
	// which always stored 4-byte uint32s, widened.
	v2 := weighted(5)
	v1 := weighted(5)
	v1.outW = widenWeights(v1.outW)
	v1.wb = 4

	// A header claiming 2^31-1 vertices and a section table promising
	// gigabytes: the reader must run out of payload cheaply instead of
	// preallocating the announced sizes.
	var lying [headerBytes + 24]byte
	copy(lying[:], formatMagic)
	binary.LittleEndian.PutUint32(lying[8:], formatVersion)
	binary.LittleEndian.PutUint64(lying[16:], 1<<31-1)
	binary.LittleEndian.PutUint64(lying[24:], 1<<38-1)
	binary.LittleEndian.PutUint64(lying[32:], 1)
	binary.LittleEndian.PutUint64(lying[headerBytes:], secOutIdx)
	binary.LittleEndian.PutUint64(lying[headerBytes+8:], sectionAlign)
	binary.LittleEndian.PutUint64(lying[headerBytes+16:], (1<<31)*8)

	// Valid file with one flipped adjacency bit: must be caught by the CRC.
	corrupt := append([]byte(nil), plain.Bytes()...)
	corrupt[len(corrupt)/2] ^= 0x40

	return map[string][]byte{
		"unweighted":   plain.Bytes(),
		"weighted":     write(weighted(5)),
		"weighted-w2":  write(weighted(300)),
		"weighted-w4":  write(weighted(70000)),
		"weighted-v1":  withInWeights(write(v1), 1, inWeights(v1)),
		"weighted-v2":  withInWeights(write(v2), 2, inWeights(v2)),
		"lying-header": lying[:],
		"truncated":    plain.Bytes()[:headerBytes-4],
		"bitflip":      corrupt,
	}
}

// TestReadsVersion1: a version-1 file, whose weights are 4-byte uint32s,
// reads through both readers as the same graph as its current form,
// weights included, and decodes to the same plain graph: one that stores
// its weights at the width they need, one byte.
func TestReadsVersion1(t *testing.T) {
	seeds := seedInputs(t)
	want, err := ReadCSRZ(bytes.NewReader(seeds["weighted"]))
	if err != nil {
		t.Fatal(err)
	}
	wantPlain, err := want.Decode()
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "v1.csrz")
	if err := os.WriteFile(path, seeds["weighted-v1"], 0o644); err != nil {
		t.Fatal(err)
	}
	mapped, err := OpenFile(path)
	if err != nil {
		t.Fatalf("OpenFile: %v", err)
	}
	defer mapped.Close()
	read, err := ReadCSRZ(bytes.NewReader(seeds["weighted-v1"]))
	if err != nil {
		t.Fatalf("ReadCSRZ: %v", err)
	}
	for name, got := range map[string]*Graph{"ReadCSRZ": read, "OpenFile": mapped} {
		if got.wb != 4 || !got.Weighted() {
			t.Errorf("%s: weight width %d, want 4", name, got.wb)
		}
		for v := graph.VertexID(0); int(v) < want.n; v++ {
			if !equalIDs(got.OutNeighbors(v), want.OutNeighbors(v)) ||
				!equalIDs(got.InNeighbors(v), want.InNeighbors(v)) || !slices.Equal(got.OutWeightList(v).Append(nil), want.OutWeightList(v).Append(nil)) {
				t.Errorf("%s: vertex %d reads differently from the current file", name, v)
			}
		}
		plain, err := got.Decode()
		if err != nil {
			t.Fatalf("%s: Decode: %v", name, err)
		}
		w, wb := plain.OutWeightArray()
		wantW, wantWB := wantPlain.OutWeightArray()
		if wb != wantWB || !bytes.Equal(w, wantW) {
			t.Errorf("%s: decoded weights %d bytes wide, want the current file's %d, byte for byte", name, wb, wantWB)
		}
	}
}

// widenWeights re-stores 1-byte weights at 4 bytes each, the layout a
// version-1 writer produced.
func widenWeights(w []byte) []byte {
	out := make([]byte, 4*len(w))
	for i, b := range w {
		out[4*i] = b
	}
	return out
}

// inWeights lays z's weights out along its in-lists at its own width, the
// section versions 1 and 2 stored: sources ascend, so appending each
// out-list's weights to its neighbors' lists gives every in-list's order.
func inWeights(z *Graph) []byte {
	lists := make([][]uint32, z.n)
	for v := graph.VertexID(0); int(v) < z.n; v++ {
		ws := z.OutWeightList(v).Append(nil)
		for i, u := range z.OutNeighbors(v) {
			lists[u] = append(lists[u], ws[i])
		}
	}
	out := make([]byte, 0, z.m*z.wb)
	var b [4]byte
	for _, ws := range lists {
		for _, w := range ws {
			binary.LittleEndian.PutUint32(b[:], w)
			out = append(out, b[:z.wb]...)
		}
	}
	return out
}

// withInWeights restamps a current file as version and appends an
// in-weight section holding inW after its last section, the layout the
// version-1 and -2 writers produced. The other sections stay where they
// are: the table's extra entry fits in front of the first page-aligned
// section.
func withInWeights(file []byte, version uint32, inW []byte) []byte {
	body := file[:len(file)-trailerBytes]
	nsec := binary.LittleEndian.Uint64(body[32:])
	off := alignUp(uint64(len(body)))
	out := make([]byte, off, off+uint64(len(inW))+trailerBytes)
	copy(out, body)
	binary.LittleEndian.PutUint32(out[8:], version)
	binary.LittleEndian.PutUint64(out[32:], nsec+1)
	entry := out[headerBytes+24*nsec:]
	binary.LittleEndian.PutUint64(entry, secInW)
	binary.LittleEndian.PutUint64(entry[8:], off)
	binary.LittleEndian.PutUint64(entry[16:], uint64(len(inW)))
	return checksummed(append(out, inW...))
}

// checksummed appends the trailer to a file body.
func checksummed(body []byte) []byte {
	body = binary.LittleEndian.AppendUint32(body, crc32.Checksum(body, castagnoli))
	return binary.LittleEndian.AppendUint32(body, trailerMagic)
}

// TestInWeightSection: a version-2 file's in-weight section is checked
// and dropped, so the file reads back as its version-3 re-encode, byte for
// byte; one whose two weight sections differ in length, or that lacks the
// in-weights, is rejected, and so is a version-3 file that carries them.
// Both readers agree on every case.
func TestInWeightSection(t *testing.T) {
	seeds := seedInputs(t)
	v3 := seeds["weighted"]
	z, err := ReadCSRZ(bytes.NewReader(v3))
	if err != nil {
		t.Fatal(err)
	}
	inW := inWeights(z)
	restamped := slices.Clone(v3)
	binary.LittleEndian.PutUint32(restamped[8:], 2)
	for _, tc := range []struct {
		name string
		file []byte
		ok   bool
	}{
		{"v2", seeds["weighted-v2"], true},
		{"v2, in-weights shorter", withInWeights(v3, 2, inW[1:]), false},
		{"v2, in-weights longer", withInWeights(v3, 2, append(slices.Clone(inW), 7)), false},
		{"v2 without in-weights", checksummed(restamped[:len(restamped)-trailerBytes]), false},
		{"v3 carrying in-weights", withInWeights(v3, formatVersion, inW), false},
		{"unweighted v2 carrying in-weights", withInWeights(seeds["unweighted"], 2, nil), false},
	} {
		path := filepath.Join(t.TempDir(), "g.csrz")
		if err := os.WriteFile(path, tc.file, 0o644); err != nil {
			t.Fatal(err)
		}
		read, rerr := ReadCSRZ(bytes.NewReader(tc.file))
		mapped, merr := OpenFile(path)
		if (rerr == nil) != tc.ok || (merr == nil) != tc.ok {
			t.Errorf("%s: ReadCSRZ error %v, OpenFile error %v; want accepted = %v", tc.name, rerr, merr, tc.ok)
			continue
		}
		if !tc.ok {
			continue
		}
		for name, got := range map[string]*Graph{"ReadCSRZ": read, "OpenFile": mapped} {
			var b bytes.Buffer
			if _, err := got.Write(&b); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(b.Bytes(), v3) {
				t.Errorf("%s: %s does not read back as the version-3 file", tc.name, name)
			}
		}
		mapped.Close()
	}
}

// FuzzReadCSRZ feeds arbitrary bytes to the .csrz container reader.
// ReadCSRZ must never panic and never let a lying header or section
// table drive allocation (buffers grow only as payload arrives), and
// anything it accepts must survive a write/read round trip
// bit-identically and pass full adjacency validation — the serving path
// relies on load-time validation so AdjIter can skip per-step checks.
// The mmap reader must accept exactly what the streaming one accepts and
// read the same graph from it: the weighted flag, the weight width, and
// every decoded list and weight.
func FuzzReadCSRZ(f *testing.F) {
	for _, data := range seedInputs(f) {
		f.Add(data)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		z, err := ReadCSRZ(bytes.NewReader(data))
		if err != nil {
			return
		}
		var out bytes.Buffer
		if _, err := z.Write(&out); err != nil {
			t.Fatalf("rewriting an accepted graph failed: %v", err)
		}
		z2, err := ReadCSRZ(&out)
		if err != nil {
			t.Fatalf("rereading a rewritten graph failed: %v", err)
		}
		if z.n != z2.n || z.m != z2.m || z.wb != z2.wb ||
			!reflect.DeepEqual(z.outIdx, z2.outIdx) ||
			!reflect.DeepEqual(z.outOff, z2.outOff) ||
			!bytes.Equal(z.outData, z2.outData) ||
			!bytes.Equal(z.outW, z2.outW) ||
			!reflect.DeepEqual(z.inIdx, z2.inIdx) ||
			!reflect.DeepEqual(z.inOff, z2.inOff) ||
			!bytes.Equal(z.inData, z2.inData) {
			t.Fatal("write/read round trip diverged")
		}
		// The mmap parser must agree with the streaming reader on
		// accept/reject — a file the store can load must be a file the
		// fuzz-hardened reader would have accepted, and vice versa — and
		// on what the file holds.
		path := filepath.Join(t.TempDir(), "f.csrz")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		mg, err := OpenFile(path)
		if err != nil {
			t.Fatalf("OpenFile rejected a stream ReadCSRZ accepted: %v", err)
		}
		defer mg.Close()
		if mg.Weighted() != z.Weighted() || mg.wb != z.wb {
			t.Fatalf("readers disagree: weighted %v/%v, weight width %d/%d", z.Weighted(), mg.Weighted(), z.wb, mg.wb)
		}
		for v := graph.VertexID(0); int(v) < z.n; v++ {
			if !equalIDs(z.OutNeighbors(v), mg.OutNeighbors(v)) || !equalIDs(z.InNeighbors(v), mg.InNeighbors(v)) ||
				!slices.Equal(z.OutWeightList(v).Append(nil), mg.OutWeightList(v).Append(nil)) {
				t.Fatalf("readers disagree on the lists or weights of vertex %d", v)
			}
		}
	})
}
