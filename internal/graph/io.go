package graph

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"slices"
	"strconv"
	"strings"
)

// Text edge-list format: one edge per line, "src dst" or "src dst weight",
// '#' or '%' comment lines ignored. Binary format (".gr"): a fixed header
// followed by the out-CSR and 4-byte weights, whatever width the graph
// keeps them at in memory; the in-CSR is rebuilt on load.
//
// The binary codec encodes and decodes slices through a fixed scratch
// buffer with explicit little-endian put/get calls. The previous
// implementation went through binary.Read/binary.Write, which allocate a
// staging buffer as large as the slice being transferred and copy every
// element twice; snapshot load time is a serving-path cost for graphd, so
// the loader also reconstructs the dual CSR directly instead of
// materializing an edge list and re-running the builder.

const (
	binaryMagic   = 0x47525052 // "GRPR"
	binaryVersion = 1

	// ioChunkBytes is the scratch-buffer size for binary slice transfer.
	ioChunkBytes = 1 << 16
)

// Format identifies the on-disk encoding of a graph file.
type Format int

const (
	// FormatText is the "src dst [weight]" edge-list encoding.
	FormatText Format = iota
	// FormatBinary is the compact CSR encoding written by WriteBinary.
	FormatBinary
)

// String returns the lowercase name of the format.
func (f Format) String() string {
	switch f {
	case FormatText:
		return "text"
	case FormatBinary:
		return "binary"
	default:
		return fmt.Sprintf("Format(%d)", int(f))
	}
}

// OrderChooser picks the vertex order a load lays a graph out in, before
// any edge is placed. It gets the graph's out-degrees (its own copy) and
// edge count and returns newID — newID[v] is the new ID of file vertex v,
// a bijection on [0, len(outDegrees)) — or nil to keep the file's order.
type OrderChooser func(outDegrees []uint32, m int) ([]VertexID, error)

// ReadAuto loads a graph from r in either supported format, sniffing the
// binary magic from the first bytes of the stream. It reports which format
// it found so writers can mirror the input encoding.
func ReadAuto(r io.Reader) (*Graph, Format, error) {
	return ReadAutoOrdered(r, nil)
}

// ReadAutoOrdered is ReadAuto returning the graph in the order choose
// picks from its out-degrees and edge count (nil keeps the file's order):
// the graph equals the file's relabeled by that order, array for array.
// A binary stream asks for the order once its index is validated, before
// any edge is read; on a stream of known length (a file, a bytes.Reader)
// no file-order CSR is then ever allocated: every edge and weight is
// checked and written straight into its relabeled slot, and the in-CSR is
// built from the relabeled out-CSR. A binary stream of unknown length,
// where only the data that arrives backs an allocation, and a text one
// are read in file order, then relabeled.
func ReadAutoOrdered(r io.Reader, choose OrderChooser) (*Graph, Format, error) {
	remaining := remainingBytes(r) // asked before bufio hides the Seeker
	br := bufio.NewReaderSize(r, ioChunkBytes)
	head, err := br.Peek(8)
	if len(head) == 8 && binary.LittleEndian.Uint64(head) == binaryMagic {
		g, err := readBinary(br, remaining, choose)
		return g, FormatBinary, err
	}
	if err != nil && err != io.EOF {
		return nil, FormatText, fmt.Errorf("graph: sniffing format: %w", err)
	}
	edges, err := ReadEdgeList(br)
	if err != nil {
		return nil, FormatText, err
	}
	g, err := Build(edges)
	if err != nil || choose == nil {
		return g, FormatText, err
	}
	newID, err := chooseOrder(choose, g.outIndex, g.m)
	if err != nil || newID == nil {
		return g, FormatText, err
	}
	g, err = g.RelabelWorkers(newID, 1)
	return g, FormatText, err
}

// ReadEdgeList parses a text edge list from r.
func ReadEdgeList(r io.Reader) ([]Edge, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	var edges []Edge
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || text[0] == '#' || text[0] == '%' {
			continue
		}
		fields := strings.Fields(text)
		if len(fields) != 2 && len(fields) != 3 {
			return nil, fmt.Errorf("graph: line %d: want 2 or 3 fields, got %d", line, len(fields))
		}
		src, err := strconv.ParseUint(fields[0], 10, 32)
		if err != nil {
			return nil, fmt.Errorf("graph: line %d: bad src: %v", line, err)
		}
		dst, err := strconv.ParseUint(fields[1], 10, 32)
		if err != nil {
			return nil, fmt.Errorf("graph: line %d: bad dst: %v", line, err)
		}
		e := Edge{Src: VertexID(src), Dst: VertexID(dst)}
		if len(fields) == 3 {
			w, err := strconv.ParseUint(fields[2], 10, 32)
			if err != nil {
				return nil, fmt.Errorf("graph: line %d: bad weight: %v", line, err)
			}
			e.Weight = uint32(w)
		}
		edges = append(edges, e)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("graph: reading edge list: %w", err)
	}
	return edges, nil
}

// WriteEdgeList writes g as a text edge list to w.
func WriteEdgeList(w io.Writer, g *Graph) error {
	bw := bufio.NewWriter(w)
	weighted := g.Weighted()
	var ws []uint32
	for v := 0; v < g.NumVertices(); v++ {
		nbrs := g.OutNeighbors(VertexID(v))
		ws = g.OutWeightList(VertexID(v)).Append(ws[:0])
		for i, dst := range nbrs {
			var err error
			if weighted {
				_, err = fmt.Fprintf(bw, "%d %d %d\n", v, dst, ws[i])
			} else {
				_, err = fmt.Fprintf(bw, "%d %d\n", v, dst)
			}
			if err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

// WriteBinary writes g in the compact binary format.
func WriteBinary(w io.Writer, g *Graph) error {
	bw := bufio.NewWriterSize(w, ioChunkBytes)
	var hdr [40]byte
	binary.LittleEndian.PutUint64(hdr[0:], binaryMagic)
	binary.LittleEndian.PutUint64(hdr[8:], binaryVersion)
	binary.LittleEndian.PutUint64(hdr[16:], uint64(g.n))
	binary.LittleEndian.PutUint64(hdr[24:], uint64(g.m))
	flags := uint64(0)
	if g.Weighted() {
		flags = 1
	}
	binary.LittleEndian.PutUint64(hdr[32:], flags)
	if _, err := bw.Write(hdr[:]); err != nil {
		return err
	}
	if err := writeUint64s(bw, g.outIndex); err != nil {
		return err
	}
	// The lists go out in vertex order, a run of them at a time, so a
	// patched graph writes what its Compact would.
	err := forRuns(g.outIndex, g.outStart, 0, g.n, func(_ int, lo, hi uint64) error {
		return writeUint32s(bw, g.outEdges[lo:hi])
	})
	if err != nil {
		return err
	}
	if g.Weighted() {
		// The format stores 4-byte weights whatever the width in memory:
		// decode one scratch buffer's worth at a time.
		const chunk = ioChunkBytes / 4
		ws := make([]uint32, 0, chunk)
		err := forRuns(g.outIndex, g.outStart, 0, g.n, func(_ int, lo, hi uint64) error {
			for ; lo < hi; lo += chunk {
				ws = appendWeights(ws[:0], g.outWeights, g.wb, lo, min(hi, lo+chunk))
				if err := writeUint32s(bw, ws); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadBinary loads a Graph written by WriteBinary. The out-CSR is taken
// from the file after validation; the in-CSR is rebuilt with a counting
// sort directly from it (scanning sources in ascending order, so
// in-neighbor lists come out source-sorted without an explicit sort).
func ReadBinary(r io.Reader) (*Graph, error) {
	return readBinary(bufio.NewReaderSize(r, ioChunkBytes), remainingBytes(r), nil)
}

// remainingBytes reports how many bytes r has left to give when r can
// tell (an io.Seeker: a file, a bytes.Reader), or -1.
func remainingBytes(r io.Reader) int64 {
	s, ok := r.(io.Seeker)
	if !ok {
		return -1
	}
	cur, err := s.Seek(0, io.SeekCurrent)
	if err != nil {
		return -1 // a pipe
	}
	end, err := s.Seek(0, io.SeekEnd)
	if err != nil {
		return -1
	}
	if _, err := s.Seek(cur, io.SeekStart); err != nil {
		return -1 // the reads that follow fail on their own
	}
	return end - cur
}

// readBinary decodes a graph from br, which stands at the header;
// remaining is the stream's length from there, or -1 when unknown. A
// non-nil choose picks the order the graph comes back in.
func readBinary(br *bufio.Reader, remaining int64, choose OrderChooser) (*Graph, error) {
	var hdr [40]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return nil, fmt.Errorf("graph: reading header: %w", err)
	}
	if binary.LittleEndian.Uint64(hdr[0:]) != binaryMagic {
		return nil, errors.New("graph: bad magic; not a graph binary")
	}
	if v := binary.LittleEndian.Uint64(hdr[8:]); v != binaryVersion {
		return nil, fmt.Errorf("graph: unsupported version %d", v)
	}
	n := int(binary.LittleEndian.Uint64(hdr[16:]))
	m := int(binary.LittleEndian.Uint64(hdr[24:]))
	flags := binary.LittleEndian.Uint64(hdr[32:])
	if n < 0 || m < 0 || n > 1<<31 || m > 1<<38 {
		return nil, fmt.Errorf("graph: implausible dimensions n=%d m=%d", n, m)
	}

	// The dimensions are still untrusted at this point: a corrupt header
	// could claim n=2^31 on a 50-byte file, and preallocating n+1 uint64s
	// up front would commit 16 GiB before the first read fails. A stream
	// of known length settles it here: a header that claims more payload
	// than is left is rejected before anything is allocated, and one that
	// does not gets each array allocated once at its final size. A stream
	// of unknown length grows its arrays as data actually arrives, so a
	// truncated or lying one costs at most ~2x the bytes it really holds.
	weighted := flags&1 != 0
	payload := int64(n+1)*8 + int64(m)*4
	if weighted {
		payload += int64(m) * 4
	}
	sized := remaining >= 0
	if sized && remaining-int64(len(hdr)) < payload {
		return nil, fmt.Errorf("graph: header claims %d payload bytes (n=%d m=%d), %d remain: %w",
			payload, n, m, remaining-int64(len(hdr)), io.ErrUnexpectedEOF)
	}
	outIndex, err := readUint64s(br, n+1, sized)
	if err != nil {
		return nil, fmt.Errorf("graph: reading index: %w", err)
	}
	if err := validateIndex(outIndex, m, "out"); err != nil {
		return nil, err
	}
	var newID []VertexID
	if choose != nil {
		if newID, err = chooseOrder(choose, outIndex, m); err != nil {
			return nil, err
		}
	}
	var g *Graph
	if newID != nil && sized {
		g, err = readRelabeled(br, outIndex, m, weighted, newID)
	} else {
		g, err = readFileOrder(br, outIndex, m, weighted, sized)
	}
	if err != nil {
		return nil, err
	}
	if err := g.Validate(); err != nil {
		return nil, err
	}
	if newID != nil && !sized {
		return g.RelabelWorkers(newID, 1)
	}
	return g, nil
}

// chooseOrder asks choose for an order given a validated out-index and
// checks that what it returns is nil or a permutation of the vertices.
func chooseOrder(choose OrderChooser, outIndex []uint64, m int) ([]VertexID, error) {
	n := len(outIndex) - 1
	degs := make([]uint32, n)
	for v := range degs {
		degs[v] = uint32(outIndex[v+1] - outIndex[v])
	}
	newID, err := choose(degs, m)
	if err != nil {
		return nil, fmt.Errorf("graph: choosing the load order: %w", err)
	}
	if newID == nil {
		return nil, nil
	}
	if err := checkPermutation(newID, n); err != nil {
		return nil, fmt.Errorf("graph: load order: %w", err)
	}
	return newID, nil
}

// checkPermutation returns an error unless newID is a bijection on [0, n).
func checkPermutation(newID []VertexID, n int) error {
	if len(newID) != n {
		return fmt.Errorf("graph: permutation has length %d, want %d", len(newID), n)
	}
	seen := make([]bool, n)
	for _, id := range newID {
		if int(id) >= n || seen[id] {
			return fmt.Errorf("graph: newID is not a permutation (value %d)", id)
		}
		seen[id] = true
	}
	return nil
}

// readFileOrder reads the edges and weights that follow a validated index
// into a graph in the file's order.
func readFileOrder(br *bufio.Reader, outIndex []uint64, m int, weighted, sized bool) (*Graph, error) {
	n := len(outIndex) - 1
	outEdges, err := readUint32s(br, m, sized)
	if err != nil {
		return nil, fmt.Errorf("graph: reading edges: %w", err)
	}
	for _, d := range outEdges {
		if int(d) >= n {
			return nil, fmt.Errorf("graph: edge destination %d out of range", d)
		}
	}
	g := &Graph{n: n, m: m, outIndex: outIndex, outEdges: outEdges}
	if weighted {
		if g.outWeights, g.wb, err = readWeights(br, m, sized); err != nil {
			return nil, fmt.Errorf("graph: reading weights: %w", err)
		}
	}
	g.inIndex, g.inEdges = transposeCSR(outIndex, outEdges, nil, 1)
	return g, nil
}

// readRelabeled reads the edges and weights that follow a validated index
// straight into the layout newID gives them, on a stream whose length
// backs m edges: each list keeps its order and moves whole to the segment
// of its source's new ID, each destination is checked and then renamed.
// The out-edges are allocated first, then the weights, then the index:
// large before small, as RelabelWorkers takes them.
func readRelabeled(br *bufio.Reader, outIndex []uint64, m int, weighted bool, newID []VertexID) (*Graph, error) {
	n := len(outIndex) - 1
	g := &Graph{n: n, m: m, outEdges: make([]VertexID, m)}
	if weighted {
		g.outWeights, g.wb = make([]byte, m), 1
	}
	g.outIndex = relabelIndex(outIndex, newID, 1)

	var buf [ioChunkBytes]byte
	const perChunk = ioChunkBytes / 4
	// section reads the m 4-byte values of one section a chunk at a time.
	// check sees each chunk whole, then place gets it a list at a time:
	// the chunk's values of one list, from file position pos on, and the
	// slot pos moves to.
	section := func(check func(src []byte) error, place func(slot uint64, vals []byte)) error {
		v := 0
		for done := 0; done < m; {
			c := min(m-done, perChunk)
			src := buf[:c*4]
			if _, err := io.ReadFull(br, src); err != nil {
				return err
			}
			if err := check(src); err != nil {
				return err
			}
			first, end := uint64(done), uint64(done+c)
			for pos := first; pos < end; {
				for pos >= outIndex[v+1] {
					v++
				}
				hi := min(end, outIndex[v+1])
				place(g.outIndex[newID[v]]+pos-outIndex[v], src[4*(pos-first):4*(hi-first)])
				pos = hi
			}
			done += c
		}
		return nil
	}

	err := section(func(src []byte) error {
		for i := 0; i < len(src); i += 4 {
			if d := binary.LittleEndian.Uint32(src[i:]); int(d) >= n {
				return fmt.Errorf("graph: edge destination %d out of range", d)
			}
		}
		return nil
	}, func(slot uint64, vals []byte) {
		dst := g.outEdges[slot : slot+uint64(len(vals)/4)]
		for i := range dst {
			dst[i] = newID[binary.LittleEndian.Uint32(vals[4*i:])]
		}
	})
	if err != nil {
		return nil, fmt.Errorf("graph: reading edges: %w", err)
	}
	if weighted {
		// The packed array starts one byte wide and is re-stored wider
		// (at most twice) when a chunk holds a weight that needs it, as
		// readWeights does.
		err := section(func(src []byte) error {
			if nb := fileWeightsWidth(src); nb > g.wb {
				wider := make([]byte, m*nb)
				copyWeights(wider, nb, g.outWeights, g.wb)
				g.outWeights, g.wb = wider, nb
			}
			return nil
		}, func(slot uint64, vals []byte) {
			wb := uint64(g.wb)
			packFileWeights(g.outWeights[slot*wb:(slot+uint64(len(vals)/4))*wb], vals, g.wb)
		})
		if err != nil {
			return nil, fmt.Errorf("graph: reading weights: %w", err)
		}
	}
	g.inIndex, g.inEdges = transposeCSR(g.outIndex, g.outEdges, newID, 1)
	return g, nil
}

// writeSlice streams vals into bw, size bytes per element encoded with
// put straight into bw's free buffer, so a writer of many short runs (a
// patched graph's lists) allocates nothing per run.
func writeSlice[T uint32 | uint64](bw *bufio.Writer, vals []T, size int, put func([]byte, T)) error {
	for len(vals) > 0 {
		if bw.Available() < size {
			if err := bw.Flush(); err != nil {
				return err
			}
		}
		buf := bw.AvailableBuffer()
		chunk := min(len(vals), cap(buf)/size)
		buf = buf[:chunk*size]
		for i, v := range vals[:chunk] {
			put(buf[i*size:], v)
		}
		if _, err := bw.Write(buf); err != nil {
			return err
		}
		vals = vals[chunk:]
	}
	return nil
}

// readSlice reads count elements by streaming through a fixed scratch
// buffer, size bytes per element, each chunk decoded into the slice by
// one call of decode. With trusted set the destination is allocated once
// at count; otherwise it grows as append grows it, chunk by chunk,
// bounding the allocation by the bytes actually read: header dimensions
// are attacker-controlled until the payload backs them up.
func readSlice[T uint32 | uint64](r io.Reader, count, size int, trusted bool, decode func(dst []T, src []byte)) ([]T, error) {
	var buf [ioChunkBytes]byte
	perChunk := ioChunkBytes / size
	initial := min(count, perChunk)
	if trusted {
		initial = count
	}
	dst := make([]T, 0, initial)
	for len(dst) < count {
		chunk := min(count-len(dst), perChunk)
		if _, err := io.ReadFull(r, buf[:chunk*size]); err != nil {
			return nil, err
		}
		base := len(dst)
		dst = slices.Grow(dst, chunk)[:base+chunk]
		decode(dst[base:], buf[:chunk*size])
	}
	return dst, nil
}

// readWeights reads count 4-byte weights through one scratch buffer, as
// readSlice does, and stores them at the width the largest needs without
// ever holding 4 bytes of each: the packed array starts one byte wide and
// is re-stored wider (at most twice) when a chunk holds a weight that
// needs it. trusted sizes the array as readSlice does.
func readWeights(r io.Reader, count int, trusted bool) ([]byte, int, error) {
	var buf [ioChunkBytes]byte
	const perChunk = ioChunkBytes / 4
	initial := min(count, perChunk)
	if trusted {
		initial = count
	}
	w, wb := make([]byte, 0, initial), 1
	for done := 0; done < count; {
		chunk := min(count-done, perChunk)
		src := buf[:chunk*4]
		if _, err := io.ReadFull(r, src); err != nil {
			return nil, 0, err
		}
		if nb := fileWeightsWidth(src); nb > wb {
			wider := make([]byte, len(w)/wb*nb, cap(w)/wb*nb)
			copyWeights(wider, nb, w, wb)
			w, wb = wider, nb
		}
		base := len(w)
		w = slices.Grow(w, chunk*wb)[:base+chunk*wb]
		packFileWeights(w[base:], src, wb)
		done += chunk
	}
	return w, wb, nil
}

// fileWeightsWidth returns the width the largest of src's 4-byte
// little-endian weights needs.
func fileWeightsWidth(src []byte) int {
	var maxW uint32
	for i := 0; i < len(src); i += 4 {
		maxW = max(maxW, binary.LittleEndian.Uint32(src[i:]))
	}
	return widthFor(maxW)
}

// packFileWeights stores src's 4-byte little-endian weights in dst at wb
// bytes each: a weight's packed form is the low wb bytes of its file form.
func packFileWeights(dst, src []byte, wb int) {
	switch wb {
	case 1:
		for i := range dst {
			dst[i] = src[4*i]
		}
	case 2:
		for i := 0; i < len(dst); i += 2 {
			dst[i], dst[i+1] = src[2*i], src[2*i+1]
		}
	default:
		copy(dst, src)
	}
}

func writeUint64s(bw *bufio.Writer, vals []uint64) error {
	return writeSlice(bw, vals, 8, binary.LittleEndian.PutUint64)
}

func writeUint32s(bw *bufio.Writer, vals []uint32) error {
	return writeSlice(bw, vals, 4, binary.LittleEndian.PutUint32)
}

func readUint64s(r io.Reader, count int, trusted bool) ([]uint64, error) {
	return readSlice(r, count, 8, trusted, func(dst []uint64, src []byte) {
		for i := range dst {
			dst[i] = binary.LittleEndian.Uint64(src[8*i:])
		}
	})
}

func readUint32s(r io.Reader, count int, trusted bool) ([]uint32, error) {
	return readSlice(r, count, 4, trusted, func(dst []uint32, src []byte) {
		for i := range dst {
			dst[i] = binary.LittleEndian.Uint32(src[4*i:])
		}
	})
}
