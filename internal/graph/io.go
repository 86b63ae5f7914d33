package graph

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// Text edge-list format: one edge per line, "src dst" or "src dst weight",
// '#' or '%' comment lines ignored. Binary format (".gr"): a fixed header
// followed by the out-CSR and 4-byte weights, whatever width the graph
// keeps them at in memory; the in-CSR is rebuilt on load.
//
// Every binary load goes through one decoder (readBinary, then readLists):
// it reads the index, then writes each list straight into its place in
// the order the load was asked for, the file's own included, through a
// fixed scratch buffer, and builds the in-CSR from the out-CSR it wrote.
// Its arrays are allocated once, after the stream has backed the header's
// dimensions: a stream that can tell its length is checked against them,
// and one that cannot is first staged in pieces of at most stagePiece
// bytes, each allocated only once the bytes before it have arrived.

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
// any edge is read, and no file-order CSR is then ever allocated: every
// edge and weight is checked and written straight into its relabeled
// slot, and the in-CSR is built from the relabeled out-CSR. A stream of
// unknown length (a pipe, a bufio.Reader) is staged first, so its load
// also allocates the payload's bytes. A text stream is read in file
// order, then relabeled.
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
	if err := writeSlice(bw, g.outIndex, 8, binary.LittleEndian.PutUint64); err != nil {
		return err
	}
	// The lists go out in vertex order, a run of them at a time, so a
	// patched graph writes what its Compact would.
	err := forRuns(g.outIndex, g.outStart, 0, g.n, func(_ int, lo, hi uint64) error {
		return writeSlice(bw, g.outEdges[lo:hi], 4, binary.LittleEndian.PutUint32)
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
				if err := writeSlice(bw, ws, 4, binary.LittleEndian.PutUint32); err != nil {
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
// in-neighbor lists come out source-sorted without an explicit sort). A
// reader that is an io.Seeker (a file, a bytes.Reader) is decoded as it
// is read; any other is staged first, at the cost of its payload's bytes.
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
	// up front would commit 16 GiB before the first read fails. So a stream
	// of known length is checked against the claim, and one of unknown
	// length is staged, before any array is sized by it.
	weighted := flags&1 != 0
	payload := int64(n+1)*8 + int64(m)*4
	if weighted {
		payload += int64(m) * 4
	}
	var r io.Reader = br
	var err error
	if remaining < 0 {
		if r, err = stage(br, payload); err != nil {
			return nil, fmt.Errorf("graph: reading payload: %w", err)
		}
	} else if remaining-int64(len(hdr)) < payload {
		return nil, fmt.Errorf("graph: header claims %d payload bytes (n=%d m=%d), %d remain: %w",
			payload, n, m, remaining-int64(len(hdr)), io.ErrUnexpectedEOF)
	}
	outIndex, err := readUint64s(r, n+1)
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
	g, err := readLists(r, outIndex, m, weighted, newID)
	if err != nil {
		return nil, err
	}
	if err := g.Validate(); err != nil {
		return nil, err
	}
	return g, nil
}

// stagePiece is the most a staged stream allocates ahead of its data.
const stagePiece = 1 << 20

// stage reads the payload bytes of a stream that cannot tell its length
// into pieces of at most stagePiece bytes, each allocated only once the
// bytes before it have arrived, and returns a reader over them: a header
// that claims more than the stream holds costs the bytes that did arrive
// plus one piece. A stream that ends early fails with
// io.ErrUnexpectedEOF, one that fails otherwise with its own error.
func stage(r io.Reader, payload int64) (io.Reader, error) {
	var pieces []io.Reader
	for left := payload; left > 0; {
		p := make([]byte, min(left, stagePiece))
		if _, err := io.ReadFull(r, p); err != nil {
			if err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return nil, err
		}
		pieces = append(pieces, bytes.NewReader(p))
		left -= int64(len(p))
	}
	return io.MultiReader(pieces...), nil
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

// readLists reads the edges and weights that follow a validated index,
// from a stream whose length backs m edges, straight into the layout
// newID gives them (nil keeps the file's): each list keeps its order and
// moves whole to the segment of its source's new ID, each destination is
// checked and then renamed. The out-edges are allocated first, then the
// weights, then a new order's index: large before small, as
// RelabelWorkers takes them.
func readLists(r io.Reader, outIndex []uint64, m int, weighted bool, newID []VertexID) (*Graph, error) {
	n := len(outIndex) - 1
	g := &Graph{n: n, m: m, outIndex: outIndex, outEdges: make([]VertexID, m)}
	if weighted {
		g.outWeights, g.wb = make([]byte, m), 1
	}
	if newID != nil {
		g.outIndex = relabelIndex(outIndex, newID, 1)
	}

	var buf [ioChunkBytes]byte
	const perChunk = ioChunkBytes / 4
	// section reads the m 4-byte values of one section a chunk at a time.
	// decode sees each chunk whole, then place gets it a piece at a time:
	// the slot the piece moves to and its bounds in the chunk. In file
	// order the piece is the chunk; otherwise it is one list's values.
	section := func(decode func(src []byte) error, place func(slot uint64, lo, hi int)) error {
		v := 0
		for done := 0; done < m; {
			c := min(m-done, perChunk)
			if _, err := io.ReadFull(r, buf[:c*4]); err != nil {
				return err
			}
			if err := decode(buf[:c*4]); err != nil {
				return err
			}
			first, end := uint64(done), uint64(done+c)
			if newID == nil {
				place(first, 0, c)
			} else {
				for pos := first; pos < end; {
					for pos >= outIndex[v+1] {
						v++
					}
					hi := min(end, outIndex[v+1])
					place(g.outIndex[newID[v]]+pos-outIndex[v], int(pos-first), int(hi-first))
					pos = hi
				}
			}
			done += c
		}
		return nil
	}

	// Each chunk's destinations are decoded once and checked by their max.
	var dsts [perChunk]VertexID
	err := section(func(src []byte) error {
		var top VertexID
		for i := range len(src) / 4 {
			d := binary.LittleEndian.Uint32(src[4*i:])
			dsts[i], top = d, max(top, d)
		}
		if int(top) >= n {
			return fmt.Errorf("graph: edge destination %d out of range", top)
		}
		return nil
	}, func(slot uint64, lo, hi int) {
		dst := g.outEdges[slot : slot+uint64(hi-lo)]
		if newID == nil {
			copy(dst, dsts[lo:hi])
			return
		}
		for i, d := range dsts[lo:hi] {
			dst[i] = newID[d]
		}
	})
	if err != nil {
		return nil, fmt.Errorf("graph: reading edges: %w", err)
	}
	if weighted {
		// The packed array starts one byte wide and is re-stored wider
		// (at most twice) when a chunk holds a weight that needs it, so
		// no 4-byte array of every weight is ever held.
		err := section(func(src []byte) error {
			var top uint32
			for i := 0; i < len(src); i += 4 {
				top = max(top, binary.LittleEndian.Uint32(src[i:]))
			}
			if nb := widthFor(top); nb > g.wb {
				wider := make([]byte, m*nb)
				copyWeights(wider, nb, g.outWeights, g.wb)
				g.outWeights, g.wb = wider, nb
			}
			return nil
		}, func(slot uint64, lo, hi int) {
			wb := uint64(g.wb)
			packFileWeights(g.outWeights[slot*wb:(slot+uint64(hi-lo))*wb], buf[4*lo:4*hi], g.wb)
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

// readUint64s reads count little-endian uint64s through a scratch buffer
// into one array allocated at count.
func readUint64s(r io.Reader, count int) ([]uint64, error) {
	var buf [ioChunkBytes]byte
	dst := make([]uint64, count)
	for done := 0; done < count; {
		c := min(count-done, ioChunkBytes/8)
		if _, err := io.ReadFull(r, buf[:c*8]); err != nil {
			return nil, err
		}
		for i := range c {
			dst[done+i] = binary.LittleEndian.Uint64(buf[8*i:])
		}
		done += c
	}
	return dst, nil
}
