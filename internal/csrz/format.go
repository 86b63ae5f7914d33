package csrz

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"unsafe"
)

// .csrz container layout:
//
//	header (64 bytes)
//	  [0:8)   magic "CSRZSNP1"
//	  [8:12)  version (uint32, currently 3; 1 and 2 are still read)
//	  [12:16) flags (uint32): bit0 = weighted
//	  [16:24) n (uint64)
//	  [24:32) m (uint64)
//	  [32:40) section count (uint64)
//	  [40:64) reserved, zero
//	section table (count × 24 bytes): {id, offset, length} uint64 each
//	sections, each zero-padded to a 4096-byte boundary, in table order
//	trailer (8 bytes at EOF): CRC-32C of file[0:size-8], then "ZRSC"
//
// The readers hold a file to that order: every section starts on a
// 4096-byte boundary past the section table, after the end of the one
// before it in the table, and the trailer follows the last section's
// last byte. A table out of file order, a section over the header or
// table, overlapping sections and bytes before the trailer are rejected.
//
// All integers are little-endian. A weighted file has one weight section,
// for the out-direction, and an unweighted file none. Its length over m
// is the bytes per weight, which must be 1, 2 or 4; an edgeless graph's
// empty section means 1. Versions 1 and 2 are read by the same rules,
// except that a weighted file also carries the in-direction's weights
// (section 8, reserved since), which no reader uses: that section must be
// exactly as long as the out-weights, and it is checked and dropped
// unread. Version 1's writer always stored 4 bytes per weight. A
// version-3 file carrying section 8 is rejected. Page alignment lets
// OpenFile hand out the index sections as []uint64 views and the byte
// sections as they are, straight into the mapping; the whole-file CRC
// makes torn writes and bit rot detectable before any of those views
// escape.

// Magic is the 8-byte signature that opens every .csrz file; callers
// (graphd's load path, graphinfo) sniff it to route a file to this codec.
const Magic = formatMagic

const (
	formatMagic   = "CSRZSNP1"
	trailerMagic  = 0x4352535A // "ZRSC" little-endian
	formatVersion = 3
	headerBytes   = 64
	sectionAlign  = 4096
	trailerBytes  = 8

	flagWeighted = 1 << 0

	secOutIdx  = 1
	secOutOff  = 2
	secOutData = 3
	secOutW    = 4
	secInIdx   = 5
	secInOff   = 6
	secInData  = 7
	secInW     = 8 // in-weights: reserved since version 3

	// lastInWVersion is the last version whose weighted files carry secInW.
	lastInWVersion = 2

	maxSections = 8

	// Same plausibility bounds as graph.ReadBinary: reject headers that
	// could not describe a real snapshot before doing any work.
	maxVertices = 1 << 31
	maxEdges    = 1 << 38
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

var hostLittleEndian = func() bool {
	var x uint16 = 1
	return *(*byte)(unsafe.Pointer(&x)) == 1
}()

type section struct {
	id, off, length uint64
}

// layoutSections assigns page-aligned offsets for g's sections and
// returns the table plus the total file size (including trailer).
func layoutSections(g *Graph) ([]section, int64) {
	type blob struct {
		id  uint64
		len uint64
	}
	blobs := []blob{
		{secOutIdx, uint64(len(g.outIdx)) * 8},
		{secOutOff, uint64(len(g.outOff)) * 8},
		{secOutData, uint64(len(g.outData))},
		{secInIdx, uint64(len(g.inIdx)) * 8},
		{secInOff, uint64(len(g.inOff)) * 8},
		{secInData, uint64(len(g.inData))},
	}
	if g.Weighted() {
		blobs = append(blobs, blob{secOutW, uint64(len(g.outW))})
	}
	pos := uint64(headerBytes + 24*len(blobs))
	secs := make([]section, 0, len(blobs))
	for _, b := range blobs {
		pos = alignUp(pos)
		secs = append(secs, section{id: b.id, off: pos, length: b.len})
		pos += b.len
	}
	return secs, int64(pos) + trailerBytes
}

func alignUp(x uint64) uint64 {
	return (x + sectionAlign - 1) &^ (sectionAlign - 1)
}

// FileSize returns the exact size in bytes of the .csrz container Write
// would produce for g — header, section table, page-aligned sections,
// trailer — without writing anything. Deterministic: Write always
// produces exactly this many bytes.
func (g *Graph) FileSize() int64 {
	_, size := layoutSections(g)
	return size
}

// SniffFile reports whether path begins with the .csrz magic, without
// validating anything beyond the first 8 bytes. A file too short to hold
// the magic is simply "not csrz"; only open errors are returned.
func SniffFile(path string) (bool, error) {
	f, err := os.Open(path)
	if err != nil {
		return false, err
	}
	defer f.Close()
	var magic [8]byte
	if _, err := io.ReadFull(f, magic[:]); err != nil {
		return false, nil
	}
	return string(magic[:]) == Magic, nil
}

type crcWriter struct {
	w   io.Writer
	crc uint32
	n   uint64
}

func (c *crcWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.crc = crc32.Update(c.crc, castagnoli, p[:n])
	c.n += uint64(n)
	return n, err
}

// Write streams g in .csrz container format to w, returning the number
// of bytes written.
func (g *Graph) Write(w io.Writer) (int64, error) {
	secs, total := layoutSections(g)

	cw := &crcWriter{w: w}
	hdr := make([]byte, headerBytes)
	copy(hdr, formatMagic)
	binary.LittleEndian.PutUint32(hdr[8:], formatVersion)
	var flags uint32
	if g.Weighted() {
		flags |= flagWeighted
	}
	binary.LittleEndian.PutUint32(hdr[12:], flags)
	binary.LittleEndian.PutUint64(hdr[16:], uint64(g.n))
	binary.LittleEndian.PutUint64(hdr[24:], uint64(g.m))
	binary.LittleEndian.PutUint64(hdr[32:], uint64(len(secs)))
	if _, err := cw.Write(hdr); err != nil {
		return int64(cw.n), err
	}
	tab := make([]byte, 24*len(secs))
	for i, s := range secs {
		binary.LittleEndian.PutUint64(tab[i*24:], s.id)
		binary.LittleEndian.PutUint64(tab[i*24+8:], s.off)
		binary.LittleEndian.PutUint64(tab[i*24+16:], s.length)
	}
	if _, err := cw.Write(tab); err != nil {
		return int64(cw.n), err
	}
	var pad [sectionAlign]byte
	for _, s := range secs {
		if gap := s.off - cw.n; gap > 0 {
			if _, err := cw.Write(pad[:gap]); err != nil {
				return int64(cw.n), err
			}
		}
		var err error
		switch s.id {
		case secOutIdx:
			err = writeUint64s(cw, g.outIdx)
		case secOutOff:
			err = writeUint64s(cw, g.outOff)
		case secOutData:
			_, err = cw.Write(g.outData)
		case secOutW:
			_, err = cw.Write(g.outW)
		case secInIdx:
			err = writeUint64s(cw, g.inIdx)
		case secInOff:
			err = writeUint64s(cw, g.inOff)
		case secInData:
			_, err = cw.Write(g.inData)
		}
		if err != nil {
			return int64(cw.n), err
		}
	}
	var trailer [trailerBytes]byte
	binary.LittleEndian.PutUint32(trailer[0:], cw.crc)
	binary.LittleEndian.PutUint32(trailer[4:], trailerMagic)
	if _, err := cw.Write(trailer[:]); err != nil {
		return int64(cw.n), err
	}
	if int64(cw.n) != total {
		return int64(cw.n), fmt.Errorf("csrz: wrote %d bytes, layout computed %d", cw.n, total)
	}
	return int64(cw.n), nil
}

// WriteFile writes g to path in .csrz format.
func (g *Graph) WriteFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriterSize(f, 1<<20)
	if _, err := g.Write(bw); err != nil {
		f.Close()
		return err
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

const ioChunkBytes = 1 << 16

func writeUint64s(w io.Writer, xs []uint64) error {
	var buf [ioChunkBytes]byte
	for len(xs) > 0 {
		k := min(len(xs), ioChunkBytes/8)
		for i, x := range xs[:k] {
			binary.LittleEndian.PutUint64(buf[i*8:], x)
		}
		if _, err := w.Write(buf[:k*8]); err != nil {
			return err
		}
		xs = xs[k:]
	}
	return nil
}

// ReadCSRZ decodes a .csrz stream into a heap-backed compressed graph.
// It reads the whole stream into one buffer, grown only as bytes arrive,
// so a header or section table announcing absurd sizes costs nothing
// before the stream runs dry, and parses that buffer as OpenFile parses
// a mapping. The graph keeps the buffer: its sections are views into it,
// and the padding (and a version-1 or -2 file's unread in-weight section)
// stay with them.
func ReadCSRZ(r io.Reader) (*Graph, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("csrz: reading: %w", err)
	}
	return parse(data)
}

// header is what parseHeader reads besides the graph's dimensions.
type header struct {
	version  uint32
	nsec     uint64
	weighted bool
}

// parseHeader checks the fixed 64-byte header parse starts from and
// returns an empty graph of its dimensions and the rest of the
// header.
func parseHeader(hdr []byte) (*Graph, header, error) {
	if string(hdr[:8]) != formatMagic {
		return nil, header{}, fmt.Errorf("csrz: bad magic %q", hdr[:8])
	}
	h := header{version: binary.LittleEndian.Uint32(hdr[8:]), nsec: binary.LittleEndian.Uint64(hdr[32:])}
	if h.version < 1 || h.version > formatVersion {
		return nil, header{}, fmt.Errorf("csrz: unsupported version %d", h.version)
	}
	flags := binary.LittleEndian.Uint32(hdr[12:])
	if flags&^uint32(flagWeighted) != 0 {
		return nil, header{}, fmt.Errorf("csrz: unknown flags %#x", flags)
	}
	h.weighted = flags&flagWeighted != 0
	n := binary.LittleEndian.Uint64(hdr[16:])
	m := binary.LittleEndian.Uint64(hdr[24:])
	if n > maxVertices || m > maxEdges {
		return nil, header{}, fmt.Errorf("csrz: implausible dimensions n=%d m=%d", n, m)
	}
	if h.nsec == 0 || h.nsec > maxSections {
		return nil, header{}, fmt.Errorf("csrz: implausible section count %d", h.nsec)
	}
	return &Graph{n: int(n), m: int(m)}, h, nil
}

// OpenFile maps path read-only and returns a compressed graph whose
// sections are views into the mapping (the index sections copied out on
// a big-endian host; without mmap the file is read into the heap). The
// whole-file CRC and a full adjacency decode are verified before
// returning, so a graph that loads is a graph whose iterators cannot
// fault. The caller owns the mapping: Close the graph after the last
// reader has drained (see doc.go).
func OpenFile(path string) (*Graph, error) {
	data, mp, err := mapFile(path)
	if err != nil {
		return nil, err
	}
	g, err := parse(data)
	if err != nil {
		if mp != nil {
			mp.close()
		}
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	g.mapping = mp
	return g, nil
}

// parse builds a Graph over a whole .csrz image, the one parser both
// ReadCSRZ and OpenFile run: every section a view into data where the
// host's byte order and data's alignment allow. It checks the trailer's
// CRC, the header, the section table — every section past the table, in
// table order, none overlapping the next, the trailer right after the
// last — and that the sections agree with the header, then decodes every
// list (validate).
func parse(data []byte) (*Graph, error) {
	if len(data) < headerBytes+trailerBytes {
		return nil, fmt.Errorf("csrz: file too small (%d bytes)", len(data))
	}
	body := data[:len(data)-trailerBytes]
	trailer := data[len(data)-trailerBytes:]
	if binary.LittleEndian.Uint32(trailer[4:]) != trailerMagic {
		return nil, fmt.Errorf("csrz: bad trailer magic")
	}
	if got, want := binary.LittleEndian.Uint32(trailer[0:]), crc32.Checksum(body, castagnoli); got != want {
		return nil, fmt.Errorf("csrz: checksum mismatch: file says %#x, computed %#x", got, want)
	}
	g, h, err := parseHeader(body[:headerBytes])
	if err != nil {
		return nil, err
	}
	prevEnd := headerBytes + 24*h.nsec
	if uint64(len(body)) < prevEnd {
		return nil, fmt.Errorf("csrz: truncated section table")
	}
	seen := make(map[uint64]bool, h.nsec)
	var inWLen uint64
	for i := uint64(0); i < h.nsec; i++ {
		tab := body[headerBytes+24*i:]
		s := section{
			id:     binary.LittleEndian.Uint64(tab),
			off:    binary.LittleEndian.Uint64(tab[8:]),
			length: binary.LittleEndian.Uint64(tab[16:]),
		}
		if s.off%sectionAlign != 0 || s.off < prevEnd || s.off+s.length < s.off || s.off+s.length > uint64(len(body)) {
			return nil, fmt.Errorf("csrz: section %d has bad extent [%d,+%d)", s.id, s.off, s.length)
		}
		prevEnd = s.off + s.length
		if seen[s.id] {
			return nil, fmt.Errorf("csrz: duplicate section %d", s.id)
		}
		seen[s.id] = true
		raw := body[s.off:prevEnd]
		var err error
		switch s.id {
		case secOutIdx:
			g.outIdx, err = u64view(raw)
		case secOutOff:
			g.outOff, err = u64view(raw)
		case secOutData:
			g.outData = raw
		case secOutW:
			g.outW = raw
		case secInIdx:
			g.inIdx, err = u64view(raw)
		case secInOff:
			g.inOff, err = u64view(raw)
		case secInData:
			g.inData = raw
		case secInW:
			inWLen = s.length
		default:
			err = fmt.Errorf("csrz: unknown section id %d", s.id)
		}
		if err != nil {
			return nil, err
		}
	}
	if prevEnd != uint64(len(body)) {
		return nil, fmt.Errorf("csrz: %d bytes between the last section and the trailer", uint64(len(body))-prevEnd)
	}
	// The sections' lengths came from the file: they must agree with the
	// header. A weighted file has an out-weight section of 1, 2 or 4 bytes
	// per edge, an unweighted file none; a weighted file of version 1 or 2
	// also has an in-weight section exactly as long, a later version none.
	if len(g.outIdx) != g.n+1 || len(g.inIdx) != g.n+1 ||
		len(g.outOff) != g.n+1 || len(g.inOff) != g.n+1 {
		return nil, fmt.Errorf("csrz: index sections disagree with n=%d", g.n)
	}
	if h.version > lastInWVersion && seen[secInW] {
		return nil, fmt.Errorf("csrz: version %d snapshot carries an in-weight section", h.version)
	}
	if !h.weighted && (seen[secOutW] || seen[secInW]) {
		return nil, fmt.Errorf("csrz: weight sections present on unweighted snapshot")
	}
	if h.weighted {
		if !seen[secOutW] {
			return nil, fmt.Errorf("csrz: weighted snapshot has no weight section")
		}
		if h.version <= lastInWVersion && (!seen[secInW] || inWLen != uint64(len(g.outW))) {
			return nil, fmt.Errorf("csrz: weighted version %d snapshot needs two equal weight sections", h.version)
		}
		g.wb = 1
		if g.m > 0 {
			g.wb = len(g.outW) / g.m
		}
		if (g.wb != 1 && g.wb != 2 && g.wb != 4) || len(g.outW) != g.wb*g.m {
			return nil, fmt.Errorf("csrz: weight sections of %d bytes do not hold m=%d weights of 1, 2 or 4 bytes", len(g.outW), g.m)
		}
	}
	if err := g.validate(); err != nil {
		return nil, err
	}
	return g, nil
}

// u64view reinterprets a little-endian byte section as []uint64: a view
// of b where the host is little-endian and b is 8-byte aligned (always in
// a mapping, whose sections are page-aligned), a decoded copy otherwise.
func u64view(b []byte) ([]uint64, error) {
	if len(b)%8 != 0 {
		return nil, fmt.Errorf("csrz: uint64 section length %d not a multiple of 8", len(b))
	}
	count := len(b) / 8
	if count == 0 {
		return []uint64{}, nil
	}
	if hostLittleEndian && uintptr(unsafe.Pointer(&b[0]))%8 == 0 {
		return unsafe.Slice((*uint64)(unsafe.Pointer(&b[0])), count), nil
	}
	out := make([]uint64, count)
	for i := range out {
		out[i] = binary.LittleEndian.Uint64(b[i*8:])
	}
	return out, nil
}
