package graph

import (
	"encoding/binary"
	"slices"
)

// Edge weights are stored packed: wb little-endian bytes each, wb the
// narrowest of 1, 2 or 4 that holds the graph's largest weight. Every
// generated dataset draws its weights from 1..63, so one byte each
// suffices (Ligra+ byte-codes weights for the same reason). The width is
// a function of the weight multiset, never an option: every layout path
// (build, relabel, patch, the .gr reader) stores the width the rebuild
// would, and internal/csrz stores the same bytes. A list's weights are
// handed out as stored (WeightList): a hot loop reads them in place,
// anything else decodes them to []uint32.

// widthFor is the narrowest of 1, 2 or 4 bytes that holds maxW.
func widthFor(maxW uint32) int {
	switch {
	case maxW <= 0xFF:
		return 1
	case maxW <= 0xFFFF:
		return 2
	}
	return 4
}

// WeightList is one list's weights as stored: Width little-endian bytes
// each in Bytes, a read-only sub-slice of the graph's packed array, index-
// aligned with the list's neighbors. Width is 0 on an unweighted graph.
// A hot loop switches on Width once per list and reads Bytes in place;
// Append decodes.
type WeightList struct {
	Bytes []byte
	Width int
}

// Append decodes the list's weights onto buf and returns it; buf comes
// back unchanged when the graph is unweighted.
func (w WeightList) Append(buf []uint32) []uint32 {
	if w.Width == 0 {
		return buf
	}
	return appendWeights(buf, w.Bytes, w.Width, 0, uint64(len(w.Bytes)/w.Width))
}

// At decodes weight i of the list; it is 0 on an unweighted graph.
func (w WeightList) At(i int) uint32 {
	switch w.Width {
	case 0:
		return 0
	case 1:
		return uint32(w.Bytes[i])
	case 2:
		return uint32(binary.LittleEndian.Uint16(w.Bytes[2*i:]))
	}
	return binary.LittleEndian.Uint32(w.Bytes[4*i:])
}

// appendWeights appends weights [lo, hi) of w, stored wb bytes each, to
// buf and returns it; buf comes back unchanged when wb is 0 (unweighted).
// The width is switched on once per call, not once per weight.
func appendWeights(buf []uint32, w []byte, wb int, lo, hi uint64) []uint32 {
	if wb == 0 {
		return buf
	}
	base := len(buf)
	buf = slices.Grow(buf, int(hi-lo))[:base+int(hi-lo)]
	dst, src := buf[base:], w[lo*uint64(wb):hi*uint64(wb)]
	switch wb {
	case 1:
		dst = dst[:len(src)] // proves every dst[i] in bounds
		for i, b := range src {
			dst[i] = uint32(b)
		}
	case 2:
		for i := range dst {
			dst[i] = uint32(binary.LittleEndian.Uint16(src[2*i:]))
		}
	default:
		for i := range dst {
			dst[i] = binary.LittleEndian.Uint32(src[4*i:])
		}
	}
	return buf
}

// putWeights stores ws at wb bytes each into dst, the inverse of
// appendWeights.
func putWeights(dst []byte, ws []uint32, wb int) {
	switch wb {
	case 1:
		for i, x := range ws {
			dst[i] = byte(x)
		}
	case 2:
		for i, x := range ws {
			binary.LittleEndian.PutUint16(dst[2*i:], uint16(x))
		}
	default:
		for i, x := range ws {
			binary.LittleEndian.PutUint32(dst[4*i:], x)
		}
	}
}

// packWeights stores ws at the width its largest weight needs.
func packWeights(ws []uint32) ([]byte, int) {
	var maxW uint32
	for _, x := range ws {
		maxW = max(maxW, x)
	}
	wb := widthFor(maxW)
	w := make([]byte, len(ws)*wb)
	putWeights(w, ws, wb)
	return w, wb
}

// weightChunk is how many weights a re-store or a scan decodes at a time.
const weightChunk = 1 << 10

// copyWeights stores the weights of src, sw bytes each, into dst at dw
// bytes each: one copy when the widths agree, else a decode and store a
// chunk at a time.
func copyWeights(dst []byte, dw int, src []byte, sw int) {
	if dw == sw {
		copy(dst, src)
		return
	}
	var buf [weightChunk]uint32
	count := uint64(len(src) / sw)
	for lo := uint64(0); lo < count; lo += weightChunk {
		hi := min(count, lo+weightChunk)
		putWeights(dst[lo*uint64(dw):], appendWeights(buf[:0], src, sw, lo, hi), dw)
	}
}

// WeightWidth is the width the weights of w, stored wb bytes each, need:
// the one a plain graph stores them at (0 for 0: unweighted). Only a
// width over one byte scans the weights.
func WeightWidth(w []byte, wb int) int {
	if wb <= 1 {
		return wb
	}
	var buf [weightChunk]uint32
	count := uint64(len(w) / wb)
	var maxW uint32
	for lo := uint64(0); lo < count; lo += weightChunk {
		for _, x := range appendWeights(buf[:0], w, wb, lo, min(count, lo+weightChunk)) {
			maxW = max(maxW, x)
		}
	}
	return widthFor(maxW)
}

// narrowWeights returns w, wb bytes each, re-stored at the width its
// largest weight needs in an array with room for capacity weights: w
// itself when that width is wb.
func narrowWeights(w []byte, wb, capacity int) ([]byte, int) {
	nb := WeightWidth(w, wb)
	if nb == wb {
		return w, wb
	}
	out := make([]byte, len(w)/wb*nb, capacity*nb)
	copyWeights(out, nb, w, wb)
	return out, nb
}
