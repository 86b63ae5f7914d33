package server

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"

	"graphreorder/internal/graph"
)

// RelaxInf marks "no distance" on both ends of the relax exchange: the
// router's unreached vertices and the shard's empty candidate slots.
// Distances on the wire are always below it, which also keeps a
// distance plus a uint32 edge weight far from int64 overflow.
const RelaxInf = int64(1) << 62

// maxRelaxFrontier bounds the entries of one relax frame in either
// direction; a router's frontier for even the large datasets stays far
// below this.
const maxRelaxFrontier = 1 << 20

// relaxMagic opens every relax frame: three tag bytes and the format
// version. A layout change bumps the version, and the other end then
// rejects the frame instead of misreading it.
const relaxMagic = "RLX\x01"

// maxRelaxFrameBytes is the largest well-formed frame: the magic, two
// header uvarints, and a 5-byte gap plus a 9-byte distance per entry.
const maxRelaxFrameBytes = len(relaxMagic) + 2*binary.MaxVarintLen64 + maxRelaxFrontier*(5+9)

// RelaxFrame is one message of the SSSP frontier exchange, the body of
// POST /v1/shard/relax in both directions. A request lists frontier
// vertices with their settled distances; a response lists the
// candidate distances a shard's edges produce, one per vertex, with
// Relaxed counting the out-edges it scanned. Vertex IDs are in
// original-ID space — the one coordinate system the router and every
// independently reordered shard share.
//
// Wire layout (every integer a minimal-length uvarint):
//
//	"RLX" 0x01    magic and format version
//	count         entries that follow, at most maxRelaxFrontier
//	relaxed       out-edges scanned (0 in requests)
//	count × { gap, dist }
//
// The first gap is the first vertex ID, every later one the distance
// to the previous ID and at least 1, so IDs are strictly ascending by
// construction of a valid frame; dist is in [0, RelaxInf). A frame has
// exactly one encoding: Decode rejects everything AppendTo would not
// have produced.
type RelaxFrame struct {
	Relaxed uint64
	IDs     []graph.VertexID // strictly ascending
	Dists   []int64          // Dists[i] belongs to IDs[i]
}

// AppendTo appends the frame's encoding to buf. The caller guarantees
// the invariants Decode checks (ascending IDs, distances in range).
func (f *RelaxFrame) AppendTo(buf []byte) []byte {
	buf = append(buf, relaxMagic...)
	buf = binary.AppendUvarint(buf, uint64(len(f.IDs)))
	buf = binary.AppendUvarint(buf, f.Relaxed)
	prev := graph.VertexID(0)
	for i, id := range f.IDs {
		buf = binary.AppendUvarint(buf, uint64(id-prev))
		buf = binary.AppendUvarint(buf, uint64(f.Dists[i]))
		prev = id
	}
	return buf
}

// Decode parses buf into f, reusing the capacity of f.IDs and f.Dists,
// and validates it in full against a graph of n vertices. On error f's
// contents are unspecified.
func (f *RelaxFrame) Decode(buf []byte, n int) error {
	if len(buf) < len(relaxMagic) || string(buf[:len(relaxMagic)]) != relaxMagic {
		return errors.New("relax frame: bad magic or version")
	}
	buf = buf[len(relaxMagic):]
	count, buf, err := relaxUvarint(buf)
	if err != nil {
		return fmt.Errorf("relax frame: count: %w", err)
	}
	if count > maxRelaxFrontier {
		return fmt.Errorf("relax frame: %d entries (max %d)", count, maxRelaxFrontier)
	}
	// Every entry takes at least two bytes, so a count the payload cannot
	// hold is rejected before anything is sized by it.
	if count > uint64(len(buf))/2 {
		return fmt.Errorf("relax frame: %d entries in %d payload bytes", count, len(buf))
	}
	if f.Relaxed, buf, err = relaxUvarint(buf); err != nil {
		return fmt.Errorf("relax frame: relaxed: %w", err)
	}
	f.IDs = slices.Grow(f.IDs[:0], int(count))
	f.Dists = slices.Grow(f.Dists[:0], int(count))
	prev := uint64(0)
	for i := uint64(0); i < count; i++ {
		var gap, dist uint64
		if gap, buf, err = relaxUvarint(buf); err != nil {
			return fmt.Errorf("relax frame: entry %d vertex: %w", i, err)
		}
		if dist, buf, err = relaxUvarint(buf); err != nil {
			return fmt.Errorf("relax frame: entry %d distance: %w", i, err)
		}
		if i > 0 && gap == 0 {
			return fmt.Errorf("relax frame: entry %d: vertex IDs not ascending", i)
		}
		// prev < n, so once gap < n the sum cannot wrap.
		if gap >= uint64(n) || prev+gap >= uint64(n) {
			return fmt.Errorf("relax frame: entry %d: vertex out of range [0,%d)", i, n)
		}
		if dist >= uint64(RelaxInf) {
			return fmt.Errorf("relax frame: entry %d: distance %d out of range", i, dist)
		}
		prev += gap
		f.IDs = append(f.IDs, graph.VertexID(prev))
		f.Dists = append(f.Dists, int64(dist))
	}
	if len(buf) != 0 {
		return fmt.Errorf("relax frame: %d trailing bytes", len(buf))
	}
	return nil
}

// relaxUvarint reads one minimal-length uvarint off the front of buf.
func relaxUvarint(buf []byte) (uint64, []byte, error) {
	v, k := binary.Uvarint(buf)
	if k <= 0 {
		return 0, nil, errors.New("truncated or overlong uvarint")
	}
	if k > 1 && buf[k-1] == 0 {
		return 0, nil, errors.New("uvarint not in its shortest form")
	}
	return v, buf[k:], nil
}
