package csrz

import "math/bits"

// Neighbor lists are stored as byte-aligned LEB128 varints of zig-zag
// signed deltas: the first entry is delta(v, nbr[0]) and each subsequent
// entry is delta(nbr[i-1], nbr[i]). Deltas are signed because Relabel
// preserves the stored order of each list rather than re-sorting it, and
// bit-identical float accumulation (PR, BC) depends on that order — so
// the codec must round-trip arbitrary-order lists, not just ascending
// ones. Zig-zag keeps small |delta| cheap in either direction, which is
// exactly what locality-improving reorderings produce.

// zigzag maps a signed delta to an unsigned value with small magnitudes
// near zero: 0,-1,1,-2,2 → 0,1,2,3,4.
func zigzag(d int64) uint64 {
	return uint64((d << 1) ^ (d >> 63))
}

// unzigzag inverts zigzag.
func unzigzag(u uint64) int64 {
	return int64(u>>1) ^ -int64(u&1)
}

// appendUvarint appends x to b in LEB128 order (7 bits per byte, low
// group first, high bit = continuation).
func appendUvarint(b []byte, x uint64) []byte {
	for x >= 0x80 {
		b = append(b, byte(x)|0x80)
		x >>= 7
	}
	return append(b, byte(x))
}

// uvarintLen returns the encoded size of x in bytes (1..10).
func uvarintLen(x uint64) int {
	return (bits.Len64(x|1) + 6) / 7
}

// deltaLen returns the encoded size in bytes of the zig-zag delta
// between prev and next. Shared by the encoder and the exact
// compression-ratio predictor in internal/reorder.
func deltaLen(prev, next uint32) int {
	return uvarintLen(zigzag(int64(next) - int64(prev)))
}

// DeltaCost is deltaLen for external callers: the exact on-wire byte
// cost of encoding neighbor next immediately after prev (or after the
// source vertex itself, for the first neighbor of a list). It is what
// makes reorder.QualityReport.PredictedRatio a prediction of *this*
// codec rather than a heuristic: summing DeltaCost over a layout's
// neighbor lists reproduces the encoder's byte count exactly.
func DeltaCost(prev, next uint32) int {
	return deltaLen(prev, next)
}

// maxUvarintBytes bounds a single encoded value: zigzag of a 33-bit
// signed delta needs at most 5 LEB128 bytes.
const maxUvarintBytes = 5

// readUvarint decodes one LEB128 value from b, returning the value and
// the number of bytes consumed; n == 0 means b was truncated or the
// encoding overran maxUvarintBytes (never produced by the encoder).
func readUvarint(b []byte) (uint64, int) {
	var x uint64
	var s uint
	for i := 0; i < len(b); i++ {
		c := b[i]
		if c < 0x80 {
			if i >= maxUvarintBytes {
				return 0, 0
			}
			return x | uint64(c)<<s, i + 1
		}
		x |= uint64(c&0x7f) << s
		s += 7
		if i+1 >= maxUvarintBytes {
			return 0, 0
		}
	}
	return 0, 0
}
