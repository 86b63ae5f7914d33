package ligra

import (
	"math/bits"
	"sync/atomic"

	"graphreorder/internal/graph"
)

// Bitset is a dense membership set over vertex IDs packed 64 per word —
// 8x smaller than the []bool bitmaps the engine used previously, which
// both shrinks the frontier working set (the point of the paper is that
// cache lines are precious) and makes Len a popcount instead of a scan.
//
// The word granularity is also what makes the parallel engine work:
// push-mode workers claim output slots with compare-and-swap on whole
// words, and pull-mode workers own chunks aligned to 64 vertices so plain
// stores never touch a word shared with another worker.
type Bitset []uint64

// bitsetWords returns the number of words needed for n bits.
func bitsetWords(n int) int { return (n + 63) >> 6 }

// NewBitset returns a zeroed Bitset able to hold n bits.
func NewBitset(n int) Bitset { return make(Bitset, bitsetWords(n)) }

// zeroed returns a zeroed Bitset able to hold n bits, reusing b's storage
// when it is large enough.
func (b Bitset) zeroed(n int) Bitset {
	words := bitsetWords(n)
	if cap(b) < words {
		return make(Bitset, words)
	}
	b = b[:words]
	b.Clear()
	return b
}

// Has reports whether bit v is set.
func (b Bitset) Has(v graph.VertexID) bool {
	return b[v>>6]&(1<<(v&63)) != 0
}

// Set sets bit v (single-writer; use TrySetAtomic under concurrency).
func (b Bitset) Set(v graph.VertexID) {
	b[v>>6] |= 1 << (v & 63)
}

// TrySetAtomic sets bit v with a compare-and-swap loop and reports whether
// this call transitioned it from 0 to 1. Exactly one of any number of
// concurrent callers for the same v observes true — this is how parallel
// push EdgeMap deduplicates the output frontier.
func (b Bitset) TrySetAtomic(v graph.VertexID) bool {
	w := &b[v>>6]
	mask := uint64(1) << (v & 63)
	for {
		old := atomic.LoadUint64(w)
		if old&mask != 0 {
			return false
		}
		if atomic.CompareAndSwapUint64(w, old, old|mask) {
			return true
		}
	}
}

// Count returns the number of set bits (popcount over words).
func (b Bitset) Count() int {
	c := 0
	for _, w := range b {
		c += bits.OnesCount64(w)
	}
	return c
}

// Clear zeroes every word.
func (b Bitset) Clear() {
	for i := range b {
		b[i] = 0
	}
}

// FillUpTo sets bits [0, n) and clears any tail bits in the last word.
func (b Bitset) FillUpTo(n int) {
	words := bitsetWords(n)
	for i := 0; i < words; i++ {
		b[i] = ^uint64(0)
	}
	if r := uint(n & 63); r != 0 {
		b[words-1] = (1 << r) - 1
	}
	for i := words; i < len(b); i++ {
		b[i] = 0
	}
}

// AppendMembers appends the IDs of set bits in ascending order to dst and
// returns the extended slice, decoding word by word via trailing-zero
// counts rather than probing each bit.
func (b Bitset) AppendMembers(dst []graph.VertexID) []graph.VertexID {
	for wi, w := range b {
		base := graph.VertexID(wi << 6)
		for w != 0 {
			dst = append(dst, base+graph.VertexID(bits.TrailingZeros64(w)))
			w &= w - 1
		}
	}
	return dst
}

// FromBools overwrites b with the contents of a []bool bitmap (compat path
// for callers still holding bool bitmaps).
func (b Bitset) FromBools(bitmap []bool) {
	b.Clear()
	for v, in := range bitmap {
		if in {
			b.Set(graph.VertexID(v))
		}
	}
}

// ToBools expands the first n bits into a freshly allocated []bool.
func (b Bitset) ToBools(n int) []bool {
	out := make([]bool, n)
	for v := range out {
		out[v] = b.Has(graph.VertexID(v))
	}
	return out
}

// Equal reports whether two bitsets have identical contents.
func (b Bitset) Equal(o Bitset) bool {
	if len(b) != len(o) {
		return false
	}
	for i, w := range b {
		if w != o[i] {
			return false
		}
	}
	return true
}
