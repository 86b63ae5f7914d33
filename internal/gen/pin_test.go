package gen

import (
	"encoding/binary"
	"hash/fnv"
	"testing"
)

// TestSynthesizeEdgesPinned pins the generated datasets themselves: every
// recorded number in this repository is a measurement of these exact edge
// lists, so a change to the generator or to internal/rng that moves one
// edge must fail here. The digests are FNV-1a over (src, dst, weight) of
// every edge in emission order followed by the community labels. wl is
// the dataset whose Zipf exponent is exactly 1, the sampler's special
// case.
func TestSynthesizeEdgesPinned(t *testing.T) {
	for _, tc := range []struct {
		name  string
		scale Scale
		edges int
		want  uint64
	}{
		{"sd", Small, 983039, 0xb13731475d47abba},
		{"lj", Tiny, 7168, 0x9e4380d7a50251c0},
		{"wl", Tiny, 9215, 0x95fb05b139482dff},
	} {
		edges, comm, err := SynthesizeEdges(MustDataset(tc.name, tc.scale))
		if err != nil {
			t.Fatal(err)
		}
		h := fnv.New64a()
		var buf [12]byte
		for _, e := range edges {
			binary.LittleEndian.PutUint32(buf[0:], uint32(e.Src))
			binary.LittleEndian.PutUint32(buf[4:], uint32(e.Dst))
			binary.LittleEndian.PutUint32(buf[8:], e.Weight)
			h.Write(buf[:])
		}
		for _, c := range comm {
			binary.LittleEndian.PutUint32(buf[0:], c)
			h.Write(buf[:4])
		}
		if len(edges) != tc.edges || h.Sum64() != tc.want {
			t.Errorf("%s/%s: %d edges, digest %#x; pinned %d edges, digest %#x",
				tc.name, tc.scale, len(edges), h.Sum64(), tc.edges, tc.want)
		}
	}
}
