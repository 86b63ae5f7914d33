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
// every edge in emission order followed by the community labels. The rows
// cover every generator family and every class of Zipf exponent the
// sampler treats apart: s = 1.10, 1.05 and 0.95 (sd, pl, tw, lj, fr), whose
// 1/(1-s) is an integer, and s = 1 (wl, mp), the harmonic special case.
// The last row is the benchmark's batch graph (sd at 393,216 vertices).
func TestSynthesizeEdgesPinned(t *testing.T) {
	for _, tc := range []struct {
		name     string
		scale    Scale
		vertices int // 0 keeps the scale's vertex count
		edges    int
		want     uint64
	}{
		{"sd", Small, 0, 983039, 0xb13731475d47abba},
		{"lj", Tiny, 0, 7168, 0x9e4380d7a50251c0},
		{"wl", Tiny, 0, 9215, 0x95fb05b139482dff},
		{"pl", Tiny, 0, 46080, 0x912a014cfc9764dd},
		{"tw", Tiny, 0, 98304, 0xe24877cce5c28399},
		{"fr", Tiny, 0, 135168, 0x98fbc0621bacd9e8},
		{"mp", Tiny, 0, 151552, 0xb61051b0739df545},
		{"lj", Small, 0, 57344, 0x37bafd59672437e9},
		{"kr", Tiny, 0, 81920, 0x39289764d80efdc3},
		{"uni", Tiny, 0, 61440, 0xea734b836f8bf84},
		{"road", Tiny, 0, 2380, 0x59e2a70321468342},
		{"sd", Small, 393216, 7864319, 0x5322a2eadf877e28},
	} {
		cfg := MustDataset(tc.name, tc.scale)
		if tc.vertices > 0 {
			cfg.NumVertices = tc.vertices
		}
		edges, comm, err := SynthesizeEdges(cfg)
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
			t.Errorf("%s/%s/%d: %d edges, digest %#x; pinned %d edges, digest %#x",
				tc.name, tc.scale, cfg.NumVertices, len(edges), h.Sum64(), tc.edges, tc.want)
		}
	}
}
