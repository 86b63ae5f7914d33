package reorder

import (
	"encoding/binary"
	"hash/fnv"
	"testing"

	"graphreorder/internal/gen"
	"graphreorder/internal/graph"
)

// TestOrderingsPinned pins every degree-based ordering by digest (FNV-1a
// over the permutation, little-endian uint32 per vertex), the way
// gen.TestSynthesizeEdgesPinned pins the datasets they are computed on:
// a change to the layout code that moves one vertex fails here. Each row
// holds the in-degree and the out-degree digest on the tiny scale.
func TestOrderingsPinned(t *testing.T) {
	pinned := map[string]map[string][2]uint64{
		"sd": {
			"sort":         {0x59b0ac03150f09dd, 0xad2951412837bca1},
			"hubsort":      {0x5fdfafc4aaf0f3dd, 0xc625af8c42520e79},
			"hubcluster":   {0xf75fd0555415d045, 0xf619cce7c2dc55a1},
			"dbg":          {0xab9f0b8dce884159, 0x5a1c351895b7009d},
			"dbg:4":        {0x5eec3a67ff7ed7ed, 0x2a52b13a91076141},
			"hubsort-o":    {0x22f7b423db522c9d, 0x3efe0b2db8aead9},
			"hubcluster-o": {0x26a86492935d2655, 0xabfbeaed03ce72e5},
		},
		"lj": {
			"sort":         {0xfbe42fd153286881, 0x95c4fc1f3a1a9555},
			"hubsort":      {0x8c70597fd42df229, 0x9f9bc2e82ce11829},
			"hubcluster":   {0x6ab571823af4f4a5, 0xb44c36b878593f8d},
			"dbg":          {0x437955d18f9c33c9, 0xd5a95fa3dadf65f5},
			"dbg:4":        {0x9ab3fd2d71abe2d9, 0xb3e0fe906f28b8a1},
			"hubsort-o":    {0xb75e2b7c67b57041, 0x7343edfac35363b9},
			"hubcluster-o": {0x5e5143969ae3263d, 0x29e64529b20e8151},
		},
		// uni's degrees all lie in [A/2, 2A): four groups split them as
		// eight do.
		"uni": {
			"sort":         {0x75c090769f803ea5, 0x61985bfa9bb0dfad},
			"hubsort":      {0x38ea550c204fbb39, 0x7d486c8596d2c6d9},
			"hubcluster":   {0x158bcde86b25f5b9, 0xa7239b2da2a46565},
			"dbg":          {0x52bcec49008748d, 0x276fc39ca23ab5cd},
			"dbg:4":        {0x52bcec49008748d, 0x276fc39ca23ab5cd},
			"hubsort-o":    {0xed41aa8563faf865, 0x1fdd259e80940f21},
			"hubcluster-o": {0x540bc1151a9fe591, 0x42f92392fb2c6a5},
		},
	}
	specs := []string{"sort", "hubsort", "hubcluster", "dbg", "dbg:4", "hubsort-o", "hubcluster-o"}
	kinds := []graph.DegreeKind{graph.InDegree, graph.OutDegree}
	for _, dataset := range []string{"sd", "lj", "uni"} {
		g, err := gen.Generate(gen.MustDataset(dataset, gen.Tiny))
		if err != nil {
			t.Fatal(err)
		}
		for _, spec := range specs {
			tech, err := ByName(spec)
			if err != nil {
				t.Fatal(err)
			}
			var got [2]uint64
			for i, kind := range kinds {
				perm, err := tech.Permute(g, kind)
				if err != nil {
					t.Fatal(err)
				}
				h := fnv.New64a()
				var buf [4]byte
				for _, id := range perm {
					binary.LittleEndian.PutUint32(buf[:], uint32(id))
					h.Write(buf[:])
				}
				got[i] = h.Sum64()
			}
			if want := pinned[dataset][spec]; got != want {
				t.Errorf("%s/%s: digests {%#x, %#x}; pinned {%#x, %#x}",
					dataset, spec, got[0], got[1], want[0], want[1])
			}
		}
	}
}
