package server

import (
	"bytes"
	"encoding/binary"
	"strings"
	"testing"

	"graphreorder/internal/graph"
)

// rawFrame assembles frame bytes from already-chosen uvarint values, so
// cases can spell out frames AppendTo would never produce.
func rawFrame(vals ...uint64) []byte {
	buf := []byte(relaxMagic)
	for _, v := range vals {
		buf = binary.AppendUvarint(buf, v)
	}
	return buf
}

// relaxFrameCases are the codec's boundary cases: wantErr is a fragment
// of the rejection, "" for frames that must decode. They are also the
// fuzz target's in-code seeds.
var relaxFrameCases = []struct {
	name    string
	data    []byte
	n       uint32
	wantErr string
}{
	{"empty-frontier", rawFrame(0, 0), 8, ""},
	{"request", (&RelaxFrame{IDs: []graph.VertexID{0, 3, 7}, Dists: []int64{0, 12, 1 << 40}}).AppendTo(nil), 8, ""},
	{"response", (&RelaxFrame{Relaxed: 977, IDs: []graph.VertexID{5, 6, 4095}, Dists: []int64{9, 0, RelaxInf - 1}}).AppendTo(nil), 4096, ""},
	{"no-magic", []byte("RL"), 8, "bad magic"},
	{"future-version", append([]byte("RLX\x02"), 0, 0), 8, "bad magic"},
	{"json", []byte(`{"frontier":[[0,0]]}`), 8, "bad magic"},
	{"not-ascending", rawFrame(2, 0, 3, 1, 0, 1), 8, "not ascending"},
	{"vertex-out-of-range", rawFrame(1, 0, 8, 1), 8, "out of range"},
	{"second-vertex-out-of-range", rawFrame(2, 0, 7, 1, 1, 1), 8, "out of range"},
	{"gap-wraps", rawFrame(2, 0, 7, 1, 1<<64-3, 1), 8, "out of range"},
	{"distance-out-of-range", rawFrame(1, 0, 0, uint64(RelaxInf)), 8, "distance"},
	{"count-above-max", rawFrame(maxRelaxFrontier+1, 0), 8, "max"},
	{"count-above-payload", rawFrame(3, 0, 1, 1), 8, "payload bytes"},
	{"truncated-entry", rawFrame(1, 0, 1), 8, "distance"},
	{"trailing-bytes", append(rawFrame(1, 0, 1, 1), 0), 8, "trailing"},
	{"overlong-uvarint", append([]byte(relaxMagic), 0x80, 0x00, 0), 8, "shortest form"},
	{"uvarint-overflow", append([]byte(relaxMagic), bytes.Repeat([]byte{0xff}, 11)...), 8, "uvarint"},
}

func TestRelaxFrameCodec(t *testing.T) {
	for _, c := range relaxFrameCases {
		var f RelaxFrame
		err := f.Decode(c.data, int(c.n))
		switch {
		case c.wantErr == "" && err != nil:
			t.Errorf("%s: rejected: %v", c.name, err)
		case c.wantErr != "" && err == nil:
			t.Errorf("%s: accepted as %+v", c.name, f)
		case c.wantErr != "" && !strings.Contains(err.Error(), c.wantErr):
			t.Errorf("%s: rejected with %q, want mention of %q", c.name, err, c.wantErr)
		}
	}
}

// FuzzRelaxFrame feeds arbitrary bytes to the relax frame decoder. The
// frame crosses a process boundary in both directions and what it
// carries indexes arrays on the other side unchecked, so anything Decode
// accepts must already satisfy every invariant the kernel and the
// router's fold rely on — and, the encoding being canonical, must
// re-encode to exactly the bytes that came in.
func FuzzRelaxFrame(f *testing.F) {
	for _, c := range relaxFrameCases {
		f.Add(c.data, c.n)
	}
	f.Fuzz(func(t *testing.T, data []byte, n uint32) {
		var fr RelaxFrame
		err := fr.Decode(data, int(n))
		// Entries take at least two bytes each; the slack covers the
		// allocator rounding a capacity up to its size class.
		if limit := len(data) + 64; cap(fr.IDs) > limit || cap(fr.Dists) > limit {
			t.Fatalf("decoding %d bytes sized the slices to %d and %d entries", len(data), cap(fr.IDs), cap(fr.Dists))
		}
		if err != nil {
			return
		}
		if len(fr.IDs) != len(fr.Dists) || len(fr.IDs) > maxRelaxFrontier {
			t.Fatalf("accepted %d IDs with %d distances", len(fr.IDs), len(fr.Dists))
		}
		for i, id := range fr.IDs {
			if id >= graph.VertexID(n) {
				t.Fatalf("accepted vertex %d of %d", id, n)
			}
			if i > 0 && id <= fr.IDs[i-1] {
				t.Fatalf("accepted IDs out of order: %d after %d", id, fr.IDs[i-1])
			}
			if d := fr.Dists[i]; d < 0 || d >= RelaxInf {
				t.Fatalf("accepted distance %d", d)
			}
		}
		if again := fr.AppendTo(nil); !bytes.Equal(again, data) {
			t.Fatalf("accepted frame re-encodes differently:\n in  %x\n out %x", data, again)
		}
	})
}

// BenchmarkShardRelax runs the relax kernel the way a shard's steady
// state does — one pooled scratch, hop after hop — on an sd/small DBG
// snapshot, relaxing a 1,024-vertex frontier and encoding the reply. It
// reports the cost per out-edge scanned; allocs/op is the point: once
// the scratch has grown to the graph, a hop allocates nothing.
func BenchmarkShardRelax(b *testing.B) {
	for _, backend := range []string{"plain", "compressed"} {
		b.Run(backend, func(b *testing.B) {
			s := New(Config{Workers: 1})
			snap, err := s.store.Build(BuildSpec{Name: "shard", Dataset: "sd", Scale: "small", Technique: "dbg", Backend: backend})
			if err != nil {
				b.Fatal(err)
			}
			n := snap.graph.NumVertices()
			sc := new(relaxScratch)
			for v := 0; v < n; v += n / 1024 {
				sc.in.IDs = append(sc.in.IDs, graph.VertexID(v))
				sc.in.Dists = append(sc.in.Dists, int64(v%251))
			}
			hop := func() {
				sc.relax(snap.graph, snap.perm, snap.invPerm())
				sc.outBytes = sc.out.AppendTo(sc.outBytes[:0])
			}
			hop() // grows the scratch
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				hop()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(sc.out.Relaxed), "ns/edge")
			b.ReportMetric(float64(len(sc.out.IDs)), "candidates")
		})
	}
}
