package server

import (
	"context"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"testing"

	"graphreorder"
	"graphreorder/internal/graph"
	"graphreorder/internal/reorder"
)

// writeGraphFile writes g in the binary format and, with ranks set, a
// rank file of its PageRank in which every third vertex is a mirror; it
// returns both paths ("" for no rank file).
func writeGraphFile(t *testing.T, g *graph.Graph, ranks bool) (string, string) {
	t.Helper()
	dir := t.TempDir()
	path := filepath.Join(dir, "g.graph")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := graph.WriteBinary(f, g); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if !ranks {
		return path, ""
	}
	run, err := graphreorder.Run(context.Background(), g, graphreorder.AppPR)
	if err != nil {
		t.Fatal(err)
	}
	owned := make([]bool, g.NumVertices())
	for v := range owned {
		owned[v] = v%3 != 0
	}
	ranksPath := filepath.Join(dir, "ranks.bin")
	if err := WriteRankFile(ranksPath, run.Ranks(), owned, run.Iterations, run.Checksum); err != nil {
		t.Fatal(err)
	}
	return path, ranksPath
}

// sameCSR reports whether two graphs hold the same arrays.
func sameCSR(a, b *graph.Graph) bool {
	aw, awb := a.OutWeightArray()
	bw, bwb := b.OutWeightArray()
	return a.NumVertices() == b.NumVertices() && a.NumEdges() == b.NumEdges() &&
		slices.Equal(a.OutIndex(), b.OutIndex()) && slices.Equal(a.OutEdgeArray(), b.OutEdgeArray()) &&
		slices.Equal(a.InIndex(), b.InIndex()) && slices.Equal(a.InEdgeArray(), b.InEdgeArray()) &&
		awb == bwb && slices.Equal(aw, bw)
}

// TestBuildFromFileLoadsInOrder: a build from a binary file with "dbg" or
// "auto" loads the graph straight into its order, and publishes what
// ReadBinary followed by the plan's ApplyWorkers gives: the layout array
// for array, its permutation, its ranks (a rank file's remapped into the
// layout, or PageRank's) and its admin view minus the timings. The
// advisor sends sd to DBG and uni to the file's order, decided from the
// file's degrees before an edge is read.
func TestBuildFromFileLoadsInOrder(t *testing.T) {
	const workers = 2
	for _, tc := range []struct{ dataset, technique, advised string }{
		{"sd", "dbg", ""},
		{"sd", "auto", "dbg"},
		{"uni", "auto", "original"},
	} {
		g := genGraph(t, tc.dataset, "tiny")
		for _, withRanks := range []bool{false, true} {
			name := tc.dataset + "/" + tc.technique
			if withRanks {
				name += "/ranks"
			}
			t.Run(name, func(t *testing.T) {
				path, ranksPath := writeGraphFile(t, g, withRanks)
				spec := BuildSpec{Name: "s", Path: path, RanksPath: ranksPath, Technique: tc.technique, Backend: backendPlain}

				loaded, err := graph.ReadBinary(mustOpen(t, path))
				if err != nil {
					t.Fatal(err)
				}
				plan := reorder.Compose()
				if tc.technique == "auto" {
					plan = reorder.Advise(loaded, graph.OutDegree).Plan
				} else if plan, err = reorder.ParsePlan(tc.technique); err != nil {
					t.Fatal(err)
				}
				layout, perm := loaded, reorder.Permutation(nil)
				if len(plan.Stages()) > 0 {
					res, err := plan.ApplyWorkers(loaded, graph.OutDegree, workers)
					if err != nil {
						t.Fatal(err)
					}
					layout, perm = res.Graph, res.Perm
				}

				fused := NewStore(workers)
				snap, err := fused.Build(spec)
				if err != nil {
					t.Fatal(err)
				}
				// The reference store takes the graph as ReadBinary gives
				// it and relabels it in its view stage.
				ref := NewStore(workers)
				order, err := newBuildOrder(spec.Technique)
				if err != nil {
					t.Fatal(err)
				}
				want, err := ref.buildFrom(spec, &BuildStatus{}, loaded, nil, order, "file:"+path, graph.OutDegree, 0, nil)
				if err != nil {
					t.Fatal(err)
				}

				if !sameCSR(snap.graph.(*graph.Graph), layout) {
					t.Error("the served layout differs from ReadBinary + ApplyWorkers")
				}
				if !slices.Equal(snap.perm, perm) || (snap.perm == nil) != (perm == nil) {
					t.Errorf("permutation differs from the plan's (nil: got %v, want %v)", snap.perm == nil, perm == nil)
				}
				if !slices.Equal(snap.ranks, want.ranks) || !slices.Equal(snap.owned, want.owned) {
					t.Error("ranks or owned set differ from the load-then-relabel build's")
				}
				got, _ := fused.Info("s")
				exp, _ := ref.Info("s")
				if got.Advised != tc.advised {
					t.Errorf("advised %q, want %q", got.Advised, tc.advised)
				}
				if got.RebuildMs != 0 {
					t.Errorf("rebuild_ms %v on a build that relabeled as it loaded", got.RebuildMs)
				}
				for _, info := range []*SnapshotInfo{&got, &exp} {
					info.Epoch, info.Built = 0, ""
					info.LoadMs, info.ReorderMs, info.RebuildMs, info.PrecomputeMs = 0, 0, 0, 0
				}
				if !reflect.DeepEqual(got, exp) {
					t.Errorf("info:\n got %+v\nwant %+v", got, exp)
				}
			})
		}
	}
}

func mustOpen(t *testing.T, path string) *os.File {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Close() })
	return f
}

// TestBuildFromFileAllocatesOneCSR pins the bytes a shard-style build
// (a binary file, "dbg", a rank file) allocates, as a multiple of the
// served graph's resident bytes (its four CSR arrays and packed weights).
// Loading in file order and then relabeling allocates a second CSR:
// 2.32x on sd/small. Relabeling as the file is read allocates the served
// graph, O(N) beside it and the rank remap: 1.33x.
func TestBuildFromFileAllocatesOneCSR(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's own allocations are counted")
	}
	const bound = 1.8
	g := genGraph(t, "sd", "small")
	path, ranksPath := writeGraphFile(t, g, true)
	st := NewStore(1)
	spec := BuildSpec{Name: "shard", Path: path, RanksPath: ranksPath, Technique: "dbg"}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	snap, err := st.Build(spec)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	served := snap.Graph().(*graph.Graph)
	w, _ := served.OutWeightArray()
	n, m := uint64(served.NumVertices()), uint64(served.NumEdges())
	resident := 2*8*(n+1) + 2*4*m + uint64(len(w))
	ratio := float64(after.TotalAlloc-before.TotalAlloc) / float64(resident)
	t.Logf("a Path+dbg build with a rank file allocated %.2fx the served graph's %d resident bytes", ratio, resident)
	if ratio > bound {
		t.Errorf("a Path+dbg build allocated %.2fx the served graph's resident bytes, want <= %.1fx", ratio, bound)
	}
}
