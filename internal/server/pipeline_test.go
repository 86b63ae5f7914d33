package server

import (
	"context"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"graphreorder"
	"graphreorder/internal/csrz"
	"graphreorder/internal/graph"
	"graphreorder/internal/reorder"
)

// pinnedSnapshot is what a published snapshot must show: its admin view
// minus the fields that vary run to run (epoch, build time, stage timings,
// active queries), and the arrays the view only summarizes.
type pinnedSnapshot struct {
	info   SnapshotInfo
	perm   reorder.Permutation
	ranks  []float64
	owned  []bool
	mapped bool
}

// TestPublishPipelinePinned holds every snapshot a build publishes — and,
// for a mutable one, the snapshot its first write batch publishes — to the
// library calls that define it: the parsed plan (the advisor's for
// "auto") applied on the store's workers, the layout's quality report,
// PageRank on the layout (warm from the build's ranks after a write, read
// from the rank file on a shard), and the backend's space accounting from
// csrz.Encode(..).Stats(). It covers technique {original, dbg, auto} ×
// backend {plain, compressed, auto} × mutable on sd/tiny, a .csrz file
// served from its mapping and the same file made mutable, and a shard
// spec with a rank file.
func TestPublishPipelinePinned(t *testing.T) {
	const workers = 2
	kind := graph.OutDegree
	g := genGraph(t, "sd", "tiny")
	n := g.NumVertices()

	dir := t.TempDir()
	csrzPath := filepath.Join(dir, "sd.csrz")
	if err := csrz.Encode(g).WriteFile(csrzPath); err != nil {
		t.Fatal(err)
	}
	fi, err := os.Stat(csrzPath)
	if err != nil {
		t.Fatal(err)
	}
	global, err := graphreorder.Run(context.Background(), g, graphreorder.AppPR, graphreorder.WithWorkers(workers))
	if err != nil {
		t.Fatal(err)
	}
	fileOwned := make([]bool, n)
	for v := range fileOwned {
		fileOwned[v] = v%3 != 0
	}
	ranksPath := filepath.Join(dir, "ranks.bin")
	if err := WriteRankFile(ranksPath, global.Ranks(), fileOwned, global.Iterations, global.Checksum); err != nil {
		t.Fatal(err)
	}

	var specs []BuildSpec
	for _, tech := range []string{"original", "dbg", "auto"} {
		for _, backend := range []string{backendPlain, backendCompressed, backendAuto} {
			for _, mutable := range []bool{false, true} {
				specs = append(specs, BuildSpec{
					Name:      fmt.Sprintf("%s-%s-mutable=%v", tech, backend, mutable),
					Dataset:   "sd",
					Scale:     "tiny",
					Technique: tech,
					Backend:   backend,
					Mutable:   mutable,
				})
			}
		}
	}
	specs = append(specs,
		BuildSpec{Name: "csrz", Path: csrzPath},
		BuildSpec{Name: "csrz-mutable", Path: csrzPath, Mutable: true},
		BuildSpec{Name: "shard", Dataset: "sd", Scale: "tiny", Technique: "dbg", RanksPath: ranksPath},
	)

	// reference publishes layout (in the order perm gives it) as the
	// resolved backend, with the given rank run.
	reference := func(spec BuildSpec, layout *graph.Graph, perm reorder.Permutation, backend string,
		ranks []float64, iters int, checksum float64) pinnedSnapshot {
		t.Helper()
		techName := strings.ToLower(spec.Technique)
		if techName == "" {
			techName = "original"
		}
		source := "dataset:sd/tiny"
		if spec.Path != "" {
			source = "file:" + spec.Path
		}
		quality := reorder.Evaluate(layout, kind, nil)
		if backend == backendAuto {
			backend = backendPlain
			if quality.PredictedRatio >= autoCompressMinRatio {
				backend = backendCompressed
			}
		}
		want := pinnedSnapshot{
			info: SnapshotInfo{
				Name:         spec.Name,
				Current:      true,
				Vertices:     layout.NumVertices(),
				Edges:        layout.NumEdges(),
				Weighted:     layout.Weighted(),
				Technique:    techName,
				Degree:       kind.String(),
				Source:       source,
				Mutable:      spec.Mutable,
				Backend:      backend,
				RankIters:    iters,
				Quality:      qualityInfo(quality),
				RankChecksum: checksum,
			},
			perm:  perm,
			ranks: ranks,
		}
		if backend == backendCompressed {
			cs := csrz.Encode(layout).Stats()
			want.info.ResidentAdjBytes = cs.CompressedAdjBytes
			want.info.PlainAdjBytes = cs.PlainAdjBytes
			want.info.CompressionRatio = cs.Ratio
		} else {
			want.info.PlainAdjBytes = int64(layout.NumEdges()) * 8
			want.info.ResidentAdjBytes = want.info.PlainAdjBytes
			want.info.CompressionRatio = 1
		}
		if techName == "auto" {
			rec := reorder.Advise(g, kind)
			want.info.Advised, want.info.AdviceReason = rec.Spec, rec.Reason
		}
		return want
	}
	pageRank := func(layout *graph.Graph, warm []float64) *graphreorder.Result {
		t.Helper()
		run, err := graphreorder.Run(context.Background(), layout, graphreorder.AppPR,
			graphreorder.WithWorkers(workers), graphreorder.WithInitialRanks(warm))
		if err != nil {
			t.Fatal(err)
		}
		return run
	}
	check := func(t *testing.T, st *Store, name string, want pinnedSnapshot) {
		t.Helper()
		got, ok := st.Info(name)
		if !ok {
			t.Fatalf("snapshot %q missing", name)
		}
		got.Epoch, got.Built, got.ActiveQueries = 0, "", 0
		got.LoadMs, got.ReorderMs, got.RebuildMs, got.PrecomputeMs = 0, 0, 0, 0
		if !reflect.DeepEqual(got, want.info) {
			t.Errorf("info:\n got %+v\nwant %+v", got, want.info)
		}
		snap, release := st.AcquireNamed(name)
		if snap == nil {
			t.Fatalf("snapshot %q not acquirable", name)
		}
		defer release()
		if !slices.Equal(snap.perm, want.perm) || (snap.perm == nil) != (want.perm == nil) {
			t.Errorf("permutation differs from the reference (nil: got %v, want %v)", snap.perm == nil, want.perm == nil)
		}
		if !slices.Equal(snap.ranks, want.ranks) {
			t.Error("ranks differ from the reference")
		}
		if !slices.Equal(snap.owned, want.owned) {
			t.Error("owned set differs from the reference")
		}
		if snap.mmapBacked() != want.mapped {
			t.Errorf("mmap-backed = %v, want %v", snap.mmapBacked(), want.mapped)
		}
	}

	batch := []MutateUpdate{{Src: 0, Dst: graph.VertexID(n - 1), Weight: 3}, {Src: 1, Dst: 2, Weight: 5}, {Src: graph.VertexID(n - 1), Dst: 0, Weight: 7}}
	for _, spec := range specs {
		t.Run(spec.Name, func(t *testing.T) {
			s := New(Config{Workers: workers, QueryTimeout: 30 * time.Second})
			t.Cleanup(s.store.CloseLive)
			if _, err := s.store.Build(spec); err != nil {
				t.Fatal(err)
			}

			var plan *reorder.Plan
			switch tech := strings.ToLower(spec.Technique); tech {
			case "auto":
				plan = reorder.Advise(g, kind).Plan
			case "":
				plan = reorder.Compose()
			default:
				if plan, err = reorder.ParsePlan(tech); err != nil {
					t.Fatal(err)
				}
			}
			layout, perm := g, reorder.Permutation(nil)
			if len(plan.Stages()) > 0 {
				res, err := plan.ApplyWorkers(g, kind, workers)
				if err != nil {
					t.Fatal(err)
				}
				layout, perm = res.Graph, res.Perm
			}
			backend := spec.Backend
			if backend == "" {
				backend = backendPlain
				if spec.Path != "" {
					backend = backendCompressed
				}
			}
			var want pinnedSnapshot
			if spec.RanksPath != "" {
				ranks, owned := make([]float64, n), make([]bool, n)
				for o, c := range perm {
					ranks[c], owned[c] = global.Ranks()[o], fileOwned[o]
				}
				want = reference(spec, layout, perm, backend, ranks, global.Iterations, global.Checksum)
				want.owned = owned
			} else {
				run := pageRank(layout, nil)
				want = reference(spec, layout, perm, backend, run.Ranks(), run.Iterations, run.Checksum)
			}
			if want.mapped = spec.Path != "" && !spec.Mutable; want.mapped {
				want.info.OnDiskBytes = fi.Size()
			}
			check(t, s.store, spec.Name, want)
			if !spec.Mutable {
				return
			}

			// One write batch: the refresher publishes the mutated graph
			// under the build's permutation (the identity for an
			// unreordered build), ranks warm from the build's.
			var res MutateResult
			if code, body := postJSON(t, s.Handler(), "/v1/snapshots/"+spec.Name+"/edges", MutateRequest{Updates: batch}, &res); code != http.StatusOK {
				t.Fatalf("write: %d %s", code, body)
			}
			if res.Refreshed {
				t.Fatal("the first batch refreshed the ordering")
			}
			edges := g.Edges()
			for _, u := range batch {
				edges = append(edges, graph.Edge{Src: u.Src, Dst: u.Dst, Weight: u.Weight})
			}
			mutated, err := graph.BuildWith(edges, graph.BuildOptions{NumVertices: n, Weighted: g.Weighted(), SortNeighbors: true})
			if err != nil {
				t.Fatal(err)
			}
			livePerm := perm
			if livePerm == nil {
				livePerm = reorder.Identity(n)
			}
			layout2, err := mutated.RelabelWorkers(livePerm, workers)
			if err != nil {
				t.Fatal(err)
			}
			run := pageRank(layout2, want.ranks)
			want2 := reference(spec, layout2, livePerm, want.info.Backend, run.Ranks(), run.Iterations, run.Checksum)
			check(t, s.store, spec.Name, want2)
		})
	}
}
