package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"slices"
	"testing"
	"time"

	"graphreorder"
	"graphreorder/internal/graph"
)

// TestDistVectorWidths checks the width chosen at each boundary and that
// At reads back exactly what the int64 vector held, at every index.
func TestDistVectorWidths(t *testing.T) {
	const inf = int64(infDistance)
	cases := []struct {
		name  string
		dist  []int64
		width int64 // bytes per vertex
	}{
		{"empty", []int64{}, 2},
		{"single vertex", []int64{0}, 2},
		{"all unreachable", []int64{inf, inf, inf}, 2},
		{"max 65534", []int64{0, 65534, inf, 7}, 2},
		{"max 65535", []int64{0, 65535, inf, 7}, 4},
		{"max 2^32-2", []int64{0, math.MaxUint32 - 1, inf, 65535}, 4},
		{"max 2^32-1", []int64{0, math.MaxUint32, inf, 65535}, 8},
		{"max 2^40", []int64{1 << 40, inf, 0}, 8},
	}
	for _, c := range cases {
		var maxDistance int64
		for _, dv := range c.dist {
			if dv != inf {
				maxDistance = max(maxDistance, dv)
			}
		}
		v := packDistances(slices.Clone(c.dist), maxDistance)
		if v.Len() != len(c.dist) || v.Bytes() != c.width*int64(len(c.dist)) {
			t.Errorf("%s: len %d bytes %d, want %d vertices at %d B", c.name, v.Len(), v.Bytes(), len(c.dist), c.width)
		}
		populated := map[int64]bool{2: v.u16 != nil, 4: v.u32 != nil, 8: v.i64 != nil}
		if len(c.dist) > 0 && !populated[c.width] {
			t.Errorf("%s: wrong slice populated: %+v", c.name, v)
		}
		for i, want := range c.dist {
			got, ok := v.At(i)
			if want == inf {
				want = 0
			}
			if got != want || ok != (c.dist[i] != inf) {
				t.Errorf("%s: at(%d) = (%d, %v), want (%d, %v)", c.name, i, got, ok, want, c.dist[i] != inf)
			}
		}
		// A stale vector may be shorter than the vertex asked about.
		if got, ok := v.At(len(c.dist)); ok || got != 0 {
			t.Errorf("%s: at(len) = (%d, %v), want unreachable", c.name, got, ok)
		}
	}
}

// wideTargetReply renders the ?target= reply the way the handler did when
// the cache held the engine's []int64 itself.
func wideTargetReply(t *testing.T, snap *Snapshot, src, target graph.VertexID, cached bool) []byte {
	t.Helper()
	res, err := graphreorder.Run(context.Background(), snap.graph, graphreorder.AppSSSP,
		graphreorder.WithRoot(src), graphreorder.WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	dist := res.Distances()
	sum := SSSPResult{QueryMeta: metaFor(snap), Source: src, Rounds: res.Iterations}
	sum.Cached = cached
	for _, dv := range dist {
		if dv == infDistance {
			sum.Unreachable++
		} else {
			sum.Reached++
			sum.MaxDistance = max(sum.MaxDistance, dv)
		}
	}
	reply := SSSPTargetResult{SSSPResult: sum, Target: target}
	if dv := dist[target]; dv != infDistance {
		reply.Reachable, reply.Distance = true, dv
	}
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(reply); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestSSSPTargetRepliesUnchanged: ?target= answers read through the
// narrow vector are byte-identical to answers read from the int64 one —
// on sd/tiny (uint16) and on hand graphs that need uint32 and int64.
func TestSSSPTargetRepliesUnchanged(t *testing.T) {
	s := New(Config{Workers: 1, QueryTimeout: 30 * time.Second})
	dir := t.TempDir()
	hand := map[string]string{
		// 0 -> 1 -> 2 at 70000 each (max 140000: uint32); 3 is unreachable.
		"u32": "0 1 70000\n1 2 70000\n3 0 1\n",
		// Two hops of 2^32-1 (max 2^33-2: int64); 3 is unreachable.
		"i64": "0 1 4294967295\n1 2 4294967295\n3 0 1\n",
	}
	for name, text := range hand {
		if err := writeFile(dir+"/"+name+".txt", text); err != nil {
			t.Fatal(err)
		}
		if _, err := s.store.Build(BuildSpec{Name: name, Path: dir + "/" + name + ".txt"}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.store.Build(BuildSpec{Name: "sd", Dataset: "sd", Scale: "tiny", Technique: "dbg"}); err != nil {
		t.Fatal(err)
	}
	h := s.Handler()
	wantBytes := map[string]int64{"u32": 4, "i64": 8, "sd": 2}
	var wantCache int64
	for _, name := range []string{"u32", "i64", "sd"} {
		snap := s.store.tab.Load().byName[name]
		n := snap.graph.NumVertices()
		targets := []int{0, 1, 2, 3}
		if name == "sd" {
			targets = []int{0, 1, n / 3, n / 2, n - 1}
		}
		for i, target := range targets {
			code, body := do(t, h, "GET", fmt.Sprintf("/v1/query/sssp?snapshot=%s&src=0&target=%d", name, target), "")
			if code != http.StatusOK {
				t.Fatalf("%s target %d: %d %s", name, target, code, body)
			}
			if want := wideTargetReply(t, snap, 0, graph.VertexID(target), i > 0); body != string(want) {
				t.Errorf("%s target %d:\n got %s want %s", name, target, body, want)
			}
		}
		// Entries are keyed by the source's original ID.
		kind := fmt.Sprintf("sssp|%d", idSpace{snap: snap, orig: true}.out(0))
		key := fmt.Sprintf("%d|%s", snap.epoch, kind)
		v, ok := s.cache.Get(key)
		if !ok {
			t.Fatalf("%s: SSSP result not cached", name)
		}
		vec := v.(ssspEntry).Dist
		if vec.Bytes() != wantBytes[name]*int64(n) {
			t.Errorf("%s: cached vector is %d B for %d vertices, want %d B/vertex", name, vec.Bytes(), n, wantBytes[name])
		}
		wantCache += EntryCost(key, kind, vec.Bytes())
	}
	// The cache is charged what it holds, and /metrics reports that figure.
	var rep MetricsReport
	get(t, h, "/metrics", &rep)
	if rep.Cache.Bytes != wantCache || s.cache.Bytes() != wantCache {
		t.Errorf("cache bytes: /metrics %d, cache %d, want %d", rep.Cache.Bytes, s.cache.Bytes(), wantCache)
	}
}

// TestStaleSSSPVectorShorterThanTarget: a vector cached before the vertex
// space grew, served stale for a target it predates, answers "unreachable"
// instead of reading past its end.
func TestStaleSSSPVectorShorterThanTarget(t *testing.T) {
	s := New(Config{Workers: 1, MaxConcurrent: 1, QueryTimeout: 30 * time.Second, RefreshEvery: 1000})
	t.Cleanup(func() { s.store.CloseLive() })
	if _, err := s.store.Build(BuildSpec{
		Name: "live", Dataset: "uni", Scale: "tiny", Technique: "original", Mutable: true,
	}); err != nil {
		t.Fatal(err)
	}
	h := s.Handler()
	var warm SSSPResult
	if code := get(t, h, "/v1/query/sssp?src=0", &warm); code != http.StatusOK {
		t.Fatal("warmup sssp failed")
	}
	newVertex := warm.Vertices
	var res MutateResult
	if code, body := postJSON(t, h, "/v1/snapshots/live/edges", MutateRequest{
		AddVertices: 1,
		Updates:     []MutateUpdate{{Src: 0, Dst: graph.VertexID(newVertex), Weight: 1}},
	}, &res); code != http.StatusOK {
		t.Fatalf("mutate: %d %s", code, body)
	}

	// Saturate the one-slot pool so fresh compute is shed.
	for i := 0; i < 4; i++ {
		s.pool.observe(300 * time.Millisecond)
	}
	if err := s.pool.acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	defer s.pool.release()
	var degraded SSSPTargetResult
	code, body, _ := getWithDeadline(t, h, fmt.Sprintf("/v1/query/sssp?src=0&target=%d", newVertex), 50*time.Millisecond, &degraded)
	if code != http.StatusOK {
		t.Fatalf("degraded status = %d %s, want 200 (stale fallback cached)", code, body)
	}
	if !degraded.Stale || degraded.Epoch != warm.Epoch || degraded.Vertices != newVertex {
		t.Fatalf("not the pre-growth vector served stale: %+v", degraded)
	}
	if degraded.Reachable || degraded.Distance != 0 {
		t.Errorf("target past the stale vector's end: reachable=%v distance=%d, want unreachable",
			degraded.Reachable, degraded.Distance)
	}
}

// TestQueryNeighborsLimit checks the bounded copy against the former
// translate-everything-sort-truncate rule in both ID spaces.
func TestQueryNeighborsLimit(t *testing.T) {
	s := New(Config{Workers: 1})
	if _, err := s.store.Build(BuildSpec{Name: "sd", Dataset: "sd", Scale: "tiny", Technique: "dbg"}); err != nil {
		t.Fatal(err)
	}
	snap := s.store.Current()
	if snap.perm == nil {
		t.Fatal("snapshot was not reordered; the orig-space half would be vacuous")
	}
	g := snap.graph
	n := g.NumVertices()
	hub := graph.VertexID(0)
	for v := 0; v < n; v++ {
		if g.OutDegree(graph.VertexID(v)) > g.OutDegree(hub) {
			hub = graph.VertexID(v)
		}
	}
	for _, orig := range []bool{false, true} {
		sp := idSpace{snap: snap, orig: orig}
		for _, cur := range []graph.VertexID{hub, 0, 1, graph.VertexID(n / 2), graph.VertexID(n - 1)} {
			v := sp.out(cur)
			for _, dir := range []string{"out", "in"} {
				nbrs := g.OutNeighbors(cur)
				if dir == "in" {
					nbrs = g.InNeighbors(cur)
				}
				all := make([]graph.VertexID, len(nbrs))
				for i, nb := range nbrs {
					all[i] = sp.out(nb)
				}
				if orig {
					slices.Sort(all)
				}
				for _, limit := range []int{0, 1, 2, 3, 32, len(all) - 1, len(all), len(all) + 1} {
					want, truncated := all, false
					if limit > 0 && len(all) > limit {
						want, truncated = all[:limit], true
					}
					got, err := queryNeighbors(sp, v, dir, limit)
					if err != nil {
						t.Fatal(err)
					}
					if got.Degree != len(all) || got.Truncated != truncated || !slices.Equal(got.Neighbors, want) {
						t.Fatalf("orig=%v v=%d dir=%s limit=%d: degree %d truncated %v neighbors %v, want %d %v %v",
							orig, v, dir, limit, got.Degree, got.Truncated, got.Neighbors, len(all), truncated, want)
					}
				}
			}
		}
	}
}
