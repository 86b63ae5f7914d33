package server

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math/bits"
	"net/http"
	"slices"
	"testing"
	"time"

	"graphreorder"
	"graphreorder/internal/graph"
)

// TestDistVectorWidths checks the width in bits chosen at every boundary
// (max 0 → 1 bit, max 2^k−2 → k bits, max 2^k−1 → k+1 bits, up to
// infDistance−1 → 63 bits), the packed size 8·⌈n·w/64⌉, and that At
// reads back exactly what the int64 vector held at every index —
// including values that straddle a word boundary.
func TestDistVectorWidths(t *testing.T) {
	const inf = int64(infDistance)
	check := func(name string, dist []int64, wantW uint) {
		t.Helper()
		var maxDistance int64
		for _, dv := range dist {
			if dv != inf {
				maxDistance = max(maxDistance, dv)
			}
		}
		v := packDistances(slices.Clone(dist), maxDistance)
		wantBytes := 8 * ((int64(len(dist))*int64(wantW) + 63) / 64)
		if v.w != wantW || v.Len() != len(dist) || v.Bytes() != wantBytes {
			t.Errorf("%s: w %d len %d bytes %d, want w %d len %d bytes %d",
				name, v.w, v.Len(), v.Bytes(), wantW, len(dist), wantBytes)
		}
		for i, want := range dist {
			got, ok := v.At(i)
			if want == inf {
				want = 0
			}
			if got != want || ok != (dist[i] != inf) {
				t.Fatalf("%s: at(%d) = (%d, %v), want (%d, %v)", name, i, got, ok, want, dist[i] != inf)
			}
		}
		// A stale vector may be shorter than the vertex asked about.
		for _, i := range []int{len(dist), len(dist) + 64, -1} {
			if got, ok := v.At(i); ok || got != 0 {
				t.Errorf("%s: at(%d) = (%d, %v), want unreachable", name, i, got, ok)
			}
		}
	}
	check("empty", []int64{}, 1)
	check("single vertex", []int64{0}, 1)
	check("all unreachable", []int64{inf, inf, inf}, 1)
	check("max 0", []int64{0, inf, 0, 0, inf}, 1)
	for k := uint(2); k <= 63; k++ {
		top := int64(1)<<k - 1 // 2^k−1: the first value that needs k+1 bits
		// 70 vertices put some value across a word boundary at every w > 1.
		dist := make([]int64, 70)
		for i := range dist {
			switch i % 5 {
			case 0:
				dist[i] = inf
			case 1:
				dist[i] = top - 1
			default:
				dist[i] = int64(i*2654435761) & (top >> 1)
			}
		}
		check(fmt.Sprintf("max 2^%d-2", k), dist, k)
		if k < 63 {
			dist[3] = top
			check(fmt.Sprintf("max 2^%d-1", k), dist, k+1)
		}
	}
	check("max infDistance-1", []int64{inf - 1, 0, inf, 1 << 62, inf - 2}, 63)
}

// FuzzDistVector packs arbitrary distance vectors: data supplies the
// values, per bytes each (little-endian, 1–8, the top bit dropped), and
// every infEvery-th vertex is unreachable. At must read back every
// value, the vertex past the end must read as unreachable, and the
// vector must take exactly 8·⌈n·w/64⌉ bytes at w = bits.Len64(max+1).
func FuzzDistVector(f *testing.F) {
	f.Add([]byte{}, uint8(1), uint8(0))
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}, uint8(1), uint8(3))
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff}, uint8(8), uint8(0))
	f.Fuzz(func(t *testing.T, data []byte, per, infEvery uint8) {
		per = per%8 + 1
		var dist []int64
		var maxDistance int64
		for i := 0; len(data) > 0; i++ {
			var buf [8]byte
			data = data[copy(buf[:per], data):]
			dv := int64(binary.LittleEndian.Uint64(buf[:]) &^ (1 << 63))
			if dv == infDistance || infEvery > 0 && i%int(infEvery) == 0 {
				dv = infDistance
			} else {
				maxDistance = max(maxDistance, dv)
			}
			dist = append(dist, dv)
		}
		v := packDistances(slices.Clone(dist), maxDistance)
		w := int64(bits.Len64(uint64(maxDistance) + 1))
		if want := 8 * ((int64(len(dist))*w + 63) / 64); v.Len() != len(dist) || v.Bytes() != want {
			t.Fatalf("%d vertices at %d bits: len %d, %d B, want %d B", len(dist), w, v.Len(), v.Bytes(), want)
		}
		for i, want := range dist {
			got, ok := v.At(i)
			if want == infDistance {
				if ok || got != 0 {
					t.Fatalf("at(%d) = (%d, true), want unreachable", i, got)
				}
			} else if !ok || got != want {
				t.Fatalf("at(%d) = (%d, %v), want %d", i, got, ok, want)
			}
		}
		if got, ok := v.At(len(dist)); ok || got != 0 {
			t.Fatalf("at(len) = (%d, %v), want unreachable", got, ok)
		}
	})
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
// packed vector are byte-identical to answers read from the int64 one —
// on sd/tiny (max 143: 8 bits) and on hand graphs that need 18 and 33
// bits — and the cache holds each vector at exactly 8·⌈n·w/64⌉ bytes.
func TestSSSPTargetRepliesUnchanged(t *testing.T) {
	s := New(Config{Workers: 1, QueryTimeout: 30 * time.Second})
	dir := t.TempDir()
	hand := map[string]string{
		// 0 -> 1 -> 2 at 70000 each (max 140000: 18 bits); 3 is unreachable.
		"w18": "0 1 70000\n1 2 70000\n3 0 1\n",
		// Two hops of 2^32-1 (max 2^33-2: 33 bits); 3 is unreachable.
		"w33": "0 1 4294967295\n1 2 4294967295\n3 0 1\n",
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
	wantBits := map[string]int64{"w18": 18, "w33": 33, "sd": 8}
	var wantCache int64
	for _, name := range []string{"w18", "w33", "sd"} {
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
		if want := 8 * ((int64(n)*wantBits[name] + 63) / 64); vec.Bytes() != want {
			t.Errorf("%s: cached vector is %d B for %d vertices, want %d B (%d bits each)", name, vec.Bytes(), n, want, wantBits[name])
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
	s := New(Config{Workers: 1, MaxConcurrent: 1, QueryTimeout: 30 * time.Second})
	t.Cleanup(func() { s.store.CloseLive() })
	if _, err := s.store.Build(BuildSpec{
		Name: "live", Dataset: "uni", Scale: "tiny", Technique: "original", Mutable: true,
	}); err != nil {
		t.Fatal(err)
	}
	h := s.Handler()
	// A target query: only a vector is a target query's stale fallback.
	var warm SSSPResult
	if code := get(t, h, "/v1/query/sssp?src=0&target=0", &warm); code != http.StatusOK {
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
