package server

import (
	"context"
	"fmt"
	"net/http/httptest"
	"path/filepath"
	"testing"
	"time"

	"graphreorder"
	"graphreorder/internal/gen"
	"graphreorder/internal/graph"
	"graphreorder/internal/reorder"
)

func genGraph(t *testing.T, name, scale string) *graph.Graph {
	t.Helper()
	s, err := gen.ParseScale(scale)
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := gen.Dataset(name, s)
	if err != nil {
		t.Fatal(err)
	}
	g, err := gen.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestRankFileRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "ranks.bin")
	ranks := []float64{0.5, 0.25, 0.125, 0.0625, 0.03125}
	owned := []bool{true, false, true, true, false}
	if err := WriteRankFile(path, ranks, owned, 17, 1.0); err != nil {
		t.Fatal(err)
	}
	rf, err := readRankFile(path, len(ranks))
	if err != nil {
		t.Fatal(err)
	}
	if rf.iters != 17 || rf.checksum != 1.0 {
		t.Errorf("iters/checksum = %d/%v, want 17/1", rf.iters, rf.checksum)
	}
	for i := range ranks {
		if rf.ranks[i] != ranks[i] || rf.owned[i] != owned[i] {
			t.Errorf("vertex %d: got (%v,%v), want (%v,%v)", i, rf.ranks[i], rf.owned[i], ranks[i], owned[i])
		}
	}
	// Mismatched vertex count must be rejected.
	if _, err := readRankFile(path, len(ranks)+1); err == nil {
		t.Error("size mismatch accepted")
	}
	// Length mismatch at write time.
	if err := WriteRankFile(path, ranks, owned[:2], 1, 0); err == nil {
		t.Error("ranks/owned length mismatch accepted")
	}
}

// shardTestServer builds two snapshots of the same sd/tiny graph: "plain"
// serves the original order with locally computed ranks, "shard" is
// dbg-reordered with ranks loaded from a rank file written off the same
// global PageRank run the plain build performs (Workers must match for
// bitwise equality). allOwned controls the shard's owned set.
func shardTestServer(t *testing.T, owned []bool) (*Server, *graph.Graph) {
	t.Helper()
	g := genGraph(t, "sd", "tiny")
	run, err := graphreorder.Run(context.Background(), g, graphreorder.AppPR, graphreorder.WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	if owned == nil {
		owned = make([]bool, g.NumVertices())
		for i := range owned {
			owned[i] = true
		}
	}
	path := filepath.Join(t.TempDir(), "ranks.bin")
	if err := WriteRankFile(path, run.Ranks(), owned, run.Iterations, run.Checksum); err != nil {
		t.Fatal(err)
	}
	s := New(Config{Workers: 1, QueryTimeout: 30 * time.Second, AllowPathLoads: true})
	if _, err := s.store.Build(BuildSpec{Name: "plain", Dataset: "sd", Scale: "tiny"}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.store.Build(BuildSpec{Name: "shard", Dataset: "sd", Scale: "tiny", Technique: "dbg", RanksPath: path}); err != nil {
		t.Fatal(err)
	}
	return s, g
}

// TestOrigSpaceEquivalence is the single-node form of the cluster
// equivalence contract: a reordered shard queried with ?ids=orig must
// answer bit-identically to an original-order snapshot of the same
// graph.
func TestOrigSpaceEquivalence(t *testing.T) {
	s, g := shardTestServer(t, nil)
	h := s.Handler()
	shard := s.store.tab.Load().byName["shard"]
	if shard.perm == nil {
		t.Fatal("shard snapshot was not reordered; the test would be vacuous")
	}
	if !shard.externalRanks {
		t.Fatal("shard snapshot did not load external ranks")
	}

	type nbResp struct {
		Vertex    uint32   `json:"vertex"`
		Degree    int      `json:"degree"`
		Neighbors []uint32 `json:"neighbors"`
	}
	type rankResp struct {
		Vertex uint32  `json:"vertex"`
		Rank   float64 `json:"rank"`
		Iters  int     `json:"iters"`
	}
	for _, v := range []int{0, 1, 7, g.NumVertices() - 1} {
		var pn, sn nbResp
		if code := get(t, h, fmt.Sprintf("/v1/query/neighbors?snapshot=plain&v=%d", v), &pn); code != 200 {
			t.Fatalf("plain neighbors v=%d: %d", v, code)
		}
		if code := get(t, h, fmt.Sprintf("/v1/query/neighbors?snapshot=shard&ids=orig&v=%d", v), &sn); code != 200 {
			t.Fatalf("shard neighbors v=%d: %d", v, code)
		}
		if pn.Vertex != sn.Vertex || pn.Degree != sn.Degree || len(pn.Neighbors) != len(sn.Neighbors) {
			t.Fatalf("v=%d: plain %+v vs shard %+v", v, pn, sn)
		}
		for i := range pn.Neighbors {
			if pn.Neighbors[i] != sn.Neighbors[i] {
				t.Fatalf("v=%d neighbor %d: %d vs %d", v, i, pn.Neighbors[i], sn.Neighbors[i])
			}
		}
		var pr, sr rankResp
		get(t, h, fmt.Sprintf("/v1/query/rank?snapshot=plain&v=%d", v), &pr)
		get(t, h, fmt.Sprintf("/v1/query/rank?snapshot=shard&ids=orig&v=%d", v), &sr)
		if pr.Rank != sr.Rank || pr.Vertex != sr.Vertex {
			t.Errorf("rank v=%d: plain (%d,%v) vs shard (%d,%v)", v, pr.Vertex, pr.Rank, sr.Vertex, sr.Rank)
		}
	}

	type topResp struct {
		Top []struct {
			Vertex uint32  `json:"vertex"`
			Rank   float64 `json:"rank"`
		} `json:"top"`
	}
	var pt, st topResp
	if code := get(t, h, "/v1/query/topk?snapshot=plain&k=10", &pt); code != 200 {
		t.Fatal("plain topk failed")
	}
	if code := get(t, h, "/v1/query/topk?snapshot=shard&ids=orig&k=10", &st); code != 200 {
		t.Fatal("shard topk failed")
	}
	if len(pt.Top) != len(st.Top) {
		t.Fatalf("topk sizes: %d vs %d", len(pt.Top), len(st.Top))
	}
	for i := range pt.Top {
		if pt.Top[i] != st.Top[i] {
			t.Errorf("topk[%d]: plain %+v vs shard %+v", i, pt.Top[i], st.Top[i])
		}
	}

	type ssspResp struct {
		Reached     int   `json:"reached"`
		Unreachable int   `json:"unreachable"`
		MaxDistance int64 `json:"max_distance"`
		Reachable   bool  `json:"reachable"`
		Distance    int64 `json:"distance"`
	}
	var ps, ss ssspResp
	target := g.NumVertices() / 2
	if code := get(t, h, fmt.Sprintf("/v1/query/sssp?snapshot=plain&src=0&target=%d", target), &ps); code != 200 {
		t.Fatal("plain sssp failed")
	}
	if code := get(t, h, fmt.Sprintf("/v1/query/sssp?snapshot=shard&ids=orig&src=0&target=%d", target), &ss); code != 200 {
		t.Fatal("shard sssp failed")
	}
	// Rounds are ordering-dependent (in-round propagation) and excluded;
	// distances are unique and must match exactly.
	if ps.Reached != ss.Reached || ps.Unreachable != ss.Unreachable || ps.MaxDistance != ss.MaxDistance {
		t.Errorf("sssp summary: plain %+v vs shard %+v", ps, ss)
	}
	if ps.Reachable != ss.Reachable || ps.Distance != ss.Distance {
		t.Errorf("sssp target: plain %+v vs shard %+v", ps, ss)
	}

	// The two wire spaces must not share top-k cache entries.
	var cur topResp
	if code := get(t, h, "/v1/query/topk?snapshot=shard&k=10", &cur); code != 200 {
		t.Fatal("current-space topk failed")
	}
	same := len(cur.Top) == len(st.Top)
	if same {
		for i := range cur.Top {
			if cur.Top[i].Vertex != st.Top[i].Vertex {
				same = false
				break
			}
		}
	}
	if same {
		t.Error("current-space topk returned orig-space vertex IDs (cache collision?)")
	}
}

func TestBuildRejectsBadRanksPath(t *testing.T) {
	s := New(Config{Workers: 1})
	_, err := s.store.Build(BuildSpec{Name: "x", Dataset: "sd", Scale: "tiny",
		RanksPath: filepath.Join(t.TempDir(), "missing.bin"), Mutable: true})
	if err == nil {
		t.Error("mutable ranks_path build accepted")
	}
	_, err = s.store.Build(BuildSpec{Name: "x", Dataset: "sd", Scale: "tiny",
		RanksPath: filepath.Join(t.TempDir(), "missing.bin")})
	if err == nil {
		t.Error("missing rank file accepted")
	}
}

func TestTopKOwnedFilter(t *testing.T) {
	ranks := []float64{0.1, 0.5, 0.3, 0.5, 0.2}
	owned := []bool{true, false, true, true, true}
	got := topKRanksIn(idSpace{}, ranks, owned, 3)
	// Vertex 1 (rank 0.5) is not owned: the winner is 3, then 2, then 4.
	want := []RankedVertex{{Vertex: 3, Rank: 0.5}, {Vertex: 2, Rank: 0.3}, {Vertex: 4, Rank: 0.2}}
	if len(got) != len(want) {
		t.Fatalf("got %d entries, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("[%d] = %+v, want %+v", i, got[i], want[i])
		}
	}
	// Owned filter with fewer owned vertices than k returns what exists.
	if got := topKRanksIn(idSpace{}, ranks, []bool{false, false, true, false, false}, 3); len(got) != 1 || got[0].Vertex != 2 {
		t.Errorf("scarce owned set: %+v", got)
	}
	// Orig-space tie-break: vertices 1 and 3 tie; in a space where their
	// wire IDs swap, the other one must win.
	perm := reorder.Permutation{0, 3, 2, 1, 4} // orig->current: 1<->3 swapped
	snap := &Snapshot{perm: perm}
	sp := idSpace{snap: snap, orig: true}
	got = topKRanksIn(sp, ranks, nil, 1)
	// Current 1 has rank 0.5 and wire ID inv[1]=3; current 3 has rank 0.5
	// and wire ID inv[3]=1 — the lower wire ID (1) must win.
	if len(got) != 1 || got[0].Vertex != 1 {
		t.Errorf("orig-space tie-break: %+v", got)
	}
}

func TestShardRelax(t *testing.T) {
	s, g := shardTestServer(t, nil)
	h := s.Handler()
	const url = "/v1/shard/relax?snapshot=shard"
	post := func(f RelaxFrame) (int, string) {
		return do(t, h, "POST", url, string(f.AppendTo(nil)))
	}

	// Relaxing vertex 0 at distance 0 must yield exactly orig-vertex 0's
	// out-edges with their weights as distances, minimized per target,
	// ascending (the decoder rejects anything else).
	code, body := post(RelaxFrame{IDs: []graph.VertexID{0}, Dists: []int64{0}})
	if code != 200 {
		t.Fatalf("relax: %d %s", code, body)
	}
	var rr RelaxFrame
	if err := rr.Decode([]byte(body), g.NumVertices()); err != nil {
		t.Fatal(err)
	}
	nbrs, wts := g.OutNeighbors(0), g.OutWeightList(0).Append(nil)
	want := map[graph.VertexID]int64{}
	for i, nb := range nbrs {
		d := int64(wts[i])
		if b, ok := want[nb]; !ok || d < b {
			want[nb] = d
		}
	}
	if rr.Relaxed != uint64(len(nbrs)) {
		t.Errorf("relaxed %d edges, want %d", rr.Relaxed, len(nbrs))
	}
	if len(rr.IDs) != len(want) {
		t.Fatalf("%d candidates, want %d", len(rr.IDs), len(want))
	}
	for i, v := range rr.IDs {
		if d, ok := want[v]; !ok || d != rr.Dists[i] {
			t.Errorf("candidate (%d, %d), want distance %d", v, rr.Dists[i], want[v])
		}
	}

	// Bad inputs.
	if code, _ := post(RelaxFrame{IDs: []graph.VertexID{999999999}, Dists: []int64{0}}); code != 400 {
		t.Errorf("out-of-range frontier: %d", code)
	}
	if code, _ := do(t, h, "POST", url, "not a frame"); code != 400 {
		t.Errorf("malformed frame: %d", code)
	}
}

// TestRelaxAtEveryWeightWidth holds the relax kernel, which reads weights
// in place, to the minimum over each target's decoded in-edges at each
// stored width: the largest weight is 63 (one byte), 65535 (two) and
// 65536 (four).
func TestRelaxAtEveryWeightWidth(t *testing.T) {
	for _, maxW := range []uint32{63, 65535, 65536} {
		const n = 200
		var edges []graph.Edge
		for v := range graph.VertexID(n) {
			for i := range graph.VertexID(5) {
				w := 1 + (uint32(v)*7919+uint32(i)*104729)%maxW
				edges = append(edges, graph.Edge{Src: v, Dst: (v*31 + i*17) % n, Weight: w})
			}
		}
		edges[len(edges)/2].Weight = maxW
		g, err := graph.Build(edges)
		if err != nil {
			t.Fatal(err)
		}
		var sc relaxScratch
		for v := range graph.VertexID(n / 2) {
			sc.in.IDs = append(sc.in.IDs, 2*v)
			sc.in.Dists = append(sc.in.Dists, int64(v))
		}
		sc.relax(g, nil, nil)
		want := map[graph.VertexID]int64{}
		for i, v := range sc.in.IDs {
			for j, w := range g.OutWeightList(v).Append(nil) {
				nb, d := g.OutNeighbors(v)[j], sc.in.Dists[i]+int64(w)
				if b, ok := want[nb]; !ok || d < b {
					want[nb] = d
				}
			}
		}
		if len(sc.out.IDs) != len(want) {
			t.Fatalf("max weight %d: %d candidates, want %d", maxW, len(sc.out.IDs), len(want))
		}
		for i, v := range sc.out.IDs {
			if d := sc.out.Dists[i]; d != want[v] {
				t.Errorf("max weight %d: candidate (%d, %d), want distance %d", maxW, v, d, want[v])
			}
		}
	}
}

func TestTraceIDAdoptionAcrossHop(t *testing.T) {
	s := testServer(t)
	h := s.Handler()

	const inbound = "00ff00ff00ff00ff"
	req := httptest.NewRequest("GET", "/healthz", nil)
	req.Header.Set("X-Trace-Id", inbound)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if got := rec.Header().Get("X-Trace-Id"); got != inbound {
		t.Errorf("forwarded trace ID not adopted: got %q, want %q", got, inbound)
	}

	req = httptest.NewRequest("GET", "/healthz", nil)
	req.Header.Set("X-Trace-Id", "not-a-trace-id!")
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if got := rec.Header().Get("X-Trace-Id"); got == "" || got == "not-a-trace-id!" {
		t.Errorf("malformed inbound ID not replaced: %q", got)
	}
}
