package server

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
	"weak"

	"graphreorder/internal/graph"
	"graphreorder/internal/reorder"
	"graphreorder/internal/rng"
)

// liveServer builds one mutable snapshot named "live".
func liveServer(t *testing.T, technique string) *Server {
	t.Helper()
	s := New(Config{Workers: 1, QueryTimeout: 30 * time.Second})
	t.Cleanup(func() { s.store.CloseLive() })
	if _, err := s.store.Build(BuildSpec{
		Name: "live", Dataset: "uni", Scale: "tiny", Technique: technique, Mutable: true,
	}); err != nil {
		t.Fatal(err)
	}
	return s
}

func postJSON(t *testing.T, h http.Handler, url string, body any, out any) (int, string) {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	req := httptest.NewRequest("POST", url, strings.NewReader(string(raw)))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if out != nil && rec.Code == http.StatusOK {
		if err := json.Unmarshal(rec.Body.Bytes(), out); err != nil {
			t.Fatalf("POST %s: bad JSON %q: %v", url, rec.Body.String(), err)
		}
	}
	return rec.Code, rec.Body.String()
}

// TestMutateInsertVisibleAfterPublish proves read-your-writes: once the
// receipt arrives, the published snapshot at the receipt's epoch (or
// newer) contains the batch.
func TestMutateInsertVisibleAfterPublish(t *testing.T) {
	s := liveServer(t, "original") // relabel path only
	h := s.Handler()
	var info SnapshotInfo
	if code := get(t, h, "/v1/snapshots/live", &info); code != http.StatusOK {
		t.Fatal("info failed")
	}
	if !info.Mutable {
		t.Fatal("snapshot not marked mutable")
	}
	m0, e0 := info.Edges, info.Epoch

	var res MutateResult
	code, body := postJSON(t, h, "/v1/snapshots/live/edges", MutateRequest{
		Updates: []MutateUpdate{
			{Src: 0, Dst: 1, Weight: 2},
			{Src: 0, Dst: 2, Weight: 3},
		},
	}, &res)
	if code != http.StatusOK {
		t.Fatalf("mutate: %d %s", code, body)
	}
	if res.Epoch <= e0 {
		t.Errorf("epoch not bumped: %d -> %d", e0, res.Epoch)
	}
	if res.Edges != m0+2 || res.Applied != 2 || res.Batch != 1 {
		t.Errorf("receipt: %+v (want edges %d)", res, m0+2)
	}

	// The published table now serves the new snapshot.
	var after SnapshotInfo
	get(t, h, "/v1/snapshots/live", &after)
	if after.Epoch != res.Epoch || after.Edges != res.Edges {
		t.Fatalf("published info (epoch %d, edges %d) does not match receipt (%d, %d)",
			after.Epoch, after.Edges, res.Epoch, res.Edges)
	}
	// Technique "original": IDs are stable, so vertex 0 gained out-edges.
	var deg struct {
		Epoch  uint64 `json:"epoch"`
		Degree int    `json:"degree"`
	}
	if code := get(t, h, "/v1/query/degree?v=0&snapshot=live", &deg); code != http.StatusOK {
		t.Fatal("degree query failed")
	}
	if deg.Epoch < res.Epoch {
		t.Errorf("read served pre-publish epoch %d < %d", deg.Epoch, res.Epoch)
	}
	if deg.Degree < 2 {
		t.Errorf("inserted edges missing: out-degree %d", deg.Degree)
	}
}

// TestMutateReorderedSnapshotRelabels exercises the stale-permutation
// relabel path on a DBG-ordered snapshot and checks the /resolve
// contract: mutations use original IDs, queries the serving order.
func TestMutateReorderedSnapshotRelabels(t *testing.T) {
	s := liveServer(t, "dbg")
	h := s.Handler()

	var res MutateResult
	code, body := postJSON(t, h, "/v1/snapshots/live/edges", MutateRequest{
		Updates: []MutateUpdate{{Src: 3, Dst: 4, Weight: 1}, {Src: 3, Dst: 5, Weight: 1}, {Src: 3, Dst: 6, Weight: 1}},
	}, &res)
	if code != http.StatusOK {
		t.Fatalf("mutate: %d %s", code, body)
	}
	if res.Refreshed {
		t.Error("first batch should patch, not re-reorder: the build's packing had not decayed")
	}
	// Resolve original ID 3 into the new serving order and check the
	// edges are there.
	var resolved struct {
		Epoch   uint64         `json:"epoch"`
		Current graph.VertexID `json:"current"`
	}
	if code := get(t, h, "/v1/snapshots/live/resolve?v=3", &resolved); code != http.StatusOK {
		t.Fatal("resolve failed")
	}
	if resolved.Epoch != res.Epoch {
		t.Fatalf("resolve epoch %d, receipt %d", resolved.Epoch, res.Epoch)
	}
	var nbrs struct {
		Epoch  uint64 `json:"epoch"`
		Degree int    `json:"degree"`
	}
	url := fmt.Sprintf("/v1/query/neighbors?v=%d&snapshot=live", resolved.Current)
	if code := get(t, h, url, &nbrs); code != http.StatusOK {
		t.Fatal("neighbors failed")
	}
	if nbrs.Degree < 3 {
		t.Errorf("resolved vertex has out-degree %d, want >= 3", nbrs.Degree)
	}
	// The snapshot's rank checksum survives relabeling (ordering-invariant).
	var info SnapshotInfo
	get(t, h, "/v1/snapshots/live", &info)
	if info.RankChecksum == 0 {
		t.Error("published live snapshot has no precomputed ranks")
	}
}

// TestMutatePolicyRefresh drives five batches, the third and fifth of
// which grow the vertex space and so re-reorder, and checks the
// refresh/patch split the receipts report against /metrics.
func TestMutatePolicyRefresh(t *testing.T) {
	s := liveServer(t, "dbg")
	h := s.Handler()
	refreshes := uint64(0)
	for i := 0; i < 5; i++ {
		grow := 0
		if i == 2 || i == 4 {
			grow = 1
		}
		var res MutateResult
		code, body := postJSON(t, h, "/v1/snapshots/live/edges", MutateRequest{
			AddVertices: grow,
			Updates:     []MutateUpdate{{Src: graph.VertexID(i), Dst: graph.VertexID(i + 1), Weight: 1}},
		}, &res)
		if code != http.StatusOK {
			t.Fatalf("batch %d: %d %s", i, code, body)
		}
		if grow > 0 && !res.Refreshed {
			t.Errorf("batch %d grew the vertex space but did not re-reorder", i)
		}
		if res.Refreshed {
			refreshes++
		}
	}
	var m MetricsReport
	get(t, h, "/metrics", &m)
	if m.Writes.Batches != 5 || m.Writes.Updates != 5 {
		t.Errorf("write counters: %+v", m.Writes)
	}
	if m.Writes.Refreshes != refreshes || refreshes < 2 {
		t.Errorf("refreshes = %d, receipts report %d, want the same and >= 2", m.Writes.Refreshes, refreshes)
	}
	// Every publish that did not refresh patched the held CSR.
	if m.Writes.Refreshes > m.Writes.Publishes || m.Writes.Publishes-m.Writes.Refreshes < 1 {
		t.Errorf("publishes %d, refreshes %d: want at least one patched publish",
			m.Writes.Publishes, m.Writes.Refreshes)
	}
	if m.Writes.P50Us <= 0 {
		t.Error("write latency not recorded")
	}
}

// TestLiveAutoRefreshReadvises: a mutable "auto" snapshot re-advises on
// every refresh (here one a write that grows the vertex space forces),
// from the degrees the live graph maintains. The snapshot
// a refreshing write publishes carries the verdict Advise gives on the
// live graph's original-order snapshot, and that verdict's plan's
// permutation of it: sd is advised dbg, uni the identity.
func TestLiveAutoRefreshReadvises(t *testing.T) {
	for ds, advised := range map[string]string{"sd": "dbg", "uni": "original"} {
		t.Run(ds, func(t *testing.T) {
			s := New(Config{Workers: 1, QueryTimeout: 30 * time.Second})
			t.Cleanup(s.store.CloseLive)
			if _, err := s.store.Build(BuildSpec{Name: "live", Dataset: ds, Scale: "tiny", Technique: "auto", Mutable: true}); err != nil {
				t.Fatal(err)
			}
			h := s.Handler()
			// A write that grows the vertex space re-reorders.
			var res MutateResult
			if code, body := postJSON(t, h, "/v1/snapshots/live/edges", MutateRequest{AddVertices: 1, Updates: []MutateUpdate{
				{Src: 0, Dst: 7, Weight: 2}}}, &res); code != http.StatusOK {
				t.Fatalf("write: %d %s", code, body)
			}
			if !res.Refreshed {
				t.Fatal("a write that grew the vertex space ran no refresh")
			}
			// The receipt came after the refresher's last touch of the graph.
			orig, err := s.store.Live("live").dyn.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			rec := reorder.Advise(orig, graph.OutDegree)
			want, err := rec.Plan.Permute(orig, graph.OutDegree)
			if err != nil {
				t.Fatal(err)
			}
			snap := s.store.Current()
			if rec.Spec != advised {
				t.Fatalf("%s advised %q, want %q", ds, rec.Spec, advised)
			}
			if snap.advised != rec.Spec || snap.adviceReason != rec.Reason {
				t.Errorf("published advice %q (%s), want %q (%s)", snap.advised, snap.adviceReason, rec.Spec, rec.Reason)
			}
			if !slices.Equal(snap.perm, want) {
				t.Error("the published permutation is not the advised plan's of the live graph")
			}
		})
	}
}

// TestMutateAtomicBatchRejected: a batch failing validation mid-way must
// leave the published snapshot untouched (no publish, no epoch bump).
func TestMutateAtomicBatchRejected(t *testing.T) {
	s := liveServer(t, "original")
	h := s.Handler()
	var before SnapshotInfo
	get(t, h, "/v1/snapshots/live", &before)

	code, body := postJSON(t, h, "/v1/snapshots/live/edges", MutateRequest{
		Updates: []MutateUpdate{
			{Src: 0, Dst: 1, Weight: 1},
			{Src: 0, Dst: 0, Remove: true}, // uni has no self-loops: absent
		},
	}, nil)
	if code != http.StatusBadRequest {
		t.Fatalf("bad batch: %d %s", code, body)
	}
	if !strings.Contains(body, "absent") {
		t.Errorf("error does not name the absent edge: %s", body)
	}
	var after SnapshotInfo
	get(t, h, "/v1/snapshots/live", &after)
	if after.Epoch != before.Epoch || after.Edges != before.Edges {
		t.Fatalf("failed batch published: %+v -> %+v", before, after)
	}
	var m MetricsReport
	get(t, h, "/metrics", &m)
	if m.Writes.Failed != 1 || m.Writes.Batches != 0 {
		t.Errorf("failed=%d batches=%d, want 1/0", m.Writes.Failed, m.Writes.Batches)
	}
}

// TestMutateVertexGrowth grows the vertex space and wires the new
// vertices in one atomic request.
func TestMutateVertexGrowth(t *testing.T) {
	s := liveServer(t, "dbg")
	h := s.Handler()
	var before SnapshotInfo
	get(t, h, "/v1/snapshots/live", &before)

	var res MutateResult
	code, body := postJSON(t, h, "/v1/snapshots/live/edges", MutateRequest{
		AddVertices: 3,
		Updates: []MutateUpdate{
			{Src: graph.VertexID(before.Vertices), Dst: 0, Weight: 1},
			{Src: graph.VertexID(before.Vertices + 2), Dst: 1, Weight: 1},
		},
	}, &res)
	if code != http.StatusOK {
		t.Fatalf("grow: %d %s", code, body)
	}
	if res.Vertices != before.Vertices+3 || int(res.FirstNewVertex) != before.Vertices {
		t.Fatalf("growth receipt: %+v", res)
	}
	// Growth invalidates the old permutation, so this publish must have
	// re-reordered even though the periodic policy is not due.
	if !res.Refreshed {
		t.Error("vertex growth did not force a refresh")
	}
	// The grown vertex resolves and has its edge.
	var resolved struct {
		Current graph.VertexID `json:"current"`
	}
	url := fmt.Sprintf("/v1/snapshots/live/resolve?v=%d", before.Vertices)
	if code := get(t, h, url, &resolved); code != http.StatusOK {
		t.Fatal("resolve of grown vertex failed")
	}
	var deg struct {
		Degree int `json:"degree"`
	}
	get(t, h, fmt.Sprintf("/v1/query/degree?v=%d&snapshot=live", resolved.Current), &deg)
	if deg.Degree != 1 {
		t.Errorf("grown vertex out-degree %d, want 1", deg.Degree)
	}
}

// TestMutateValidation covers the handler-level rejections.
func TestMutateValidation(t *testing.T) {
	s := liveServer(t, "original")
	// A second, immutable snapshot.
	if _, err := s.store.Build(BuildSpec{Name: "frozen", Dataset: "uni", Scale: "tiny"}); err != nil {
		t.Fatal(err)
	}
	h := s.Handler()
	cases := []struct {
		name, url, body string
		want            int
	}{
		{"unknown snapshot", "/v1/snapshots/nope/edges", `{"updates":[{"src":0,"dst":1}]}`, http.StatusNotFound},
		{"immutable snapshot", "/v1/snapshots/frozen/edges", `{"updates":[{"src":0,"dst":1}]}`, http.StatusConflict},
		{"empty batch", "/v1/snapshots/live/edges", `{"updates":[]}`, http.StatusBadRequest},
		{"bad json", "/v1/snapshots/live/edges", `{"updates":`, http.StatusBadRequest},
		{"negative growth", "/v1/snapshots/live/edges", `{"add_vertices":-1,"updates":[{"src":0,"dst":1}]}`, http.StatusBadRequest},
		{"out of range", "/v1/snapshots/live/edges", `{"updates":[{"src":99999999,"dst":1}]}`, http.StatusBadRequest},
	}
	for _, c := range cases {
		if code, body := do(t, h, "POST", c.url, c.body); code != c.want {
			t.Errorf("%s: %d (want %d): %s", c.name, code, c.want, body)
		}
	}
}

// TestRequestBodiesBounded: a mutation body or build spec longer than its
// bound is refused with 413, however well-formed — the decoder stops at
// the bound instead of reading the whole body — and one just inside the
// bound is still served.
func TestRequestBodiesBounded(t *testing.T) {
	s := liveServer(t, "original")
	h := s.Handler()
	// pad puts JSON whitespace inside the object, so the decoder must
	// read all of it before the value is complete.
	pad := func(head string, size int) string {
		return head + strings.Repeat(" ", size-len(head)-1) + "}"
	}
	cases := []struct {
		name, url, head string
		limit           int
		within          int
	}{
		{"mutation", "/v1/snapshots/live/edges", `{"updates":[{"src":0,"dst":1}]`, maxMutateBodyBytes, http.StatusOK},
		{"build spec", "/v1/snapshots", `{"name":"again","dataset":"uni","scale":"tiny"`, maxBuildSpecBytes, http.StatusAccepted},
	}
	for _, c := range cases {
		if code, body := do(t, h, "POST", c.url, pad(c.head, c.limit+1)); code != http.StatusRequestEntityTooLarge {
			t.Errorf("%s of %d bytes: %d (want 413): %.200s", c.name, c.limit+1, code, body)
		}
		if code, body := do(t, h, "POST", c.url, pad(c.head, c.limit)); code != c.within {
			t.Errorf("%s of %d bytes: %d (want %d): %.200s", c.name, c.limit, code, c.within, body)
		}
	}
	s.store.WaitBuilds()
}

// TestMutateConcurrentWriters serializes racing writers through the
// mutation queue; every batch must land exactly once.
func TestMutateConcurrentWriters(t *testing.T) {
	s := liveServer(t, "dbg")
	h := s.Handler()
	var before SnapshotInfo
	get(t, h, "/v1/snapshots/live", &before)

	const writers, batches, perBatch = 4, 8, 3
	var wg sync.WaitGroup
	errs := make(chan string, writers*batches)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for b := 0; b < batches; b++ {
				updates := make([]MutateUpdate, perBatch)
				for i := range updates {
					updates[i] = MutateUpdate{
						Src: graph.VertexID((w*131 + b*17 + i) % before.Vertices),
						Dst: graph.VertexID((w*37 + b*101 + i*13) % before.Vertices), Weight: 1}
				}
				var res MutateResult
				code, body := postJSON(t, h, "/v1/snapshots/live/edges", MutateRequest{Updates: updates}, &res)
				if code != http.StatusOK {
					errs <- fmt.Sprintf("writer %d batch %d: %d %s", w, b, code, body)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
	var info SnapshotInfo
	get(t, h, "/v1/snapshots/live", &info)
	want := before.Edges + writers*batches*perBatch
	if info.Edges != want {
		t.Fatalf("final edge count %d, want %d", info.Edges, want)
	}
	var m MetricsReport
	get(t, h, "/metrics", &m)
	if m.Writes.Batches != writers*batches {
		t.Errorf("batches = %d, want %d", m.Writes.Batches, writers*batches)
	}
	// Coalescing may fold batches into shared publishes, but there must
	// be at least one publish and no more than one per batch.
	if m.Writes.Publishes == 0 || m.Writes.Publishes > m.Writes.Batches {
		t.Errorf("publishes = %d (batches %d)", m.Writes.Publishes, m.Writes.Batches)
	}
}

// TestMutateAfterDropAndRebuild: dropping a live snapshot kills its
// pipeline; rebuilding the name revives a fresh one.
func TestMutateAfterDropAndRebuild(t *testing.T) {
	s := liveServer(t, "original")
	h := s.Handler()
	// Publish a second snapshot and make it current so "live" can drop.
	if _, err := s.store.Build(BuildSpec{Name: "other", Dataset: "uni", Scale: "tiny", Activate: true}); err != nil {
		t.Fatal(err)
	}
	if err := s.store.Drop("live"); err != nil {
		t.Fatal(err)
	}
	if code, _ := do(t, h, "POST", "/v1/snapshots/live/edges", `{"updates":[{"src":0,"dst":1}]}`); code != http.StatusNotFound {
		t.Fatalf("write to dropped snapshot: %d", code)
	}
	// Rebuild (immutable this time): writes now 409.
	if _, err := s.store.Build(BuildSpec{Name: "live", Dataset: "uni", Scale: "tiny"}); err != nil {
		t.Fatal(err)
	}
	if code, _ := do(t, h, "POST", "/v1/snapshots/live/edges", `{"updates":[{"src":0,"dst":1}]}`); code != http.StatusConflict {
		t.Fatalf("write to immutable rebuild: %d", code)
	}
	// Rebuild mutable: writes flow again.
	if _, err := s.store.Build(BuildSpec{Name: "live", Dataset: "uni", Scale: "tiny", Mutable: true}); err != nil {
		t.Fatal(err)
	}
	var res MutateResult
	if code, body := postJSON(t, h, "/v1/snapshots/live/edges",
		MutateRequest{Updates: []MutateUpdate{{Src: 0, Dst: 1, Weight: 1}}}, &res); code != http.StatusOK {
		t.Fatalf("write to mutable rebuild: %d %s", code, body)
	}
	if res.Batch != 1 {
		t.Errorf("rebuilt pipeline batch seq = %d, want 1 (fresh history)", res.Batch)
	}
}

// TestFailedRebuildKeepsPipelineAlive: a rebuild request that fails
// validation or loading must not have retired the existing incarnation's
// write pipeline.
func TestFailedRebuildKeepsPipelineAlive(t *testing.T) {
	s := liveServer(t, "original")
	h := s.Handler()
	for _, bad := range []BuildSpec{
		{Name: "live", Dataset: "uni", Scale: "tiny", Degree: "sideways"},
		{Name: "live", Dataset: "uni", Scale: "tiny", Technique: "nope"},
		{Name: "live", Dataset: "no-such-dataset"},
		{Name: "live", Path: "/no/such/file"},
	} {
		if _, err := s.store.Build(bad); err == nil {
			t.Fatalf("bad spec %+v accepted", bad)
		}
	}
	var res MutateResult
	code, body := postJSON(t, h, "/v1/snapshots/live/edges",
		MutateRequest{Updates: []MutateUpdate{{Src: 0, Dst: 1, Weight: 1}}}, &res)
	if code != http.StatusOK {
		t.Fatalf("write after failed rebuilds: %d %s", code, body)
	}
}

// TestLiveShutdownRejectsQueuedWrites: CloseLive stops pipelines and
// later writes are refused cleanly.
func TestLiveShutdownRejectsQueuedWrites(t *testing.T) {
	s := liveServer(t, "original")
	h := s.Handler()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	code, body := do(t, h, "POST", "/v1/snapshots/live/edges", `{"updates":[{"src":0,"dst":1}]}`)
	if code != http.StatusServiceUnavailable {
		t.Fatalf("write after shutdown: %d %s", code, body)
	}
	// Reads still serve the last published snapshot.
	if code := get(t, h, "/v1/query/degree?v=0&snapshot=live", nil); code != http.StatusOK {
		t.Errorf("read after shutdown: %d", code)
	}
}

// TestLiveGraphHoldsOneCSR: a mutable snapshot keeps its edges once, as
// the view it serves. A DBG build on sd/small takes 20 writes, two of
// which grow the vertex space and so refresh (the rest leave its packing
// within the decay bound and patch); then neither the build's base graph nor any view a
// later publish superseded is reachable, and the live graph retains at
// most 4 B/edge beyond the served view (its degrees, permutation and edit
// log), measured as the heap it frees when its pipeline is stopped.
func TestLiveGraphHoldsOneCSR(t *testing.T) {
	s := New(Config{Workers: 1, QueryTimeout: 30 * time.Second})
	t.Cleanup(s.store.CloseLive)
	h := s.Handler()
	superseded := func() []weak.Pointer[graph.Graph] {
		base := genGraph(t, "sd", "small")
		n := base.NumVertices()
		spec := BuildSpec{Name: "live", Technique: "dbg", Mutable: true}
		order, err := newBuildOrder(spec.Technique)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.store.buildFrom(spec, &BuildStatus{}, base, nil, order, "dataset:sd/small", graph.OutDegree, 0, nil); err != nil {
			t.Fatal(err)
		}
		ptrs := []weak.Pointer[graph.Graph]{weak.Make(base)}
		refreshes := 0
		for i := 0; i < 20; i++ {
			ptrs = append(ptrs, weak.Make(s.store.Current().graph.(*graph.Graph)))
			grow := 0
			if i == 7 || i == 15 {
				grow = 1
			}
			var res MutateResult
			if code, body := postJSON(t, h, "/v1/snapshots/live/edges", MutateRequest{AddVertices: grow, Updates: []MutateUpdate{
				{Src: graph.VertexID(i), Dst: graph.VertexID(n - 1 - i), Weight: 2}}}, &res); code != http.StatusOK {
				t.Fatalf("write %d: %d %s", i, code, body)
			}
			if res.Refreshed {
				refreshes++
			}
		}
		if refreshes != 2 {
			t.Fatalf("20 writes refreshed %d times, want 2", refreshes)
		}
		return ptrs
	}()
	runtime.GC()
	for i, p := range superseded {
		if p.Value() != nil {
			what := "the build's base graph"
			if i > 0 {
				what = fmt.Sprintf("the view write %d superseded", i)
			}
			t.Errorf("%s is still reachable", what)
		}
	}
	if raceEnabled {
		return // the detector's own allocations are counted
	}
	var with, without runtime.MemStats
	runtime.ReadMemStats(&with)
	s.store.stopLive("live")
	runtime.GC()
	runtime.ReadMemStats(&without)
	edges := s.store.Current().graph.NumEdges()
	perEdge := float64(int64(with.HeapAlloc)-int64(without.HeapAlloc)) / float64(edges)
	t.Logf("the live graph retains %.2f B/edge beyond the served view (%d edges)", perEdge, edges)
	if perEdge > 4 {
		t.Errorf("the live graph retains %.2f B/edge beyond the served view, want <= 4", perEdge)
	}
}

// TestOldEpochsKeepTheirListsBesidePublishes: readers that acquired
// earlier epochs of a mutable snapshot re-read every list of them while
// write batches (inserts, removals, vertex growth) publish newer epochs
// that share their arrays; each reader must read what it read first. Run
// under -race, a publish that writes a byte an earlier epoch reads is
// reported.
func TestOldEpochsKeepTheirListsBesidePublishes(t *testing.T) {
	s := liveServer(t, "dbg")
	h := s.Handler()
	sum := func(g graph.View) uint64 {
		var x uint64
		for v := range graph.VertexID(g.NumVertices()) {
			ws := g.OutWeightList(v)
			for i, u := range g.OutNeighbors(v) {
				x = x*31 + uint64(u)<<8 + uint64(ws.At(i))
			}
			for _, u := range g.InNeighbors(v) {
				x = x*37 + uint64(u)
			}
		}
		return x
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	var reads atomic.Int64
	for range 2 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				snap, release := s.store.AcquireNamed("live")
				first := sum(snap.graph)
				for range 3 {
					if got := sum(snap.graph); got != first {
						t.Errorf("epoch %d read checksum %x, then %x", snap.epoch, first, got)
					}
				}
				release()
				reads.Add(1)
			}
		}()
	}
	n := s.store.Current().graph.NumVertices()
	r := rng.New(5)
	var inserted []MutateUpdate
	for i := range 60 {
		req := MutateRequest{}
		if i%15 == 14 {
			req.AddVertices = 1
			n++
		}
		for range 4 {
			u := MutateUpdate{Src: graph.VertexID(r.Intn(n)), Dst: graph.VertexID(r.Intn(n)), Weight: uint32(1 + r.Intn(9))}
			req.Updates = append(req.Updates, u)
			inserted = append(inserted, u)
		}
		if i%4 == 3 {
			// Take back an instance an earlier batch inserted.
			k := r.Intn(len(inserted) - 4)
			u := inserted[k]
			inserted = slices.Delete(inserted, k, k+1)
			req.Updates = append(req.Updates, MutateUpdate{Src: u.Src, Dst: u.Dst, Remove: true})
		}
		writeLive(t, h, req)
	}
	close(stop)
	wg.Wait()
	if reads.Load() == 0 {
		t.Error("no reader finished a read beside the publishes")
	}
}

// TestPatchPublishAllocatesNoCSR pins what a steady-state publish of a
// 4-insert batch allocates on a mutable DBG sd/small snapshot: the
// patched view shares the previous one's edge and weight arrays, so the
// publish allocates per vertex — the view's index and list starts, two
// directions of 8 + 8 bytes; the precompute's PageRank vectors, three of
// 8; a degree array of 4; 64 bytes a vertex in all, with room to spare —
// plus the edited lists, the request and the reply (256 KiB), far under
// one copy of the CSR, which every publish made while a patch copied
// every untouched list.
func TestPatchPublishAllocatesNoCSR(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's own allocations are counted")
	}
	s := New(Config{Workers: 1, QueryTimeout: 30 * time.Second})
	t.Cleanup(s.store.CloseLive)
	snap, err := s.store.Build(BuildSpec{Name: "live", Dataset: "sd", Scale: "small", Technique: "dbg", Mutable: true})
	if err != nil {
		t.Fatal(err)
	}
	h := s.Handler()
	g := snap.graph.(*graph.Graph)
	n, m := g.NumVertices(), g.NumEdges()
	_, wb := g.OutWeightArray()
	csr := uint64(2*8*(n+1) + 2*4*m + wb*m)
	bound := uint64(64*n + 256<<10)
	if bound > csr/2 {
		t.Fatalf("the bound, %d B, is not far under a CSR copy's %d B", bound, csr)
	}
	r := rng.New(13)
	write := func() {
		var req MutateRequest
		for range 4 {
			req.Updates = append(req.Updates, MutateUpdate{Src: graph.VertexID(r.Intn(n)), Dst: graph.VertexID(r.Intn(n)), Weight: uint32(1 + r.Intn(9))})
		}
		if res := writeLive(t, h, req); res.Refreshed {
			t.Fatal("a 4-insert batch refreshed the order")
		}
	}
	write() // the build's view has no room: the first publish copies it
	const publishes = 8
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range publishes {
		write()
	}
	runtime.ReadMemStats(&after)
	per := (after.TotalAlloc - before.TotalAlloc) / publishes
	t.Logf("a 4-insert publish of sd/small allocates %d B (%.1f B a vertex), a CSR copy is %d B; bound %d B", per, float64(per)/float64(n), csr, bound)
	if per > bound {
		t.Errorf("a 4-insert publish allocated %d B, more than the %d B of O(V) arrays and the batch", per, bound)
	}
}
