package server

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"slices"
	"strconv"
	"testing"
	"time"

	"graphreorder/internal/dynamic"
	"graphreorder/internal/faultinject"
	"graphreorder/internal/gen"
	"graphreorder/internal/graph"
	"graphreorder/internal/reorder"
)

// shedServer builds a server with a single-slot heavy pool so one
// in-flight query saturates it — the shape every shedding test needs.
func shedServer(t *testing.T) *Server {
	t.Helper()
	s := New(Config{Workers: 1, MaxConcurrent: 1, QueryTimeout: 30 * time.Second})
	if _, err := s.store.Build(BuildSpec{Name: "main", Dataset: "uni", Scale: "tiny", Technique: "dbg"}); err != nil {
		t.Fatal(err)
	}
	return s
}

// getWithDeadline issues a GET whose context carries a client deadline,
// returning the status code, the Retry-After header and elapsed time.
func getWithDeadline(t *testing.T, h http.Handler, url string, d time.Duration, out any) (int, string, time.Duration) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), d)
	defer cancel()
	req := httptest.NewRequest("GET", url, nil).WithContext(ctx)
	rec := httptest.NewRecorder()
	start := time.Now()
	h.ServeHTTP(rec, req)
	elapsed := time.Since(start)
	if out != nil && rec.Body.Len() > 0 {
		if err := json.Unmarshal(rec.Body.Bytes(), out); err != nil {
			t.Fatalf("bad JSON %q: %v", rec.Body.String(), err)
		}
	}
	return rec.Code, rec.Header().Get("Retry-After"), elapsed
}

// TestShedFailsFastBeforeDeadlineBurns pins the core shedding contract:
// with the single pool slot held and a known service time, a request
// whose deadline is shorter than the predicted queue wait gets 503 +
// Retry-After immediately — instead of queueing until its deadline
// expires and answering with 504 only after the full wait.
func TestShedFailsFastBeforeDeadlineBurns(t *testing.T) {
	s := shedServer(t)
	h := s.Handler()

	// Teach the pool that heavy queries take ~300ms, then saturate it.
	for i := 0; i < 4; i++ {
		s.pool.observe(300 * time.Millisecond)
	}
	if err := s.pool.acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	defer s.pool.release()

	const deadline = 80 * time.Millisecond
	code, retryAfter, elapsed := getWithDeadline(t, h, "/v1/query/sssp?src=0", deadline, nil)
	if code != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, want 503", code)
	}
	if retryAfter == "" {
		t.Fatal("503 without Retry-After header")
	}
	// The whole point: the refusal must not have burned the deadline.
	if elapsed >= deadline {
		t.Fatalf("shed took %v, deadline was %v — request queued instead of failing fast", elapsed, deadline)
	}

	// The shed shows up in /metrics, attributed to its route.
	var rep MetricsReport
	if codeM := get(t, h, "/metrics", &rep); codeM != http.StatusOK {
		t.Fatal("metrics failed")
	}
	var pool uint64
	for _, rs := range rep.Routes {
		pool += rs.Shed
	}
	if pool == 0 {
		t.Error("pool shed counter not incremented")
	}
	if rep.Routes["query.sssp"].Shed == 0 {
		t.Error("route shed counter not incremented")
	}
}

// TestShedWithAmpleDeadlineAdmits is the negative control: the same
// saturated pool admits a request whose deadline comfortably covers the
// predicted wait.
func TestShedWithAmpleDeadlineAdmits(t *testing.T) {
	s := shedServer(t)
	h := s.Handler()
	for i := 0; i < 4; i++ {
		s.pool.observe(time.Millisecond)
	}
	if err := s.pool.acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	release := make(chan struct{})
	go func() {
		time.Sleep(20 * time.Millisecond)
		s.pool.release()
		close(release)
	}()
	code, _, _ := getWithDeadline(t, h, "/v1/query/sssp?src=0", 5*time.Second, nil)
	<-release
	if code != http.StatusOK {
		t.Fatalf("status = %d, want 200 (predicted wait well under deadline)", code)
	}
}

// TestStaleDegradationServesPreviousEpoch: when fresh compute is shed,
// the previous epoch's cached result still answers — explicitly marked
// stale and carrying the producing epoch — so read availability survives
// overload.
func TestStaleDegradationServesPreviousEpoch(t *testing.T) {
	s := New(Config{Workers: 1, MaxConcurrent: 1, QueryTimeout: 30 * time.Second})
	t.Cleanup(func() { s.store.CloseLive() })
	if _, err := s.store.Build(BuildSpec{
		Name: "live", Dataset: "uni", Scale: "tiny", Technique: "original", Mutable: true,
	}); err != nil {
		t.Fatal(err)
	}
	h := s.Handler()

	// Warm the cache at the current epoch.
	var warm struct {
		Epoch uint64 `json:"epoch"`
		Stale bool   `json:"stale"`
	}
	if code := get(t, h, "/v1/query/topk?k=3", &warm); code != http.StatusOK {
		t.Fatal("warmup topk failed")
	}
	oldEpoch := warm.Epoch

	// Publish a new epoch so the fresh-cache key no longer matches.
	var res MutateResult
	code, body := postJSON(t, h, "/v1/snapshots/live/edges", MutateRequest{
		Updates: []MutateUpdate{{Src: 0, Dst: 1, Weight: 1}},
	}, &res)
	if code != http.StatusOK {
		t.Fatalf("mutate: %d %s", code, body)
	}
	if res.Epoch <= oldEpoch {
		t.Fatalf("epoch did not advance: %d -> %d", oldEpoch, res.Epoch)
	}

	// Saturate the pool and shed: the old epoch's entry must answer.
	for i := 0; i < 4; i++ {
		s.pool.observe(300 * time.Millisecond)
	}
	if err := s.pool.acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	defer s.pool.release()

	var degraded struct {
		Epoch  uint64 `json:"epoch"`
		Cached bool   `json:"cached"`
		Stale  bool   `json:"stale"`
	}
	codeD, _, _ := getWithDeadline(t, h, "/v1/query/topk?k=3", 50*time.Millisecond, &degraded)
	if codeD != http.StatusOK {
		t.Fatalf("degraded status = %d, want 200 (stale fallback cached)", codeD)
	}
	if !degraded.Stale || !degraded.Cached {
		t.Fatalf("degraded response not marked stale+cached: %+v", degraded)
	}
	if degraded.Epoch != oldEpoch {
		t.Fatalf("degraded epoch = %d, want producing epoch %d", degraded.Epoch, oldEpoch)
	}

	var rep MetricsReport
	get(t, h, "/metrics", &rep)
	if rep.Cache.StaleServes == 0 {
		t.Error("stale_serves counter not incremented")
	}
}

// TestStaleSSSPFollowsTheSourceAcrossARefresh: a shed SSSP served from
// an older epoch answers for the vertex the client named, in either ID
// space, after a refresh has moved that vertex to another current ID. The
// write below grows the vertex space, so its publish refreshes, and makes
// original vertex 0 a hub, so the refreshed DBG order moves it; the test
// predicts the new order with the library and caches, at the old epoch, the answers for vertex 0 and for the vertex that held
// 0's new current ID, so a fallback found by current ID answers for the
// wrong source.
func TestStaleSSSPFollowsTheSourceAcrossARefresh(t *testing.T) {
	s := New(Config{Workers: 1, MaxConcurrent: 1, QueryTimeout: 30 * time.Second})
	t.Cleanup(func() { s.store.CloseLive() })
	if _, err := s.store.Build(BuildSpec{
		Name: "live", Dataset: "sd", Scale: "tiny", Technique: "dbg", Mutable: true,
	}); err != nil {
		t.Fatal(err)
	}
	h := s.Handler()
	snap, release := s.store.AcquireNamed("live")
	perm1, inv1 := snap.perm, snap.invPerm()
	release()

	var batch []MutateUpdate
	var updates []dynamic.Update
	for k := 1; k <= 64; k++ {
		batch = append(batch, MutateUpdate{Src: 0, Dst: graph.VertexID(k), Weight: 1})
		updates = append(updates, dynamic.Update{Edge: graph.Edge{Src: 0, Dst: graph.VertexID(k), Weight: 1}})
	}
	g, err := gen.Generate(gen.MustDataset("sd", gen.Tiny))
	if err != nil {
		t.Fatal(err)
	}
	d := dynamic.FromGraph(g)
	if _, err := d.ApplyGrow(1, updates); err != nil {
		t.Fatal(err)
	}
	g2, err := d.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	res, err := reorder.PlanOf(reorder.NewDBG()).Apply(g2, graph.OutDegree)
	if err != nil {
		t.Fatal(err)
	}
	perm2 := res.Perm
	if perm2[0] == perm1[0] {
		t.Fatalf("the write does not move vertex 0 (current ID %d)", perm1[0])
	}
	other := inv1[perm2[0]] // held vertex 0's new current ID before the refresh
	const target = 7

	sssp := func(url string, deadline time.Duration) SSSPTargetResult {
		t.Helper()
		var r SSSPTargetResult
		if code, _, _ := getWithDeadline(t, h, url, deadline, &r); code != http.StatusOK {
			t.Fatalf("GET %s: %d", url, code)
		}
		return r
	}
	want := sssp(fmt.Sprintf("/v1/query/sssp?ids=orig&src=0&target=%d", target), 30*time.Second)
	decoy := sssp(fmt.Sprintf("/v1/query/sssp?ids=orig&src=%d&target=%d", other, target), 30*time.Second)
	if decoy.MaxDistance == want.MaxDistance && decoy.Rounds == want.Rounds && decoy.Distance == want.Distance {
		t.Fatalf("vertices 0 and %d answer alike; the test cannot tell them apart", other)
	}

	if code, body := postJSON(t, h, "/v1/snapshots/live/edges", MutateRequest{AddVertices: 1, Updates: batch}, nil); code != http.StatusOK {
		t.Fatalf("mutate: %d %s", code, body)
	}
	snap, release = s.store.AcquireNamed("live")
	if !slices.Equal(snap.perm, perm2) {
		release()
		t.Fatal("the refresh did not produce the predicted order")
	}
	release()

	// Saturate the pool: every fresh compute is shed from here on.
	for i := 0; i < 4; i++ {
		s.pool.observe(300 * time.Millisecond)
	}
	if err := s.pool.acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	defer s.pool.release()
	for _, url := range []string{
		fmt.Sprintf("/v1/query/sssp?ids=orig&src=0&target=%d", target),
		fmt.Sprintf("/v1/query/sssp?src=%d&target=%d", perm2[0], perm2[target]),
	} {
		got := sssp(url, 50*time.Millisecond)
		if !got.Stale || got.Epoch != want.Epoch {
			t.Fatalf("%s: stale %v from epoch %d, want the stale answer of epoch %d", url, got.Stale, got.Epoch, want.Epoch)
		}
		if got.MaxDistance != want.MaxDistance || got.Rounds != want.Rounds || got.Reached != want.Reached ||
			got.Distance != want.Distance || got.Reachable != want.Reachable {
			t.Errorf("%s: stale answer %+v, want vertex 0's %+v", url, got, want)
		}
	}
}

// TestShedsLeaveNoMarkOnAnIdlePool: a shed is one request's verdict.
// Five deadline sheds in a row on one route change nothing for the
// request after them: once a slot is free, a request with time to spare
// is computed. Each shed is counted once, on its route and in the pool's
// total alike.
func TestShedsLeaveNoMarkOnAnIdlePool(t *testing.T) {
	s := shedServer(t)
	h := s.Handler()
	for i := 0; i < 4; i++ {
		s.pool.observe(300 * time.Millisecond)
	}
	if err := s.pool.acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	const sheds = 5
	for src := 0; src < sheds; src++ {
		if code, _, _ := getWithDeadline(t, h, "/v1/query/sssp?src="+strconv.Itoa(src), 50*time.Millisecond, nil); code != http.StatusServiceUnavailable {
			t.Fatalf("shed %d: status = %d, want 503", src, code)
		}
	}
	s.pool.release()

	var refused errorBody
	if code, _, _ := getWithDeadline(t, h, "/v1/query/sssp?src="+strconv.Itoa(sheds), 5*time.Second, &refused); code != http.StatusOK {
		t.Fatalf("after %d sheds, with the pool idle: status = %d (%s), want 200", sheds, code, refused.Error)
	}
	var rep MetricsReport
	get(t, h, "/metrics", &rep)
	var pool uint64
	for _, rs := range rep.Routes {
		pool += rs.Shed
	}
	if rep.Routes["query.sssp"].Shed != sheds || pool != sheds {
		t.Errorf("route shed = %d, pool shed = %d, want %d each", rep.Routes["query.sssp"].Shed, pool, sheds)
	}
}

// TestWorkerPanicContained proves a panicking traversal worker becomes a
// 500 for that request only — the process survives and the next request
// succeeds.
func TestWorkerPanicContained(t *testing.T) {
	s := shedServer(t)
	h := s.Handler()
	faultinject.Enable("pool.worker", faultinject.Fault{Panic: true, Count: 1})
	defer faultinject.Reset()
	if code := get(t, h, "/v1/query/sssp?src=0", nil); code != http.StatusInternalServerError {
		t.Fatalf("panicking worker: status = %d, want 500", code)
	}
	if code := get(t, h, "/v1/query/sssp?src=1", nil); code != http.StatusOK {
		t.Fatalf("request after contained panic: status = %d, want 200", code)
	}
}
