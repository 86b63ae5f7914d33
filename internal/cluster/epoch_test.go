package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/http/httputil"
	"net/url"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"graphreorder/internal/graph"
	"graphreorder/internal/obs"
	"graphreorder/internal/server"
)

// httpRaw issues a GET and returns status, X-Cache header and body
// (status 0 after reporting a transport error; safe off the test's own
// goroutine).
func httpRaw(t testing.TB, url string) (int, string, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Errorf("GET %s: %v", url, err)
		return 0, "", nil
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Errorf("GET %s: %v", url, err)
		return 0, "", nil
	}
	return resp.StatusCode, resp.Header.Get("X-Cache"), body
}

func routerReport(t testing.TB, cl *Local) RouterReport {
	t.Helper()
	var rep RouterReport
	if code := httpJSON(t, cl.RouterURL+"/metrics", &rep); code != http.StatusOK {
		t.Fatalf("router /metrics: %d", code)
	}
	return rep
}

func layoutSpecs(cl *Local) []server.BuildSpec {
	specs := make([]server.BuildSpec, len(cl.Layout.GraphPaths))
	for s := range specs {
		specs[s] = server.BuildSpec{Path: cl.Layout.GraphPaths[s], RanksPath: cl.Layout.RankPaths[s], Technique: "auto"}
	}
	return specs
}

// epochSnapshots lists the "<base>@k" snapshots a member holds, and the
// one it calls current.
func epochSnapshots(t testing.TB, member, base string) (names []string, current string) {
	t.Helper()
	var list struct {
		Snapshots []server.SnapshotInfo `json:"snapshots"`
	}
	if code := httpJSON(t, member+"/v1/snapshots", &list); code != http.StatusOK {
		t.Fatalf("listing %s: %d", member, code)
	}
	for _, s := range list.Snapshots {
		if strings.HasPrefix(s.Name, base+"@") {
			names = append(names, s.Name)
			if s.Current {
				current = s.Name
			}
		}
	}
	slices.Sort(names)
	return names, current
}

// TestReplyCacheHitEqualsMiss: on each point route the second asking of
// a request — its parameters in the other order — is answered from the
// epoch's cache with exactly the bytes the first got, errors and trace
// envelopes never are, and the counters say what happened.
func TestReplyCacheHitEqualsMiss(t *testing.T) {
	g := genGraph(t, "sd", "tiny")
	cl := startCluster(t, g, LocalOptions{Shards: 2})
	q := cl.RouterURL + "/v1/query"
	for _, c := range []struct{ first, reordered string }{
		{"/neighbors?v=3&dir=out&limit=8", "/neighbors?limit=8&dir=out&v=3"},
		{"/neighbors?v=3&dir=in", "/neighbors?dir=in&v=03"},
		{"/degree?v=5&kind=total", "/degree?kind=total&v=5"},
		{"/rank?v=7&x=1", "/rank?x=2&v=7"},
		{"/topk?k=4&y=0", "/topk?y=1&k=4"},
	} {
		code, mark, miss := httpRaw(t, q+c.first)
		if code != http.StatusOK || mark != "miss" {
			t.Fatalf("%s: status %d X-Cache %q, want a 200 miss", c.first, code, mark)
		}
		code, mark, hit := httpRaw(t, q+c.reordered)
		if code != http.StatusOK || mark != "hit" {
			t.Fatalf("%s: status %d X-Cache %q, want a 200 hit", c.reordered, code, mark)
		}
		if !bytes.Equal(miss, hit) {
			t.Errorf("%s: the hit is not the miss byte for byte:\n%s%s", c.first, miss, hit)
		}
	}
	rep := routerReport(t, cl)
	if rep.CacheHits != 5 || rep.CacheMisses != 5 || rep.CacheBytes <= 0 {
		t.Errorf("after 5 misses and 5 hits: %d hits, %d misses, %d bytes", rep.CacheHits, rep.CacheMisses, rep.CacheBytes)
	}

	// An error is computed every time and leaves nothing behind.
	for i := 0; i < 2; i++ {
		if code, mark, body := httpRaw(t, q+"/neighbors?v=3&dir=sideways"); code != http.StatusBadRequest || mark != "" {
			t.Fatalf("bad dir, asking %d: status %d X-Cache %q: %s", i, code, mark, body)
		}
	}
	if after := routerReport(t, cl); after.CacheHits != 5 || after.CacheMisses != 7 || after.CacheBytes != rep.CacheBytes {
		t.Errorf("two bad requests: %d hits, %d misses, %d bytes (were 5, 5, %d)", after.CacheHits, after.CacheMisses, after.CacheBytes, rep.CacheBytes)
	}

	// A traced request wraps the cached bytes; the envelope itself is
	// built per request, around a trace that shows the lookup.
	_, _, plain := httpRaw(t, q+"/rank?v=7")
	var ids [2]string
	for i := range ids {
		var wrapped struct {
			Trace    obs.TraceView   `json:"trace"`
			Response json.RawMessage `json:"response"`
		}
		code, mark, body := httpRaw(t, q+"/rank?v=7&debug=trace")
		if code != http.StatusOK || mark != "hit" {
			t.Fatalf("traced hit: status %d X-Cache %q", code, mark)
		}
		if err := json.Unmarshal(body, &wrapped); err != nil {
			t.Fatalf("traced hit: %v\n%s", err, body)
		}
		if !bytes.Equal(wrapped.Response, bytes.TrimSpace(plain)) {
			t.Errorf("traced hit wraps %s, the plain reply is %s", wrapped.Response, plain)
		}
		spans := map[string]bool{}
		for _, sp := range wrapped.Trace.Spans {
			spans[sp.Name] = true
		}
		if !spans["cache"] || spans["fanout"] {
			t.Errorf("traced hit: spans %v, want a cache span and no fanout", wrapped.Trace.Spans)
		}
		ids[i] = wrapped.Trace.ID
	}
	if ids[0] == ids[1] {
		t.Errorf("two traced requests share trace %s: an envelope was cached", ids[0])
	}
}

// TestCutoverNeverServesOldEpoch: readers asking warm keys across three
// cutovers never see the epoch go backwards, a reply's snapshot always
// belongs to its epoch, and once PublishEpoch has returned no reply —
// cached or not — carries an older epoch.
func TestCutoverNeverServesOldEpoch(t *testing.T) {
	g := genGraph(t, "sd", "tiny")
	cl := startCluster(t, g, LocalOptions{Shards: 2})
	type meta struct {
		Snapshot string `json:"snapshot"`
		Epoch    uint64 `json:"epoch"`
	}
	ask := func(path string) (meta, string) {
		code, mark, body := httpRaw(t, cl.RouterURL+path)
		var m meta
		if err := json.Unmarshal(body, &m); err != nil || code != http.StatusOK {
			t.Errorf("%s: status %d: %v: %s", path, code, err, body)
		}
		if want := fmt.Sprintf("cluster@%d", m.Epoch); m.Snapshot != want {
			t.Errorf("%s: epoch %d answered from snapshot %q", path, m.Epoch, m.Snapshot)
		}
		return m, mark
	}
	paths := []string{"/v1/query/rank?v=1", "/v1/query/topk?k=3", "/v1/query/degree?v=2&kind=in", "/v1/query/neighbors?v=4"}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for c := 0; c < 4; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var last uint64
			for i := c; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				m, _ := ask(paths[i%len(paths)])
				if m.Epoch < last {
					t.Errorf("reader %d: epoch %d after epoch %d", c, m.Epoch, last)
				}
				last = m.Epoch
			}
		}()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	for i := 0; i < 3; i++ {
		for _, p := range paths {
			ask(p) // warm at the epoch about to be superseded
		}
		e, err := cl.Router.PublishEpoch(ctx, layoutSpecs(cl))
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range paths {
			if m, _ := ask(p); m.Epoch != e {
				t.Errorf("%s after epoch %d was published: answered at epoch %d", p, e, m.Epoch)
			}
		}
	}
	close(stop)
	wg.Wait()
	// With the readers gone the first asking at a fresh epoch is a miss.
	if _, err := cl.Router.PublishEpoch(ctx, layoutSpecs(cl)); err != nil {
		t.Fatal(err)
	}
	if m, mark := ask(paths[0]); m.Epoch != 5 || mark != "miss" {
		t.Errorf("first read of epoch 5: epoch %d, X-Cache %q", m.Epoch, mark)
	}
}

// TestRetireLeavesOneEpochPerMember: every successful publish retires
// the epoch it supersedes before it returns, so each member holds — and
// calls current — exactly the serving epoch; what a failed publish left
// half-built goes with the next retirement.
func TestRetireLeavesOneEpochPerMember(t *testing.T) {
	g := genGraph(t, "sd", "tiny")
	cl := startCluster(t, g, LocalOptions{Shards: 2, Replicas: 2})
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	check := func(when string, want ...string) {
		t.Helper()
		for s := 0; s < 2; s++ {
			for i := 0; i < 2; i++ {
				names, _ := epochSnapshots(t, cl.MemberURL(s, i), "cluster")
				if fmt.Sprint(names) != fmt.Sprint(want) {
					t.Errorf("%s: shard %d member %d holds %v, want %v", when, s, i, names, want)
				}
			}
		}
	}
	for e := 2; e <= 3; e++ {
		if _, err := cl.Router.PublishEpoch(ctx, layoutSpecs(cl)); err != nil {
			t.Fatal(err)
		}
		check(fmt.Sprintf("after publishing epoch %d", e), fmt.Sprintf("cluster@%d", e))
	}

	// Shard 0 builds epoch 4, shard 1 cannot: the publish fails, the
	// serving epoch stays, and shard 0 is left holding an orphan.
	broken := layoutSpecs(cl)
	broken[1].Path += ".missing"
	if _, err := cl.Router.PublishEpoch(ctx, broken); err == nil {
		t.Fatal("a publish with an unreadable shard graph succeeded")
	}
	if e, _ := cl.Router.Current(); e != 3 {
		t.Fatalf("serving epoch %d after a failed publish, want 3", e)
	}
	if names, _ := epochSnapshots(t, cl.MemberURL(0, 0), "cluster"); len(names) != 2 {
		t.Fatalf("shard 0 holds %v: the failed publish left no orphan to sweep", names)
	}
	if _, err := cl.Router.PublishEpoch(ctx, layoutSpecs(cl)); err != nil {
		t.Fatal(err)
	}
	check("after the publish that followed a failed one", "cluster@5")
	for s := 0; s < 2; s++ {
		if _, current := epochSnapshots(t, cl.MemberURL(s, 1), "cluster"); current != "cluster@5" {
			t.Errorf("shard %d's replica calls %q current, the cluster serves cluster@5", s, current)
		}
	}
	if rep := routerReport(t, cl); rep.EpochsRetired != 3 || rep.RetireErrors != 0 {
		t.Errorf("%d epochs retired with %d errors, want 3 and 0", rep.EpochsRetired, rep.RetireErrors)
	}
}

// stallingMember fronts a real member: it can hold one query until told
// to let go, and it notes every snapshot the router deletes through it.
type stallingMember struct {
	t       *testing.T
	proxy   *httputil.ReverseProxy
	arm     atomic.Bool
	parked  chan struct{} // closed when a query is being held
	letGo   chan struct{}
	holding *atomic.Bool // some front of the cluster is holding a query
	guarded string       // deleting this snapshot meanwhile breaks the drain contract

	mu      sync.Mutex
	deleted []string
}

func (m *stallingMember) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.Method == http.MethodDelete {
		name := strings.TrimPrefix(r.URL.Path, "/v1/snapshots/")
		if name == m.guarded && m.holding.Load() {
			m.t.Errorf("%s dropped while a request pinned to it is still in flight", name)
		}
		m.mu.Lock()
		m.deleted = append(m.deleted, name)
		m.mu.Unlock()
	}
	if strings.HasPrefix(r.URL.Path, "/v1/query/") && m.arm.CompareAndSwap(true, false) {
		m.holding.Store(true)
		close(m.parked)
		<-m.letGo
		m.holding.Store(false)
	}
	m.proxy.ServeHTTP(w, r)
}

// TestParkedRequestPinsItsEpoch pins the drain contract: a request held
// up on a member keeps its epoch's snapshots on every member across two
// further publishes (the epoch between them, which nothing pins, goes at
// once), completes at the epoch it started on, and retires that epoch as
// it returns.
func TestParkedRequestPinsItsEpoch(t *testing.T) {
	g := genGraph(t, "sd", "tiny")
	cl := startCluster(t, g, LocalOptions{Shards: 2})
	owner := cl.Placement.OwnerOf(0)
	var fronts []*stallingMember
	var holding atomic.Bool
	endpoints := make([][]string, 2)
	for s := range endpoints {
		target, err := url.Parse(cl.MemberURL(s, 0))
		if err != nil {
			t.Fatal(err)
		}
		m := &stallingMember{
			t: t, proxy: httputil.NewSingleHostReverseProxy(target),
			parked: make(chan struct{}), letGo: make(chan struct{}), holding: &holding, guarded: "stall@1",
		}
		hs, front, err := serveOnLoopback(m)
		if err != nil {
			t.Fatal(err)
		}
		defer hs.Close()
		fronts = append(fronts, m)
		endpoints[s] = []string{front}
	}
	rt, err := NewRouter(RouterConfig{Placement: cl.Placement, Endpoints: endpoints, BaseName: "stall", HealthEvery: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	hs, routerURL, err := serveOnLoopback(rt.Handler())
	if err != nil {
		t.Fatal(err)
	}
	defer hs.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	publish := func() {
		t.Helper()
		if _, err := rt.PublishEpoch(ctx, layoutSpecs(cl)); err != nil {
			t.Fatal(err)
		}
	}
	holds := func(when string, want ...string) {
		t.Helper()
		for s := range endpoints {
			if names, _ := epochSnapshots(t, cl.MemberURL(s, 0), "stall"); fmt.Sprint(names) != fmt.Sprint(want) {
				t.Errorf("%s: shard %d holds %v, want %v", when, s, names, want)
			}
		}
	}

	publish() // stall@1
	fronts[owner].arm.Store(true)
	type reply struct {
		code int
		body []byte
	}
	done := make(chan reply, 1)
	go func() {
		code, _, body := httpRaw(t, routerURL+"/v1/query/rank?v=0")
		done <- reply{code, body}
	}()
	<-fronts[owner].parked

	publish() // stall@2: supersedes 1, which the parked request pins
	holds("one publish past the parked request", "stall@1", "stall@2")
	publish() // stall@3: supersedes 2, which nothing pins
	holds("two publishes past the parked request", "stall@1", "stall@3")
	if n := rt.epochsRetired.Load(); n != 1 {
		t.Errorf("%d epochs retired while epoch 1 is pinned, want 1 (epoch 2)", n)
	}

	close(fronts[owner].letGo)
	got := <-done
	var m struct {
		Epoch uint64 `json:"epoch"`
	}
	if err := json.Unmarshal(got.body, &m); err != nil || got.code != http.StatusOK || m.Epoch != 1 {
		t.Errorf("the parked request: status %d epoch %d (%v), want a 200 at epoch 1: %s", got.code, m.Epoch, err, got.body)
	}
	// The reply is written when the handler returns, and the handler's
	// release retired the epoch first: by now it is gone.
	holds("after the parked request returned", "stall@3")
	if n, errs := rt.epochsRetired.Load(), rt.retireErrors.Load(); n != 2 || errs != 0 {
		t.Errorf("%d epochs retired with %d errors, want 2 and 0", n, errs)
	}
	for s, m := range fronts {
		m.mu.Lock()
		if fmt.Sprint(m.deleted) != "[stall@2 stall@1]" {
			t.Errorf("shard %d saw deletes %v, want stall@2 then stall@1", s, m.deleted)
		}
		m.mu.Unlock()
	}
}

// TestWarmCacheOutlivesPrimary: an epoch is immutable, so what the
// router cached before a primary died is still the right answer and is
// served without touching the shard; the first read it has to compute
// fails over and promotes the replica as before.
func TestWarmCacheOutlivesPrimary(t *testing.T) {
	g := genGraph(t, "sd", "tiny")
	// The health loop is kept out of it: only a request may promote.
	cl := startCluster(t, g, LocalOptions{Shards: 2, Replicas: 2, HealthEvery: time.Hour})
	var warm, cold graph.VertexID
	found := 0
	for v := 0; v < g.NumVertices() && found < 2; v++ {
		if cl.Placement.OwnerOf(graph.VertexID(v)) == 0 {
			warm, cold = cold, graph.VertexID(v)
			found++
		}
	}
	if found < 2 {
		t.Fatal("shard 0 owns fewer than two vertices")
	}
	warmURL := fmt.Sprintf("%s/v1/query/rank?v=%d", cl.RouterURL, warm)
	_, _, before := httpRaw(t, warmURL)
	cl.Kill(0, 0)
	asked := routerReport(t, cl).Fanouts
	code, mark, after := httpRaw(t, warmURL)
	if code != http.StatusOK || mark != "hit" || !bytes.Equal(before, after) {
		t.Fatalf("warm read after the kill: status %d X-Cache %q\n%s%s", code, mark, before, after)
	}
	if rep := routerReport(t, cl); rep.Fanouts != asked || rep.Promotions != 0 {
		t.Errorf("a cache hit asked the shards %d times and promoted %d members", rep.Fanouts-asked, rep.Promotions)
	}
	code, mark, _ = httpRaw(t, fmt.Sprintf("%s/v1/query/rank?v=%d", cl.RouterURL, cold))
	if code != http.StatusOK || mark != "miss" {
		t.Fatalf("first computed read after the kill: status %d X-Cache %q", code, mark)
	}
	if rep := routerReport(t, cl); rep.Promotions != 1 {
		t.Errorf("%d promotions after a miss on the dead primary's shard, want 1", rep.Promotions)
	}
}

// BenchmarkRouterPoint prices a point read at the router's handler (the
// client's own hop excluded) in its three shapes: answered from the
// epoch's reply cache, computed from the one shard that holds an
// unreplicated vertex's out-edges, and computed from every shard (an
// in-neighbors read). The two miss cases never repeat a (vertex, limit)
// pair — asked counts across the harness's calibration runs too — so
// every iteration goes to the shards; shard-reqs/op shows it.
func BenchmarkRouterPoint(b *testing.B) {
	g := genGraph(b, "sd", "small")
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	cl, err := StartLocal(ctx, g, LocalOptions{Shards: 2, Workers: 1, Dir: b.TempDir()})
	if err != nil {
		b.Fatal(err)
	}
	defer cl.Close()
	var single []graph.VertexID // vertices whose out-edges live on one shard
	for v := 0; v < g.NumVertices(); v++ {
		if cl.Placement.Replicas(graph.VertexID(v)) == 1 {
			single = append(single, graph.VertexID(v))
		}
	}
	fresh := func(dir string) func(int) string {
		return func(i int) string {
			return fmt.Sprintf("/v1/query/neighbors?v=%d&dir=%s&limit=%d", single[i%len(single)], dir, 1+i/len(single))
		}
	}
	h := cl.Router.Handler()
	asked := 0
	for _, c := range []struct {
		name string
		path func(i int) string
		mark string
	}{
		{"hit", func(int) string { return "/v1/query/neighbors?v=1&limit=32" }, "hit"},
		{"miss-one-shard", fresh("out"), "miss"},
		{"miss-all-shards", fresh("in"), "miss"},
	} {
		b.Run(c.name, func(b *testing.B) {
			if c.mark == "hit" {
				h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest("GET", c.path(0), nil))
			}
			fanouts := cl.Router.fanouts.Load()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				path := c.path(asked)
				asked++
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
				if rec.Code != http.StatusOK || rec.Header().Get("X-Cache") != c.mark {
					b.Fatalf("%s: status %d X-Cache %q: %s", path, rec.Code, rec.Header().Get("X-Cache"), rec.Body)
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(cl.Router.fanouts.Load()-fanouts)/float64(b.N), "shard-reqs/op")
		})
	}
}
