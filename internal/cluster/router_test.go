package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"reflect"
	"strings"
	"testing"
	"time"

	"graphreorder/internal/graph"
	"graphreorder/internal/obs"
	"graphreorder/internal/server"
)

// httpJSON issues a GET and decodes the body into out (when non-nil),
// returning the status code.
func httpJSON(t testing.TB, url string, out any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if out != nil && resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(body, out); err != nil {
			t.Fatalf("GET %s: decode: %v\n%s", url, err, body)
		}
	}
	return resp.StatusCode
}

// startBaseline boots a single-node graphd serving the named dataset in
// original order — the reference the cluster must match bit for bit.
func startBaseline(t *testing.T, dataset, scale string) string {
	t.Helper()
	srv := server.New(server.Config{Workers: 1})
	hs, url, err := serveOnLoopback(srv.Handler())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		hs.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		srv.Shutdown(ctx)
		cancel()
	})
	spec := fmt.Sprintf(`{"name":"base","dataset":%q,"scale":%q}`, dataset, scale)
	resp, err := http.Post(url+"/v1/snapshots", "application/json", strings.NewReader(spec))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	deadline := time.Now().Add(60 * time.Second)
	for httpJSON(t, url+"/v1/snapshots/base", nil) != http.StatusOK {
		if time.Now().After(deadline) {
			t.Fatal("baseline snapshot never became ready")
		}
		time.Sleep(25 * time.Millisecond)
	}
	return url
}

func startCluster(t *testing.T, g *graph.Graph, opt LocalOptions) *Local {
	t.Helper()
	if opt.Dir == "" {
		opt.Dir = t.TempDir()
	}
	if opt.Workers == 0 {
		opt.Workers = 1
	}
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	cl, err := StartLocal(ctx, g, opt)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Close)
	return cl
}

type neighborsView struct {
	Degree    int              `json:"degree"`
	Truncated bool             `json:"truncated"`
	Neighbors []graph.VertexID `json:"neighbors"`
}

type rankView struct {
	Rank float64 `json:"rank"`
}

type degreeView struct {
	Degree int `json:"degree"`
}

type topkView struct {
	Top []server.RankedVertex `json:"top"`
}

type ssspView struct {
	Reached     int   `json:"reached"`
	Unreachable int   `json:"unreachable"`
	MaxDistance int64 `json:"max_distance"`
	Reachable   bool  `json:"reachable"`
	Distance    int64 `json:"distance"`
}

// TestClusterEquivalence is the acceptance-criterion check: merged
// neighbors/degree/rank/top-k/SSSP answers from a 3-shard cluster must
// be bit-identical to a single-node graphd serving the same graph
// (SSSP round counts excluded — they are scatter-schedule-dependent by
// contract; distances and summaries are exact).
func TestClusterEquivalence(t *testing.T) {
	g := genGraph(t, "sd", "small")
	cl := startCluster(t, g, LocalOptions{Shards: 3})
	base := startBaseline(t, "sd", "small")
	baseQ := base + "/v1/query"
	clQ := cl.RouterURL + "/v1/query"

	n := g.NumVertices()
	hub := graph.VertexID(0)
	for v := 0; v < n; v++ {
		if g.OutDegree(graph.VertexID(v)) > g.OutDegree(hub) {
			hub = graph.VertexID(v)
		}
	}
	sample := []graph.VertexID{hub}
	for v := 0; v < n; v += n / 96 {
		sample = append(sample, graph.VertexID(v))
	}

	for _, v := range sample {
		for _, q := range []string{
			fmt.Sprintf("/neighbors?v=%d", v),
			fmt.Sprintf("/neighbors?v=%d&limit=8", v),
			fmt.Sprintf("/neighbors?v=%d&dir=in", v),
		} {
			var want, got neighborsView
			httpJSON(t, baseQ+q+"&snapshot=base", &want)
			httpJSON(t, clQ+q, &got)
			if want.Degree != got.Degree || want.Truncated != got.Truncated ||
				len(want.Neighbors) != len(got.Neighbors) {
				t.Fatalf("%s: baseline %+v cluster %+v", q, want, got)
			}
			for i := range want.Neighbors {
				if want.Neighbors[i] != got.Neighbors[i] {
					t.Fatalf("%s: neighbor %d differs: %d vs %d", q, i, want.Neighbors[i], got.Neighbors[i])
				}
			}
		}
		for _, kind := range []string{"out", "in", "total"} {
			q := fmt.Sprintf("/degree?v=%d&kind=%s", v, kind)
			var want, got degreeView
			httpJSON(t, baseQ+q+"&snapshot=base", &want)
			httpJSON(t, clQ+q, &got)
			if want.Degree != got.Degree {
				t.Fatalf("%s: degree %d vs %d", q, want.Degree, got.Degree)
			}
		}
		q := fmt.Sprintf("/rank?v=%d", v)
		var wantR, gotR rankView
		httpJSON(t, baseQ+q+"&snapshot=base", &wantR)
		httpJSON(t, clQ+q, &gotR)
		if wantR.Rank != gotR.Rank {
			t.Fatalf("%s: rank %v vs %v (must be bit-identical)", q, wantR.Rank, gotR.Rank)
		}
	}

	// A malformed limit is the node's 400 and message, not "no limit".
	wantCode, _, wantBody := httpRaw(t, baseQ+"/neighbors?v=0&limit=abc&snapshot=base")
	gotCode, _, gotBody := httpRaw(t, clQ+"/neighbors?v=0&limit=abc")
	if wantCode != http.StatusBadRequest || gotCode != wantCode || !bytes.Equal(gotBody, wantBody) {
		t.Fatalf("limit=abc: baseline %d %s cluster %d %s", wantCode, wantBody, gotCode, gotBody)
	}

	var wantTop, gotTop topkView
	httpJSON(t, baseQ+"/topk?k=16&snapshot=base", &wantTop)
	httpJSON(t, clQ+"/topk?k=16", &gotTop)
	if len(wantTop.Top) != len(gotTop.Top) {
		t.Fatalf("topk sizes differ: %d vs %d", len(wantTop.Top), len(gotTop.Top))
	}
	for i := range wantTop.Top {
		if wantTop.Top[i] != gotTop.Top[i] {
			t.Fatalf("topk[%d]: %+v vs %+v", i, wantTop.Top[i], gotTop.Top[i])
		}
	}

	for _, src := range []graph.VertexID{0, hub, graph.VertexID(n / 2)} {
		q := fmt.Sprintf("/sssp?src=%d&target=%d", src, n-1)
		var want, got ssspView
		httpJSON(t, baseQ+q+"&snapshot=base", &want)
		httpJSON(t, clQ+q, &got)
		if want != got {
			t.Fatalf("%s: baseline %+v cluster %+v", q, want, got)
		}
	}
}

// replyPayload GETs a 200 reply and decodes it as a JSON object without
// the keys that say which snapshot answered: a cluster and a single node
// differ in them by construction.
func replyPayload(t *testing.T, url string) map[string]any {
	t.Helper()
	code, _, body := httpRaw(t, url)
	if code != http.StatusOK {
		t.Fatalf("GET %s: status %d: %s", url, code, body)
	}
	var m map[string]any
	if err := json.Unmarshal(body, &m); err != nil {
		t.Fatalf("GET %s: %v\n%s", url, err, body)
	}
	for _, k := range []string{"snapshot", "epoch", "cached", "stale", "rounds"} {
		delete(m, k)
	}
	return m
}

// TestClusterRepliesMatchNode: every read the router serves is the
// node's reply, key for key, once the snapshot identity is set aside.
func TestClusterRepliesMatchNode(t *testing.T) {
	g := genGraph(t, "sd", "small")
	cl := startCluster(t, g, LocalOptions{Shards: 3})
	base := startBaseline(t, "sd", "small")
	hub := graph.VertexID(0)
	for v := graph.VertexID(0); int(v) < g.NumVertices(); v++ {
		if g.OutDegree(v) > g.OutDegree(hub) {
			hub = v
		}
	}
	reached := g.OutNeighbors(hub)[0]
	for _, q := range []string{
		fmt.Sprintf("/neighbors?v=%d&dir=out", hub),
		fmt.Sprintf("/neighbors?v=%d&dir=in", hub),
		fmt.Sprintf("/neighbors?v=%d&limit=8", hub),
		fmt.Sprintf("/degree?v=%d&kind=out", hub),
		fmt.Sprintf("/degree?v=%d&kind=in", hub),
		fmt.Sprintf("/degree?v=%d&kind=total", hub),
		fmt.Sprintf("/rank?v=%d", hub),
		"/topk?k=16",
		fmt.Sprintf("/sssp?src=%d", hub),
		fmt.Sprintf("/sssp?src=%d&target=%d", hub, reached),
	} {
		want := replyPayload(t, base+"/v1/query"+q+"&snapshot=base")
		got := replyPayload(t, cl.RouterURL+"/v1/query"+q)
		if !reflect.DeepEqual(want, got) {
			t.Errorf("%s:\nnode   %v\nrouter %v", q, want, got)
		}
	}
}

// TestClusterCutover: a second publish must move every shard through
// the barrier and swap the serving epoch atomically, leaving zero lag.
func TestClusterCutover(t *testing.T) {
	g := genGraph(t, "sd", "tiny")
	cl := startCluster(t, g, LocalOptions{Shards: 2})
	if e, name := cl.Router.Current(); e != 1 || name != "cluster@1" {
		t.Fatalf("boot epoch: %d %q", e, name)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if _, err := cl.Router.PublishEpoch(ctx, layoutSpecs(cl)); err != nil {
		t.Fatal(err)
	}
	if e, name := cl.Router.Current(); e != 2 || name != "cluster@2" {
		t.Fatalf("post-cutover epoch: %d %q", e, name)
	}
	var rep RouterReport
	httpJSON(t, cl.RouterURL+"/metrics", &rep)
	if rep.Epoch != 2 {
		t.Fatalf("metrics epoch %d", rep.Epoch)
	}
	for _, st := range rep.PerShard {
		if st.AckedEpoch != 2 || st.EpochLag != 0 {
			t.Fatalf("shard %d: acked %d lag %d", st.Shard, st.AckedEpoch, st.EpochLag)
		}
	}
	var rv rankView
	if code := httpJSON(t, cl.RouterURL+"/v1/query/rank?v=1", &rv); code != 200 {
		t.Fatalf("rank after cutover: %d", code)
	}
}

// TestClusterFailover: killing a shard primary must lose zero requests
// — in-flight and subsequent reads fail over to the replica, which the
// router promotes.
func TestClusterFailover(t *testing.T) {
	g := genGraph(t, "sd", "tiny")
	cl := startCluster(t, g, LocalOptions{Shards: 2, Replicas: 2, HealthEvery: 50 * time.Millisecond})
	// Prime: every route answers before the kill.
	var rv rankView
	if code := httpJSON(t, cl.RouterURL+"/v1/query/rank?v=0", &rv); code != 200 {
		t.Fatalf("pre-kill rank: %d", code)
	}
	cl.Kill(0, 0)
	for v := 0; v < g.NumVertices(); v += 7 {
		q := fmt.Sprintf("%s/v1/query/rank?v=%d", cl.RouterURL, v)
		if code := httpJSON(t, q, nil); code != 200 {
			t.Fatalf("rank v=%d after kill: status %d (lost request)", v, code)
		}
	}
	var top topkView
	if code := httpJSON(t, cl.RouterURL+"/v1/query/topk?k=8", &top); code != 200 || len(top.Top) != 8 {
		t.Fatalf("topk after kill: %d (%d results)", code, len(top.Top))
	}
	var rep RouterReport
	httpJSON(t, cl.RouterURL+"/metrics", &rep)
	if rep.Promotions == 0 {
		t.Fatal("no promotion recorded after killing a primary")
	}
}

// TestClusterTracePropagation: one trace identity across client →
// router → shard, with the fanout/merge/per-shard breakdown visible via
// ?debug=trace.
func TestClusterTracePropagation(t *testing.T) {
	g := genGraph(t, "sd", "tiny")
	cl := startCluster(t, g, LocalOptions{Shards: 2})
	const id = "00ff00ff00ff00ff"
	req, _ := http.NewRequest("GET", cl.RouterURL+"/v1/query/topk?k=4&debug=trace", nil)
	req.Header.Set("X-Trace-Id", id)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if got := resp.Header.Get("X-Trace-Id"); got != id {
		t.Fatalf("router did not adopt trace ID: %q", got)
	}
	var wrapped struct {
		Trace    obs.TraceView   `json:"trace"`
		Response json.RawMessage `json:"response"`
	}
	if err := json.Unmarshal(body, &wrapped); err != nil {
		t.Fatalf("debug envelope: %v\n%s", err, body)
	}
	if wrapped.Trace.ID != id {
		t.Fatalf("trace id %q, want %q", wrapped.Trace.ID, id)
	}
	spans := map[string]bool{}
	for _, sp := range wrapped.Trace.Spans {
		spans[sp.Name] = true
	}
	for _, want := range []string{"fanout", "merge", "shard0", "shard1"} {
		if !spans[want] {
			t.Fatalf("missing span %q in %v", want, wrapped.Trace.Spans)
		}
	}
	var inner topkView
	if err := json.Unmarshal(wrapped.Response, &inner); err != nil || len(inner.Top) != 4 {
		t.Fatalf("wrapped response: %v\n%s", err, wrapped.Response)
	}
}

// cutShort is a member that dies mid-reply: it promises a body and
// closes the connection after part of it.
func cutShort(t *testing.T) string {
	t.Helper()
	hs, url, err := serveOnLoopback(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		conn, buf, err := w.(http.Hijacker).Hijack()
		if err != nil {
			t.Error(err)
			return
		}
		buf.WriteString("HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nContent-Length: 64\r\n\r\n{\"degree\":")
		buf.Flush()
		conn.Close()
	}))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { hs.Close() })
	return url
}

// TestTruncatedReplyFailsOver: a reply that breaks off mid-body is a
// dead member, not an answer — the data plane retries it on the replica
// and promotes that one, the control plane reports it as an error.
func TestTruncatedReplyFailsOver(t *testing.T) {
	bad := cutShort(t)
	hs, good, err := serveOnLoopback(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, `{"degree":7}`)
	}))
	if err != nil {
		t.Fatal(err)
	}
	defer hs.Close()
	rt, err := NewRouter(RouterConfig{
		Placement:   &Placement{NumVertices: 1, Shards: 1, Owner: []int32{0}, Homes: []uint64{1}},
		Endpoints:   [][]string{{bad, good}},
		HealthEvery: time.Hour, // keep the health loop out of the promotion count
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	if err := rt.get(ctx, bad+"/healthz", nil); err == nil {
		t.Error("control-plane call accepted a reply cut short mid-body")
	}
	var reply bytes.Buffer
	if err := rt.shardCall(ctx, 0, "GET", "/v1/query/degree?v=0", nil, "", &reply); err != nil {
		t.Fatalf("no failover past the truncated reply: %v", err)
	}
	if got := reply.String(); got != `{"degree":7}` {
		t.Errorf("reply %q: the truncated member's bytes leaked into the answer", got)
	}
	sl := rt.slots[0]
	if sl.activeEndpoint() != good || sl.promotions.Load() != 1 || sl.errors.Load() != 1 {
		t.Errorf("active %s (want %s), %d promotions, %d errors", sl.activeEndpoint(), good, sl.promotions.Load(), sl.errors.Load())
	}
}

// TestClusterSSSPTrace: ?debug=trace on a router SSSP shows the shape
// of the frontier exchange — its rounds, the edges the shards relaxed
// and the relax-frame bytes each way — and /metrics counts the same
// bytes.
func TestClusterSSSPTrace(t *testing.T) {
	g := genGraph(t, "sd", "tiny")
	cl := startCluster(t, g, LocalOptions{Shards: 2})
	var wrapped struct {
		Trace    obs.TraceView `json:"trace"`
		Response struct {
			Rounds int `json:"rounds"`
		} `json:"response"`
	}
	if code := httpJSON(t, cl.RouterURL+"/v1/query/sssp?src=0&debug=trace", &wrapped); code != 200 {
		t.Fatalf("sssp: %d", code)
	}
	tr := wrapped.Trace
	if tr.Rounds == 0 || tr.Rounds != wrapped.Response.Rounds {
		t.Errorf("trace has %d rounds, the reply %d", tr.Rounds, wrapped.Response.Rounds)
	}
	if tr.Edges == 0 || tr.WireOutBytes == 0 || tr.WireInBytes == 0 {
		t.Errorf("trace lacks the exchange's shape: %d edges, %d bytes out, %d in", tr.Edges, tr.WireOutBytes, tr.WireInBytes)
	}
	var rep RouterReport
	httpJSON(t, cl.RouterURL+"/metrics", &rep)
	if rep.RelaxBytesOut != tr.WireOutBytes || rep.RelaxBytesIn != tr.WireInBytes {
		t.Errorf("metrics count %d/%d relax bytes out/in, the only SSSP's trace %d/%d",
			rep.RelaxBytesOut, rep.RelaxBytesIn, tr.WireOutBytes, tr.WireInBytes)
	}
}
