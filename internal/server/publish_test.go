package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"
	"time"

	"graphreorder"
	"graphreorder/internal/graph"
	"graphreorder/internal/obs"
	"graphreorder/internal/reorder"
	"graphreorder/internal/rng"
)

// TestPublishStagesTraced: a traced write shows where it went — one span
// per publish stage in order, the view span tagged with its path, the
// precompute's iteration count as the trace's rounds — and every stage
// lands in graphd_publish_stage_seconds, which is exported (at zero) even
// before the first write so a promcheck -require on it holds anywhere.
func TestPublishStagesTraced(t *testing.T) {
	s := liveServer(t, "dbg")
	h := s.Handler()
	scrape := func() string {
		req := httptest.NewRequest("GET", "/metrics?format=prometheus", nil)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if _, _, err := obs.ValidateExposition(strings.NewReader(rec.Body.String())); err != nil {
			t.Fatalf("exposition invalid: %v", err)
		}
		return rec.Body.String()
	}
	for _, stage := range publishStageNames {
		if want := fmt.Sprintf(`graphd_publish_stage_seconds_count{stage=%q} 0`, stage); !strings.Contains(scrape(), want) {
			t.Fatalf("before any write, /metrics lacks %s", want)
		}
	}

	paths := map[string]int{}
	for i := 0; i < 7; i++ {
		grow := 0
		if i == 4 {
			grow = 1
		}
		body := fmt.Sprintf(`{"add_vertices":%d,"updates":[{"src":%d,"dst":%d,"weight":3}]}`, grow, i, i+1)
		req := httptest.NewRequest("POST", "/v1/snapshots/live/edges?debug=trace", strings.NewReader(body))
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			t.Fatalf("write %d: %d %s", i, rec.Code, rec.Body.String())
		}
		var out struct {
			Trace    obs.TraceView `json:"trace"`
			Response MutateResult  `json:"response"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
			t.Fatal(err)
		}
		var names []string
		for _, sp := range out.Trace.Spans {
			names = append(names, sp.Name)
		}
		if len(names) < 5 || !strings.HasPrefix(names[1], "view.") {
			t.Fatalf("write %d: spans %v, want apply, view.*, precompute, encode, swap", i, names)
		}
		view := names[1]
		names[1] = "view"
		if got := strings.Join(names[:5], " "); got != "apply view precompute encode swap" {
			t.Fatalf("write %d: spans %q", i, got)
		}
		if (view == "view.refresh") != out.Response.Refreshed {
			t.Fatalf("write %d: span %s, receipt refreshed=%v", i, view, out.Response.Refreshed)
		}
		snap := s.store.Current()
		if out.Trace.Rounds != snap.rankIters || out.Trace.Rounds < 1 {
			t.Fatalf("write %d: trace shows %d rounds, snapshot took %d PageRank iterations",
				i, out.Trace.Rounds, snap.rankIters)
		}
		paths[view]++
	}
	// The dynamic graph adopts the build's view as its CSR, so every write
	// patches the previous view, the first included, except two that
	// refresh: the second, because the first lifted uni/tiny's average
	// degree past 20, which turned every degree-20 vertex cold and decayed
	// the DBG order's packing beyond the bound, and the fifth, which grows
	// the vertex space.
	if len(paths) != 2 || paths["view.refresh"] != 2 || paths["view.patch"] != 5 {
		t.Fatalf("view paths %v, want 2 refreshes, 5 patches", paths)
	}
	text := scrape()
	for stage, want := range map[string]int{"apply": 7, "view.patch": 5, "view.refresh": 2,
		"precompute": 7, "encode": 7, "swap": 7} {
		if line := fmt.Sprintf(`graphd_publish_stage_seconds_count{stage=%q} %d`, stage, want); !strings.Contains(text, line) {
			t.Errorf("/metrics lacks %s", line)
		}
	}
}

// TestFirstWriteAfterBuildPatches: a mutable DBG build on sd/tiny hands
// the dynamic graph the build's view, which it adopts as its CSR in place
// of the generated graph; the first write then patches that view (the
// write's trace shows view.patch) instead of building a CSR and
// relabeling it, and the graph holds what it published.
func TestFirstWriteAfterBuildPatches(t *testing.T) {
	s := New(Config{Workers: 1, QueryTimeout: 30 * time.Second})
	t.Cleanup(func() { s.store.CloseLive() })
	if _, err := s.store.Build(BuildSpec{Name: "live", Dataset: "sd", Scale: "tiny", Technique: "dbg", Mutable: true}); err != nil {
		t.Fatal(err)
	}
	h := s.Handler()
	req := httptest.NewRequest("POST", "/v1/snapshots/live/edges?debug=trace",
		strings.NewReader(`{"updates":[{"src":0,"dst":1,"weight":3}]}`))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("write: %d %s", rec.Code, rec.Body.String())
	}
	var out struct {
		Trace obs.TraceView `json:"trace"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	if len(out.Trace.Spans) < 2 || out.Trace.Spans[1].Name != "view.patch" {
		t.Fatalf("first write's spans %v, want apply then view.patch", out.Trace.Spans)
	}
	// The receipt came after the refresher's last touch of the Reorderer.
	lg := s.store.Live("live")
	if r := lg.reord; r.Patches != 1 || r.Refreshes != 1 {
		t.Fatalf("after one write: %d patches, %d orderings; want 1, 1 (the build's)", r.Patches, r.Refreshes)
	}
	held, _, err := lg.reord.View(lg.dyn)
	if err != nil {
		t.Fatal(err)
	}
	if cur := s.store.Current(); cur.graph != graph.View(held) {
		t.Fatal("the dynamic graph does not hold the view it published")
	}
}

// TestLivePublishReportsPacking: a live publish's quality is its layout's
// packing report and nothing more, on the patch path and on a refresh (a
// write that grows the vertex space) —
// the O(E) neighbor gap and predicted ratio are left to callers that read
// them, so a write does not pay for them.
func TestLivePublishReportsPacking(t *testing.T) {
	s := New(Config{Workers: 1, QueryTimeout: 30 * time.Second})
	t.Cleanup(func() { s.store.CloseLive() })
	if _, err := s.store.Build(BuildSpec{Name: "live", Dataset: "sd", Scale: "tiny", Technique: "dbg", Mutable: true}); err != nil {
		t.Fatal(err)
	}
	h := s.Handler()
	for i, want := range []bool{false, true} {
		var res MutateResult
		if code, body := postJSON(t, h, "/v1/snapshots/live/edges",
			MutateRequest{AddVertices: i, Updates: []MutateUpdate{{Src: 0, Dst: graph.VertexID(i + 1), Weight: 3}}}, &res); code != http.StatusOK {
			t.Fatalf("write %d: %d %s", i, code, body)
		}
		if res.Refreshed != want {
			t.Fatalf("write %d: refreshed=%v, want %v", i, res.Refreshed, want)
		}
		snap := s.store.Current()
		if got, packing := snap.quality, reorder.EvaluatePacking(snap.graph, graph.OutDegree, nil); got != packing {
			t.Errorf("write %d (refreshed=%v): quality %+v, want the layout's packing %+v", i, want, got, packing)
		}
		if snap.quality.PackingFactor <= 0 {
			t.Errorf("write %d: no packing reported", i)
		}
	}
}

// TestLiveRanksWarmStartWithinTolerance: a live snapshot's ranks come
// from a warm start, so they are not bit-equal to a cold computation of
// the same graph — but both stopped on the same test (an iteration that
// moved the vector by less than tol*n), which puts either within
// tol*n*d/(1-d) of the fixed point. Checked across stale-path publishes
// and refreshes (where the ranks move to the new permutation) alike: the
// first write lifts uni/tiny's average degree past 20, which decays the
// DBG order's packing, so the second refreshes.
func TestLiveRanksWarmStartWithinTolerance(t *testing.T) {
	s := liveServer(t, "dbg")
	h := s.Handler()
	r := rng.New(9)
	// Every published snapshot is kept, as a reader may keep it, and held
	// to what it was when published once all the later publishes are done.
	type published struct {
		snap  *Snapshot
		edges []graph.Edge
		ranks []float64
	}
	var kept []published
	defer func() {
		for _, p := range kept {
			if !slices.Equal(p.snap.graph.(*graph.Graph).Edges(), p.edges) || !slices.Equal(p.snap.ranks, p.ranks) {
				t.Errorf("epoch %d was modified after it was published", p.snap.epoch)
			}
		}
	}()
	refreshes := 0
	for i := 0; i < 8; i++ {
		snap := s.store.Current()
		n := snap.graph.NumVertices()
		var res MutateResult
		code, body := postJSON(t, h, "/v1/snapshots/live/edges", MutateRequest{Updates: []MutateUpdate{
			{Src: uint32(r.Intn(n)), Dst: uint32(r.Intn(n)), Weight: 2},
			{Src: uint32(r.Intn(n)), Dst: uint32(r.Intn(n)), Weight: 2},
		}}, &res)
		if code != http.StatusOK {
			t.Fatalf("write %d: %d %s", i, code, body)
		}
		snap = s.store.Current()
		kept = append(kept, published{snap, snap.graph.(*graph.Graph).Edges(), slices.Clone(snap.ranks)})
		exact, err := graphreorder.Run(nil, snap.graph, graphreorder.AppPR,
			graphreorder.WithTolerance(1e-12), graphreorder.WithMaxIters(200), graphreorder.WithWorkers(1))
		if err != nil {
			t.Fatal(err)
		}
		cold, err := graphreorder.Run(nil, snap.graph, graphreorder.AppPR, graphreorder.WithWorkers(1))
		if err != nil {
			t.Fatal(err)
		}
		bound := 1e-7 * float64(n) * 0.85 / 0.15
		if d := l1(snap.ranks, exact.Ranks()); d > bound {
			t.Errorf("write %d (refreshed=%v): served ranks are %.3g (L1) from the fixed point, want <= %.3g",
				i, res.Refreshed, d, bound)
		}
		if d := l1(snap.ranks, cold.Ranks()); d > 2*bound || d == 0 {
			t.Errorf("write %d (refreshed=%v): served ranks are %.3g (L1) from a cold run, want in (0, %.3g]",
				i, res.Refreshed, d, 2*bound)
		}
		if snap.rankIters > 3 {
			t.Errorf("write %d (refreshed=%v): warm precompute took %d iterations", i, res.Refreshed, snap.rankIters)
		}
		if res.Refreshed {
			refreshes++
		}
	}
	if refreshes == 0 {
		t.Error("no write refreshed the order, so no warm start moved to a new permutation")
	}
}

func l1(a, b []float64) float64 {
	var d float64
	for i := range a {
		if a[i] > b[i] {
			d += a[i] - b[i]
		} else {
			d += b[i] - a[i]
		}
	}
	return d
}

// BenchmarkLivePublish drives 4-edge write batches straight into the
// handler of a mutable sd/small snapshot (DBG, which these batches leave
// within the decay bound, so every publish patches; nothing reading
// beside it) and reports the mean of every publish stage in
// milliseconds per occurrence, from the same histograms /metrics exports
// — the per-stage table of EXPERIMENTS.md "Publish path".
func BenchmarkLivePublish(b *testing.B) {
	s := New(Config{Workers: 2, QueryTimeout: 30 * time.Second})
	defer s.store.CloseLive()
	snap, err := s.store.Build(BuildSpec{Name: "live", Dataset: "sd", Scale: "small", Technique: "dbg", Mutable: true})
	if err != nil {
		b.Fatal(err)
	}
	h := s.Handler()
	n := snap.graph.NumVertices()
	r := rng.New(17)
	write := func() {
		var sb strings.Builder
		sb.WriteString(`{"updates":[`)
		for j := 0; j < 4; j++ {
			if j > 0 {
				sb.WriteByte(',')
			}
			fmt.Fprintf(&sb, `{"src":%d,"dst":%d,"weight":%d}`, r.Intn(n), r.Intn(n), 1+r.Intn(9))
		}
		sb.WriteString(`]}`)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/snapshots/live/edges", strings.NewReader(sb.String())))
		if rec.Code != http.StatusOK {
			b.Fatalf("write: %d %s", rec.Code, rec.Body.String())
		}
	}
	write() // the build's first write, which copies the build's CSR; not the steady state
	var sum [len(publishStageNames)]time.Duration
	var count [len(publishStageNames)]uint64
	for i := range sum {
		sum[i], count[i] = s.store.writes.stages[i].Sum(), s.store.writes.stages[i].Count()
	}
	b.ReportAllocs() // B/op: the bytes of a publish, its request and its reply
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		write()
	}
	b.StopTimer()
	for i, stage := range publishStageNames {
		// Per occurrence: a view path is taken by some publishes only.
		if k := s.store.writes.stages[i].Count() - count[i]; k > 0 {
			ms := float64((s.store.writes.stages[i].Sum() - sum[i]).Microseconds()) / 1000
			b.ReportMetric(ms/float64(k), stage+"-ms")
		}
	}
	cur := s.store.Current()
	b.ReportMetric(float64(cur.rankIters), "last-pr-iters")
}
