package server

import (
	"encoding/json"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"graphreorder/internal/obs"
)

// TestDebugTraceInline exercises the ?debug=trace contract: the response
// is wrapped in {"trace": ..., "response": ...}, the trace carries the
// span breakdown, and — because debug forces the detailed tier — a
// traversal query reports its per-round progress.
func TestDebugTraceInline(t *testing.T) {
	s := testServer(t)
	h := s.Handler()

	var wrapped struct {
		Trace struct {
			ID      string     `json:"id"`
			Route   string     `json:"route"`
			Status  int        `json:"status"`
			TotalUs float64    `json:"total_us"`
			Spans   []obs.Span `json:"spans"`
			Rounds  int        `json:"rounds"`
			Edges   uint64     `json:"edges"`
		} `json:"trace"`
		Response json.RawMessage `json:"response"`
	}
	req := httptest.NewRequest("GET", "/v1/query/sssp?src=0&debug=trace", nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != 200 {
		t.Fatalf("sssp debug=trace: %d %s", rec.Code, rec.Body.String())
	}
	if rec.Header().Get("X-Trace-Id") == "" {
		t.Error("no X-Trace-Id header")
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &wrapped); err != nil {
		t.Fatalf("bad wrapper: %v", err)
	}
	tr := wrapped.Trace
	if tr.ID == "" || tr.Route != "query.sssp" || tr.Status != 200 || tr.TotalUs <= 0 {
		t.Errorf("trace header wrong: %+v", tr)
	}
	if tr.ID != rec.Header().Get("X-Trace-Id") {
		t.Errorf("trace ID %q != header %q", tr.ID, rec.Header().Get("X-Trace-Id"))
	}
	names := make(map[string]bool)
	for _, sp := range tr.Spans {
		names[sp.Name] = true
	}
	// A cold SSSP is a cache miss that computes: the full span chain.
	for _, want := range []string{"cache", "admit", "queue", "compute", "encode"} {
		if !names[want] {
			t.Errorf("missing span %q in %v", want, names)
		}
	}
	if tr.Rounds == 0 || tr.Edges == 0 {
		t.Errorf("detailed trace missing traversal rounds: rounds=%d edges=%d", tr.Rounds, tr.Edges)
	}
	// The wrapped response is the ordinary query payload, untouched.
	var inner struct {
		Snapshot string `json:"snapshot"`
		Source   uint32 `json:"src"`
	}
	if err := json.Unmarshal(wrapped.Response, &inner); err != nil || inner.Snapshot != "main" {
		t.Errorf("inner response wrong: %s (err %v)", wrapped.Response, err)
	}

	// A warm repeat is a cache hit: no queue/compute spans.
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/v1/query/sssp?src=0&debug=trace", nil))
	if err := json.Unmarshal(rec.Body.Bytes(), &wrapped); err != nil {
		t.Fatalf("bad warm wrapper: %v", err)
	}
	for _, sp := range wrapped.Trace.Spans {
		if sp.Name == "compute" {
			t.Error("cache hit still carries a compute span")
		}
	}

	// The parameter is matched exactly, not as a substring of the query:
	// a different key ending in "debug" gets the plain response.
	var plain map[string]json.RawMessage
	if code := get(t, h, "/v1/query/sssp?src=0&nodebug=trace", &plain); code != 200 {
		t.Fatalf("sssp nodebug=trace: %d", code)
	}
	if _, wrapped := plain["trace"]; wrapped || plain["snapshot"] == nil {
		t.Errorf("?nodebug=trace was taken for ?debug=trace: %v", plain)
	}
}

// TestTracingDisabled proves TraceSample < 0 turns tracing off entirely:
// no trace header, and ?debug=trace leaves the response unwrapped.
func TestTracingDisabled(t *testing.T) {
	s := New(Config{Workers: 1, QueryTimeout: 30 * time.Second, TraceSample: -1})
	if _, err := s.store.Build(BuildSpec{Name: "main", Dataset: "uni", Scale: "tiny", Technique: "dbg"}); err != nil {
		t.Fatal(err)
	}
	h := s.Handler()
	req := httptest.NewRequest("GET", "/v1/query/neighbors?v=0&debug=trace", nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != 200 {
		t.Fatalf("neighbors: %d", rec.Code)
	}
	if rec.Header().Get("X-Trace-Id") != "" {
		t.Error("X-Trace-Id set with tracing disabled")
	}
	var out map[string]json.RawMessage
	json.Unmarshal(rec.Body.Bytes(), &out)
	if _, wrapped := out["trace"]; wrapped {
		t.Error("response wrapped although tracing is disabled")
	}
	if _, ok := out["neighbors"]; !ok {
		t.Errorf("plain response missing: %s", rec.Body.String())
	}
}

// TestSlowRing drives the slow-query ring with a threshold of 1ns so
// every request qualifies, and reads it back from /debug/slow.
func TestSlowRing(t *testing.T) {
	s := New(Config{Workers: 1, QueryTimeout: 30 * time.Second, SlowThreshold: time.Nanosecond})
	if _, err := s.store.Build(BuildSpec{Name: "main", Dataset: "uni", Scale: "tiny", Technique: "dbg"}); err != nil {
		t.Fatal(err)
	}
	h := s.Handler()
	for i := 0; i < 3; i++ {
		if code := get(t, h, "/v1/query/rank?v=1", nil); code != 200 {
			t.Fatalf("rank: %d", code)
		}
	}
	var slow struct {
		ThresholdMs float64         `json:"threshold_ms"`
		Total       uint64          `json:"total"`
		Traces      []obs.TraceView `json:"traces"`
	}
	if code := get(t, h, "/debug/slow", &slow); code != 200 {
		t.Fatalf("/debug/slow: %d", code)
	}
	if slow.Total < 3 || len(slow.Traces) < 3 {
		t.Fatalf("slow ring: total=%d traces=%d", slow.Total, len(slow.Traces))
	}
	if slow.Traces[0].Route != "query.rank" {
		t.Errorf("newest slow trace route %q", slow.Traces[0].Route)
	}
}

// TestPrometheusExposition checks content negotiation on /metrics and
// runs the Prometheus output through the in-repo format validator.
func TestPrometheusExposition(t *testing.T) {
	s := testServer(t)
	h := s.Handler()
	// Produce some traffic so counters are non-trivial.
	get(t, h, "/v1/query/neighbors?v=0", nil)
	get(t, h, "/v1/query/rank?v=1", nil)

	// Default stays JSON (bit-compatible with existing scrapers).
	var jm MetricsReport
	if code := get(t, h, "/metrics", &jm); code != 200 {
		t.Fatalf("/metrics JSON: %d", code)
	}
	if jm.Routes["query.neighbors"].Requests == 0 || jm.Runtime.Goroutines == 0 {
		t.Errorf("JSON report incomplete: %+v", jm.Routes)
	}

	for _, tc := range []struct{ name, url, accept string }{
		{"accept-header", "/metrics", "text/plain; version=0.0.4"},
		{"format-param", "/metrics?format=prometheus", ""},
	} {
		req := httptest.NewRequest("GET", tc.url, nil)
		if tc.accept != "" {
			req.Header.Set("Accept", tc.accept)
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != 200 {
			t.Fatalf("%s: %d", tc.name, rec.Code)
		}
		if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
			t.Errorf("%s: Content-Type %q", tc.name, ct)
		}
		samples, families, err := obs.ValidateExposition(rec.Body)
		if err != nil {
			t.Fatalf("%s: invalid exposition: %v", tc.name, err)
		}
		// Which families: internal/cluster's TestNodePromExposition holds
		// them to README's table.
		if len(families) == 0 {
			t.Errorf("%s: no families", tc.name)
		}
		if samples < 20 {
			t.Errorf("%s: only %d samples", tc.name, samples)
		}
	}
}

// TestHealthzBuildInfo checks the health endpoint's build report.
func TestHealthzBuildInfo(t *testing.T) {
	s := New(Config{Workers: 1, QueryTimeout: 30 * time.Second, Version: "v1.2.3-test"})
	if _, err := s.store.Build(BuildSpec{Name: "main", Dataset: "uni", Scale: "tiny", Technique: "dbg"}); err != nil {
		t.Fatal(err)
	}
	var hz struct {
		OK            bool    `json:"ok"`
		Version       string  `json:"version"`
		GoVersion     string  `json:"go_version"`
		UptimeSeconds float64 `json:"uptime_seconds"`
		Snapshots     int     `json:"snapshots"`
	}
	if code := get(t, s.Handler(), "/healthz", &hz); code != 200 {
		t.Fatalf("healthz: %d", code)
	}
	if !hz.OK || hz.Version != "v1.2.3-test" || !strings.HasPrefix(hz.GoVersion, "go") || hz.Snapshots != 1 {
		t.Errorf("healthz: %+v", hz)
	}
}

// TestPprofGate: the profiling endpoints exist only behind the flag.
func TestPprofGate(t *testing.T) {
	off := testServer(t)
	if code := get(t, off.Handler(), "/debug/pprof/", nil); code != 404 {
		t.Errorf("pprof without flag: %d, want 404", code)
	}
	on := New(Config{Workers: 1, QueryTimeout: 30 * time.Second, Pprof: true})
	if _, err := on.store.Build(BuildSpec{Name: "main", Dataset: "uni", Scale: "tiny", Technique: "dbg"}); err != nil {
		t.Fatal(err)
	}
	req := httptest.NewRequest("GET", "/debug/pprof/", nil)
	rec := httptest.NewRecorder()
	on.Handler().ServeHTTP(rec, req)
	if rec.Code != 200 || !strings.Contains(rec.Body.String(), "goroutine") {
		t.Errorf("pprof with flag: %d", rec.Code)
	}
}
