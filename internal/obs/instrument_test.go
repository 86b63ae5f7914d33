package obs

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestMetricsSetConcurrentRoute hammers route registration from many
// goroutines: every caller for a name must get the same tracker.
func TestMetricsSetConcurrentRoute(t *testing.T) {
	m := NewMetricsSet()
	names := []string{"a", "b", "c", "d"}
	const workers = 16
	got := make([][]*routeMetrics, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			got[w] = make([]*routeMetrics, len(names))
			for i, name := range names {
				rm := m.route(name)
				rm.requests.Add(1)
				got[w][i] = rm
			}
		}(w)
	}
	wg.Wait()
	for i, name := range names {
		first := got[0][i]
		for w := 1; w < workers; w++ {
			if got[w][i] != first {
				t.Fatalf("route %q: divergent trackers", name)
			}
		}
		if n := first.requests.Load(); n != workers {
			t.Errorf("route %q: %d requests, want %d", name, n, workers)
		}
	}
}

// countingLog is a slog.Handler that counts records and allocates
// nothing, so request logging is visible to the tests below without
// slog's formatting in the allocation counts.
type countingLog struct{ records *int }

func (countingLog) Enabled(context.Context, slog.Level) bool { return true }
func (c countingLog) Handle(context.Context, slog.Record) error {
	*c.records++
	return nil
}
func (c countingLog) WithAttrs([]slog.Attr) slog.Handler { return c }
func (c countingLog) WithGroup(string) slog.Handler      { return c }

// TestInstrumentContract mounts Instrument the way each tier does — a
// node with sampler, slow ring and request log, a router with none of
// them, a node with tracing switched off — and holds all three to the
// one documented behaviour.
func TestInstrumentContract(t *testing.T) {
	const exposition = "# TYPE up gauge\nup 1\n"
	handlers := map[string]http.HandlerFunc{
		"json": func(w http.ResponseWriter, r *http.Request) {
			FromContext(r.Context()).Observe("compute", time.Now())
			w.Header().Set("X-Cache", "hit")
			w.Header().Set("Content-Type", "application/json")
			io.WriteString(w, `{"answer":42}`+"\n")
		},
		"text": func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", "text/plain; version=0.0.4")
			io.WriteString(w, exposition)
		},
		"fail": func(w http.ResponseWriter, r *http.Request) {
			w.WriteHeader(http.StatusInternalServerError)
			w.WriteHeader(http.StatusOK) // ignored on the wire, so ignored here
			io.WriteString(w, `{"error":"boom"}`)
		},
	}
	for _, tier := range []struct {
		name    string
		mount   func(logged *int) *Instrument
		traced  bool
		slow    bool
		sampled bool
	}{
		{name: "node", traced: true, slow: true, sampled: true, mount: func(logged *int) *Instrument {
			return &Instrument{Metrics: NewMetricsSet(), Sampler: NewSampler(1), Slow: NewSlowRing(8),
				SlowThreshold: time.Hour, Logger: slog.New(countingLog{logged})}
		}},
		{name: "router", traced: true, mount: func(*int) *Instrument {
			return &Instrument{Metrics: NewMetricsSet()}
		}},
		{name: "node-untraced", mount: func(logged *int) *Instrument {
			return &Instrument{Metrics: NewMetricsSet(), NoTrace: true, Sampler: NewSampler(1),
				Slow: NewSlowRing(8), Logger: slog.New(countingLog{logged})}
		}},
	} {
		t.Run(tier.name, func(t *testing.T) {
			var logged int
			in := tier.mount(&logged)
			mux := http.NewServeMux()
			for name, h := range handlers {
				mux.HandleFunc("GET /"+name, in.Wrap("route."+name, h))
			}
			do := func(url, traceID string) *httptest.ResponseRecorder {
				req := httptest.NewRequest("GET", url, nil)
				if traceID != "" {
					req.Header.Set("X-Trace-Id", traceID)
				}
				rec := httptest.NewRecorder()
				mux.ServeHTTP(rec, req)
				return rec
			}
			type envelope struct {
				Trace    *TraceView      `json:"trace"`
				Response json.RawMessage `json:"response"`
			}

			// Plain requests pass through; the trace header appears iff
			// tracing is on, and an inbound ID is adopted.
			const id = "00ff00ff00ff00ff"
			for _, url := range []string{"/json", "/json?nodebug=trace", "/json?debug=tracer", "/json?x=debug=trace"} {
				rec := do(url, id)
				if rec.Code != 200 || rec.Body.String() != `{"answer":42}`+"\n" || rec.Header().Get("X-Cache") != "hit" {
					t.Errorf("%s: %d %q %v", url, rec.Code, rec.Body, rec.Header())
				}
				if got, want := rec.Header().Get("X-Trace-Id"), map[bool]string{true: id}[tier.traced]; got != want {
					t.Errorf("%s: X-Trace-Id %q, want %q", url, got, want)
				}
			}

			// ?debug=trace wraps a JSON body verbatim, keeps the handler's
			// headers, forces the detailed tier and carries the encode span
			// on every tier that traces at all.
			rec := do("/json?debug=trace", "")
			var env envelope
			if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil {
				t.Fatalf("debug=trace: %v\n%s", err, rec.Body)
			}
			if !tier.traced {
				if env.Trace != nil || rec.Body.String() != `{"answer":42}`+"\n" {
					t.Errorf("tracing off, yet debug=trace wrapped: %s", rec.Body)
				}
			} else {
				if env.Trace == nil || string(env.Response) != `{"answer":42}` {
					t.Fatalf("envelope: %s", rec.Body)
				}
				if env.Trace.ID != rec.Header().Get("X-Trace-Id") || env.Trace.Route != "route.json" ||
					env.Trace.Status != 200 || !env.Trace.Detailed || env.Trace.TotalUs <= 0 {
					t.Errorf("trace: %+v", env.Trace)
				}
				var spans []string
				for _, sp := range env.Trace.Spans {
					spans = append(spans, sp.Name)
				}
				if strings.Join(spans, ",") != "compute,encode" {
					t.Errorf("spans %v, want compute then encode", spans)
				}
				if rec.Header().Get("X-Cache") != "hit" || rec.Header().Get("Content-Type") != "application/json" {
					t.Errorf("envelope headers: %v", rec.Header())
				}
			}

			// A body that is not JSON is never wrapped or re-encoded.
			rec = do("/text?debug=trace", "")
			if rec.Code != 200 || rec.Body.String() != exposition ||
				rec.Header().Get("Content-Type") != "text/plain; version=0.0.4" {
				t.Errorf("non-JSON under debug=trace: %d %q %v", rec.Code, rec.Body, rec.Header())
			}

			// The status that went out first is the one counted, wrapped or not.
			for _, url := range []string{"/fail", "/fail?debug=trace"} {
				if rec = do(url, ""); rec.Code != 500 {
					t.Errorf("%s: status %d", url, rec.Code)
				}
			}
			if tier.traced {
				if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil || env.Trace.Status != 500 {
					t.Errorf("failed request's envelope: %v %s", err, rec.Body)
				}
			}

			rep := in.Metrics.Report()
			if got := rep["route.json"]; got.Requests != 5 || got.Errors != 0 || got.MaxUs <= 0 || got.MaxUs < got.P90Us {
				t.Errorf("route.json: %+v", got)
			}
			if got := rep["route.fail"]; got.Requests != 2 || got.Errors != 2 {
				t.Errorf("route.fail: %+v", got)
			}
			entry, _ := json.Marshal(rep["route.json"])
			var keys map[string]float64
			json.Unmarshal(entry, &keys)
			for _, k := range []string{"requests", "errors", "mean_us", "p50_us", "p90_us", "p99_us", "max_us"} {
				if _, ok := keys[k]; !ok {
					t.Errorf("route entry lacks %q: %s", k, entry)
				}
			}
			if len(keys) != 7 {
				t.Errorf("route entry has keys nobody documented: %s", entry)
			}

			// Optional parts: the ring takes only server faults below the
			// threshold, the log one record per detailed trace; a tier that
			// mounted neither pays for neither.
			wantSlow, wantLogged := 0, 0
			if tier.slow {
				wantSlow = 2
			}
			if tier.sampled {
				wantLogged = 8
			}
			if in.Slow != nil && int(in.Slow.Total()) != wantSlow {
				t.Errorf("slow ring holds %d traces, want %d", in.Slow.Total(), wantSlow)
			}
			if logged != wantLogged {
				t.Errorf("%d request log records, want %d", logged, wantLogged)
			}

			// One table, the prefix its only parameter.
			var buf bytes.Buffer
			rec = httptest.NewRecorder()
			rec.Body = &buf
			WriteFamilies(rec, in.Metrics, RouteFamilies("tier_"+strings.ReplaceAll(tier.name, "-", "_"),
				func(m *MetricsSet) *MetricsSet { return m }))
			_, families, err := ValidateExposition(bytes.NewReader(buf.Bytes()))
			if err != nil {
				t.Fatalf("exposition: %v\n%s", err, &buf)
			}
			if len(families) != 3 {
				t.Errorf("families %v, want requests, errors and latency only", families)
			}
			for fam := range families {
				if !strings.HasPrefix(fam, "tier_") {
					t.Errorf("family %q ignores the prefix", fam)
				}
			}
		})
	}

	for _, tc := range []struct {
		url, accept string
		want        bool
	}{
		{"/metrics", "", false},
		{"/metrics", "text/html", false},
		{"/metrics", "text/plain; version=0.0.4", true},
		{"/metrics", "application/openmetrics-text", true},
		{"/metrics?format=prometheus", "", true},
		{"/metrics?format=json", "text/plain", false},
	} {
		req := httptest.NewRequest("GET", tc.url, nil)
		req.Header.Set("Accept", tc.accept)
		if got := WantsPrometheus(req); got != tc.want {
			t.Errorf("WantsPrometheus(%s, Accept %q) = %v", tc.url, tc.accept, got)
		}
	}
}

// discardWriter is a ResponseWriter that keeps nothing, so the counts
// below are Instrument's own and not a recorder's.
type discardWriter struct{ h http.Header }

func (w *discardWriter) Header() http.Header         { return w.h }
func (w *discardWriter) WriteHeader(int)             {}
func (w *discardWriter) Write(p []byte) (int, error) { return len(p), nil }

// TestInstrumentAllocsPerRequest pins what the front door costs one
// request, in counts the host cannot blur: allocations with tracing off,
// with a default-rate sampler that passed the request over, and in the
// detailed tier; the share of requests a 5 % sampler promotes; and the
// spans a default request records. It replaces a best-of-three on/off
// timing ratio — the regressions that gate existed for (tracing that is
// always detailed, an allocation per span) each move one of these.
func TestInstrumentAllocsPerRequest(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	// A Sampler is a counter through splitmix64, xored with traceSeed:
	// with the seed fixed this run promotes the same requests every time.
	defer func(seed uint64) { traceSeed = seed }(traceSeed)
	traceSeed = 1

	var last *Trace
	handler := func(w http.ResponseWriter, r *http.Request) {
		last = FromContext(r.Context())
		w.Write(nil)
	}
	req := httptest.NewRequest("GET", "/v1/query/neighbors?v=1&limit=32", nil)
	w := &discardWriter{h: make(http.Header)}
	// AllocsPerRun(1, f) calls f twice and measures the second call.
	measure := func(in *Instrument) float64 {
		h := in.Wrap("query.neighbors", handler)
		return testing.AllocsPerRun(1, func() { h(w, req) })
	}

	const offAllocs, tracedAllocs, detailedAllocs = 1, 7, 8
	if got := measure(&Instrument{Metrics: NewMetricsSet(), NoTrace: true}); got != offAllocs || last != nil {
		t.Errorf("tracing off: %v allocs/request (want %d), trace %v", got, offAllocs, last)
	}

	var logged int
	in := &Instrument{Metrics: NewMetricsSet(), Sampler: NewSampler(0.05),
		Slow: NewSlowRing(8), SlowThreshold: time.Hour, Logger: slog.New(countingLog{&logged})}
	const calls = 400
	promoted := 0
	for i := 0; i < calls; i++ {
		got, want := measure(in), float64(tracedAllocs)
		if last.Detailed() {
			promoted++
			want = detailedAllocs
		}
		if got != want {
			t.Fatalf("request %d (detailed=%v): %v allocs, want %v", i, last.Detailed(), got, want)
		}
		if v := last.View(); len(v.Spans) != 1 || v.Spans[0].Name != "encode" || v.Status != 200 {
			t.Fatalf("request %d: trace %+v, want the encode span alone", i, v)
		}
	}
	if promoted < calls/40 || promoted > calls/10 {
		t.Errorf("a 5%% sampler promoted %d of %d measured requests", promoted, calls)
	}
	if served := int(in.Metrics.Report()["query.neighbors"].Requests); served != 2*calls ||
		logged < served/40 || logged > served/10 {
		t.Errorf("%d requests served (want %d), %d of them logged at 5%%", served, 2*calls, logged)
	}
	if got := in.Slow.Total(); got != 0 {
		t.Errorf("%d fast 200s reached the slow ring", got)
	}
}
