package obs

import (
	"bytes"
	"encoding/json"
	"log/slog"
	"net/http"
	"strings"
	"time"
)

// Instrument is the request front door both tiers mount: graphd's node
// and the cluster router wrap every route with Wrap and differ only in
// the fields they fill. Metrics is required; the rest is optional — the
// router passes no sampler, ring or logger, so its only detailed traces
// are the ?debug=trace ones and it keeps no slow ring.
//
// Per request Wrap counts the route's requests, errors (status >= 400)
// and latency, and, unless NoTrace is set: adopts an inbound X-Trace-Id
// (so client → router → shard is one trace identity) or mints one,
// echoes it in the response header, threads the Trace through the
// request context, records an "encode" span from the handler's first
// write to its return, and on ?debug=trace returns the finished trace
// inline as {"trace": …, "response": …}.
type Instrument struct {
	Metrics *MetricsSet
	// NoTrace switches tracing off entirely: no Trace, no X-Trace-Id,
	// and ?debug=trace leaves the response unwrapped.
	NoTrace bool
	// Sampler promotes a share of requests to the detailed tier; nil
	// promotes none (?debug=trace still forces one).
	Sampler *Sampler
	// Slow, when set and SlowThreshold is positive, records every trace
	// at least that long and every server-fault (5xx) response.
	Slow          *SlowRing
	SlowThreshold time.Duration
	// Logger, when set, gets one structured "request" record per
	// detailed trace.
	Logger *slog.Logger
}

// Wrap returns h instrumented as the named route.
func (in *Instrument) Wrap(route string, h http.HandlerFunc) http.HandlerFunc {
	rm := in.Metrics.route(route)
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		if in.NoTrace {
			h(sw, r)
			rm.observe(sw.status, time.Since(start))
			return
		}
		debug := wantsDebugTrace(r)
		tr := NewTraceWithID(route, debug || in.Sampler.Sample(), ParseTraceID(r.Header.Get("X-Trace-Id")))
		r = r.WithContext(WithTrace(r.Context(), tr))
		w.Header().Set("X-Trace-Id", tr.IDString())
		var buf *debugBuffer
		if debug {
			// Buffer the response so the trace (complete, encode span
			// included for the buffered body) can wrap it.
			buf = &debugBuffer{inner: w}
			sw.ResponseWriter = buf
		}
		h(sw, r)
		total := time.Since(start)
		if !sw.firstWrite.IsZero() {
			tr.Observe("encode", sw.firstWrite)
		}
		tr.Finish(sw.status, total)
		rm.observe(sw.status, total)
		if in.Slow != nil && in.SlowThreshold > 0 && (total >= in.SlowThreshold || sw.status >= 500) {
			in.Slow.Add(tr.View())
		}
		if in.Logger != nil && tr.Detailed() {
			in.Logger.LogAttrs(r.Context(), slog.LevelInfo, "request",
				slog.String("trace", tr.IDString()),
				slog.String("route", route),
				slog.Int("status", sw.status),
				slog.Float64("total_us", us(total)))
		}
		if buf != nil {
			buf.emit(sw.status, tr.View())
		}
	}
}

// wantsDebugTrace matches the debug parameter exactly; only a request
// that mentions it pays for parsing the query.
func wantsDebugTrace(r *http.Request) bool {
	return strings.Contains(r.URL.RawQuery, "debug=") && r.URL.Query().Get("debug") == "trace"
}

// statusWriter captures the response status for error accounting, and
// the first-write instant so the trace's encode span covers JSON
// serialization and the socket write. The first WriteHeader wins, as it
// does on the wire.
type statusWriter struct {
	http.ResponseWriter
	status     int
	firstWrite time.Time
}

func (w *statusWriter) WriteHeader(code int) {
	if w.firstWrite.IsZero() {
		w.firstWrite = time.Now()
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(p []byte) (int, error) {
	if w.firstWrite.IsZero() {
		w.firstWrite = time.Now()
	}
	return w.ResponseWriter.Write(p)
}

// debugBuffer holds a ?debug=trace response body so it can be re-emitted
// wrapped in the trace envelope. Headers go straight to the real
// response (nothing is sent before emit), so whatever the handler set —
// X-Cache, Retry-After — survives the wrapping.
type debugBuffer struct {
	inner http.ResponseWriter
	body  bytes.Buffer
}

func (b *debugBuffer) Header() http.Header { return b.inner.Header() }

func (b *debugBuffer) WriteHeader(int) {}

func (b *debugBuffer) Write(p []byte) (int, error) { return b.body.Write(p) }

// debugResponse is the ?debug=trace envelope: the original response body
// verbatim under "response", the finished trace under "trace".
type debugResponse struct {
	Trace    TraceView       `json:"trace"`
	Response json.RawMessage `json:"response"`
}

func (b *debugBuffer) emit(status int, view TraceView) {
	raw := b.body.Bytes()
	if !json.Valid(raw) {
		// Not JSON (the Prometheus exposition, an empty body): pass it
		// through untouched under its own Content-Type.
		b.inner.WriteHeader(status)
		b.inner.Write(raw)
		return
	}
	b.inner.Header().Set("Content-Type", "application/json")
	b.inner.WriteHeader(status)
	json.NewEncoder(b.inner).Encode(debugResponse{Trace: view, Response: raw})
}
