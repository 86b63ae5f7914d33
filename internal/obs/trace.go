// Package obs is graphd's observability layer and the single owner of
// request observability on both tiers: the Instrument front door every
// node and router route is wrapped in, the per-route MetricsSet behind
// /metrics, per-request traces with span breakdowns, a bounded
// slow-query ring buffer, and Prometheus text exposition (writer plus a
// format validator usable as a CI gate).
//
// The design contract, shared with the serving layers that mount it:
//
//   - Tracing is always-on but two-tier. Every traced request carries a
//     Trace whose cost is a small allocation plus one monotonic clock
//     read per span boundary — a handful of nanosecond-scale operations
//     against handlers that spend microseconds encoding JSON. A sampled
//     subset (Sampler, tuned by graphd's -trace-sample) is additionally
//     "detailed": eligible for per-round traversal stats and structured
//     request logs. ?debug=trace forces a detailed trace for one request.
//   - Spans never allocate on the steady path beyond the trace itself:
//     a Trace preallocates room for the spans one request can produce.
//   - Everything is safe for concurrent use: a singleflight leader may
//     append compute spans while the request goroutine times out and
//     serializes the trace.
package obs

import (
	"sync"
	"sync/atomic"
	"time"
)

// Span is one timed phase of a request, offset-relative to the trace
// start so a client can reconstruct the timeline without clock math.
type Span struct {
	// Name identifies the phase: cache, admit, queue, compute, flight,
	// encode.
	Name string `json:"name"`
	// StartUs is the offset from the trace's start, microseconds.
	StartUs float64 `json:"start_us"`
	// DurUs is the span's duration, microseconds.
	DurUs float64 `json:"dur_us"`
}

// maxSpans bounds one trace's span count; the serving path produces at
// most six, the cap just keeps a misbehaving caller from growing traces
// without bound.
const maxSpans = 16

// Trace accumulates one request's observability record. Create with
// NewTrace, thread through the request context (WithTrace/FromContext),
// finish with Finish. All methods are safe on a nil receiver, so
// call sites need no tracing-enabled checks.
type Trace struct {
	id       uint64
	route    string
	start    time.Time
	detailed bool

	mu     sync.Mutex
	spans  []Span
	rounds int
	edges  uint64
	// wireOut/wireIn count the payload bytes the request exchanged with
	// other processes on its way (the router's relax frames).
	wireOut, wireIn uint64
	status          int
	total           time.Duration
}

// traceSeed and traceCtr generate process-unique trace IDs: a splitmix64
// walk seeded from the clock at init, one atomic add per trace.
var (
	traceSeed = uint64(time.Now().UnixNano())
	traceCtr  atomic.Uint64
)

// splitmix64 is the SplitMix64 finalizer: a cheap, well-distributed
// 64-bit mix.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// NewTrace starts a trace for one request on the named route. detailed
// marks it for per-round stats and request logging (the sampled tier).
func NewTrace(route string, detailed bool) *Trace {
	return &Trace{
		id:       splitmix64(traceSeed + traceCtr.Add(1)),
		route:    route,
		start:    time.Now(),
		detailed: detailed,
		spans:    make([]Span, 0, 8),
	}
}

// NewTraceWithID is NewTrace with an externally assigned ID: a service
// behind a routing tier adopts the caller's trace ID so one request
// keeps one identity across every hop. id 0 falls back to a fresh one.
func NewTraceWithID(route string, detailed bool, id uint64) *Trace {
	t := NewTrace(route, detailed)
	if id != 0 {
		t.id = id
	}
	return t
}

// ParseTraceID decodes the fixed-width hex form produced by IDString
// (an X-Trace-Id header value). It returns 0 for anything malformed,
// which callers treat as "no inbound trace ID".
func ParseTraceID(s string) uint64 {
	if len(s) != 16 {
		return 0
	}
	var id uint64
	for i := 0; i < 16; i++ {
		c := s[i]
		var d uint64
		switch {
		case c >= '0' && c <= '9':
			d = uint64(c - '0')
		case c >= 'a' && c <= 'f':
			d = uint64(c-'a') + 10
		default:
			return 0
		}
		id = id<<4 | d
	}
	return id
}

// ID returns the trace's process-unique 64-bit ID (0 for a nil trace).
func (t *Trace) ID() uint64 {
	if t == nil {
		return 0
	}
	return t.id
}

// IDString renders the trace ID as fixed-width hex.
func (t *Trace) IDString() string {
	if t == nil {
		return ""
	}
	const hex = "0123456789abcdef"
	var b [16]byte
	for i := range b {
		b[i] = hex[(t.id>>uint(60-4*i))&0xf]
	}
	return string(b[:])
}

// Detailed reports whether the trace is in the sampled (detailed) tier.
func (t *Trace) Detailed() bool { return t != nil && t.detailed }

// Observe records a span named name that began at start and ends now.
func (t *Trace) Observe(name string, start time.Time) {
	if t == nil {
		return
	}
	end := time.Now()
	t.mu.Lock()
	if len(t.spans) < maxSpans {
		t.spans = append(t.spans, Span{
			Name:    name,
			StartUs: us(start.Sub(t.start)),
			DurUs:   us(end.Sub(start)),
		})
	}
	t.mu.Unlock()
}

// Accumulate folds time into the span named name, creating it on first
// use: repeated phases (one fan-out per SSSP round, one call per shard)
// appear as a single span whose duration is the phase's total, instead
// of overflowing the span cap with near-identical entries. The span's
// start stays the earliest accumulated start.
func (t *Trace) Accumulate(name string, start time.Time) {
	if t == nil {
		return
	}
	end := time.Now()
	startUs, durUs := us(start.Sub(t.start)), us(end.Sub(start))
	t.mu.Lock()
	for i := range t.spans {
		if t.spans[i].Name == name {
			if startUs < t.spans[i].StartUs {
				t.spans[i].StartUs = startUs
			}
			t.spans[i].DurUs += durUs
			t.mu.Unlock()
			return
		}
	}
	if len(t.spans) < maxSpans {
		t.spans = append(t.spans, Span{Name: name, StartUs: startUs, DurUs: durUs})
	}
	t.mu.Unlock()
}

// Round records one completed traversal round (wired to the execution
// engine's Progress/RoundStats hook).
func (t *Trace) Round(edges uint64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.rounds++
	t.edges += edges
	t.mu.Unlock()
}

// AddWire records payload bytes the request sent to and received from
// other processes (the router's SSSP exchange calls it once per round).
func (t *Trace) AddWire(sent, received uint64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.wireOut += sent
	t.wireIn += received
	t.mu.Unlock()
}

// Finish seals the trace with the response status and total duration.
func (t *Trace) Finish(status int, total time.Duration) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.status = status
	t.total = total
	t.mu.Unlock()
}

// Total returns the sealed total duration (0 before Finish).
func (t *Trace) Total() time.Duration {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.total
}

// TraceView is the JSON form of a finished trace — what ?debug=trace
// returns inline and /debug/slow serves from the ring.
type TraceView struct {
	ID    string `json:"id"`
	Route string `json:"route"`
	// Start is the wall-clock request start (RFC3339, millisecond
	// precision); span offsets are relative to it.
	Start   string  `json:"start"`
	Status  int     `json:"status"`
	TotalUs float64 `json:"total_us"`
	Spans   []Span  `json:"spans"`
	// Rounds/Edges summarize the traversal when the request ran one.
	Rounds int    `json:"rounds,omitempty"`
	Edges  uint64 `json:"edges,omitempty"`
	// WireOutBytes/WireInBytes are the payload bytes the request exchanged
	// with other processes (a router's relax frames to and from shards).
	WireOutBytes uint64 `json:"wire_out_bytes,omitempty"`
	WireInBytes  uint64 `json:"wire_in_bytes,omitempty"`
	// Detailed marks the sampled tier (per-round stats were recorded).
	Detailed bool `json:"detailed,omitempty"`
}

// View snapshots the trace for serialization.
func (t *Trace) View() TraceView {
	if t == nil {
		return TraceView{}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return TraceView{
		ID:           t.IDString(),
		Route:        t.route,
		Start:        t.start.UTC().Format("2006-01-02T15:04:05.000Z07:00"),
		Status:       t.status,
		TotalUs:      us(t.total),
		Spans:        append([]Span(nil), t.spans...),
		Rounds:       t.rounds,
		Edges:        t.edges,
		WireOutBytes: t.wireOut,
		WireInBytes:  t.wireIn,
		Detailed:     t.detailed,
	}
}

func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1000 }

// Sampler makes the per-request detailed-tier decision at a configured
// rate. The zero value never samples; NewSampler clamps the rate into
// [0, 1]. Sample costs one atomic add and one multiply.
type Sampler struct {
	threshold uint64 // sample when splitmix64(seq) < threshold
	ctr       atomic.Uint64
}

// NewSampler returns a sampler that admits roughly rate of requests
// (rate <= 0 admits none, rate >= 1 admits all).
func NewSampler(rate float64) *Sampler {
	s := &Sampler{}
	switch {
	case rate <= 0:
		s.threshold = 0
	case rate >= 1:
		s.threshold = ^uint64(0)
	default:
		s.threshold = uint64(rate * float64(1<<63) * 2)
	}
	return s
}

// Sample reports whether this request is in the detailed tier.
func (s *Sampler) Sample() bool {
	if s == nil || s.threshold == 0 {
		return false
	}
	if s.threshold == ^uint64(0) {
		return true
	}
	return splitmix64(traceSeed^s.ctr.Add(1)) < s.threshold
}
