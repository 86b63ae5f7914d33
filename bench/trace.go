package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call into a layer, recorded from the bench's side of
// the call. Spans of one operation share Op; Parent is the span that
// caused this one (0 for an operation's root).
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Op     int64  `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start"` // ns since the recorder started
	End    int64  `json:"end"`
}

// recorder keeps spans in memory until the run ends. A nil recorder and a
// recorder that is switched off both record nothing, so call sites need no
// branches of their own.
type recorder struct {
	on     atomic.Bool
	nextOp atomic.Int64
	t0     time.Time

	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// enable switches recording on or off; a nil recorder stays off.
func (r *recorder) enable(on bool) {
	if r != nil {
		r.on.Store(on)
	}
}

// active reports whether spans are currently recorded.
func (r *recorder) active() bool { return r != nil && r.on.Load() }

// newOp allocates the identifier the spans of one operation share.
func (r *recorder) newOp() int64 {
	if !r.active() {
		return 0
	}
	return r.nextOp.Add(1)
}

// begin opens a span and returns its id (0 when not recording).
func (r *recorder) begin(parent, op int64, name string) int64 {
	if !r.active() {
		return 0
	}
	now := int64(time.Since(r.t0))
	r.mu.Lock()
	id := int64(len(r.spans) + 1)
	r.spans = append(r.spans, span{ID: id, Parent: parent, Op: op, Name: name, Start: now})
	r.mu.Unlock()
	return id
}

// end closes the span begin returned.
func (r *recorder) end(id int64) {
	if r == nil || id == 0 {
		return
	}
	now := int64(time.Since(r.t0))
	r.mu.Lock()
	r.spans[id-1].End = now
	r.mu.Unlock()
}

// call records fn as one child span.
func (r *recorder) call(parent, op int64, name string, fn func()) {
	id := r.begin(parent, op, name)
	fn()
	r.end(id)
}

// layerTime aggregates the spans sharing one name.
type layerTime struct {
	Count   int     `json:"count"`
	TotalMs float64 `json:"total_ms"`
	SelfMs  float64 `json:"self_ms"`
}

// selfTimes returns each span's self time: its duration minus the part of
// that interval its children cover. Overlapping children (parallel
// fan-out) count once, and a child is clipped to its parent, so the self
// times of one operation sum to its root span's duration.
func selfTimes(spans []span) map[int64]int64 {
	children := make(map[int64][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[int64]int64, len(spans))
	for _, s := range spans {
		dur := s.End - s.Start
		if dur < 0 {
			dur = 0
		}
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		covered, cursor := int64(0), s.Start
		for _, k := range kids {
			lo, hi := max(k.Start, cursor), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				cursor = hi
			}
		}
		self[s.ID] = dur - covered
	}
	return self
}

// traceSummary is what the traced run derives from its spans.
type traceSummary struct {
	Layers map[string]layerTime `json:"layers"`
	// SelfSumMaxDevPct is, over all operations, the largest relative
	// difference between the sum of self times and the root span.
	SelfSumMaxDevPct float64 `json:"self_sum_max_dev_pct"`
	Ops              int     `json:"ops"`
}

func summarize(spans []span) traceSummary {
	self := selfTimes(spans)
	sum := traceSummary{Layers: make(map[string]layerTime)}
	type opAcc struct{ root, selfSum int64 }
	ops := make(map[int64]*opAcc)
	for _, s := range spans {
		lt := sum.Layers[s.Name]
		lt.Count++
		lt.TotalMs += float64(s.End-s.Start) / 1e6
		lt.SelfMs += float64(self[s.ID]) / 1e6
		sum.Layers[s.Name] = lt
		acc := ops[s.Op]
		if acc == nil {
			acc = &opAcc{}
			ops[s.Op] = acc
		}
		acc.selfSum += self[s.ID]
		if s.Parent == 0 {
			acc.root += s.End - s.Start
		}
	}
	sum.Ops = len(ops)
	for _, acc := range ops {
		if acc.root <= 0 {
			continue
		}
		dev := 100 * float64(acc.selfSum-acc.root) / float64(acc.root)
		if dev < 0 {
			dev = -dev
		}
		sum.SelfSumMaxDevPct = max(sum.SelfSumMaxDevPct, dev)
	}
	return sum
}

// spanDurations returns the durations of every span with the given name.
func spanDurations(spans []span, name string) []time.Duration {
	var out []time.Duration
	for _, s := range spans {
		if s.Name == name {
			out = append(out, time.Duration(s.End-s.Start))
		}
	}
	return out
}

// maxTraceSpans bounds the raw spans written to trace.json; the summary
// always covers every span recorded.
const maxTraceSpans = 50000

type traceFile struct {
	Host       hostShape    `json:"host"`
	Workload   string       `json:"workload"`
	Seed       uint64       `json:"seed"`
	TotalSpans int          `json:"total_spans"`
	Truncated  bool         `json:"truncated"`
	Summary    traceSummary `json:"summary"`
	Spans      []span       `json:"spans"`
}

func (r *recorder) snapshot() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

func writeTraceFile(path string, tf traceFile) error {
	if len(tf.Spans) > maxTraceSpans {
		tf.Spans = tf.Spans[:maxTraceSpans]
		tf.Truncated = true
	}
	buf, err := json.Marshal(tf)
	if err != nil {
		return err
	}
	return os.WriteFile(path, buf, 0o644)
}
