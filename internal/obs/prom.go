package obs

import (
	"bufio"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"time"

	"graphreorder/internal/stats"
)

// Prometheus text exposition (format version 0.0.4): the de-facto
// scrape format. A tier declares each family once, as one Family entry
// in a table — name, type, help and how to read its samples off the
// tier's scrape — and WriteFamilies renders the table. The output is
// held to the grammar the in-repo validator (ValidateExposition)
// enforces, so the writer and the CI gate cannot drift apart.

// Label is one name="value" pair on a sample.
type Label struct{ Name, Value string }

// Family is one exposed family of a tier whose scrape is an S: its
// name, type ("counter", "gauge" or "summary") and help, and Samples,
// which reads the family's samples off one scrape.
type Family[S any] struct {
	Name, Type, Help string
	Samples          func(S, *Series)
}

// Counter declares a counter family with one unlabelled sample.
func Counter[S any](name, help string, v func(S) float64) Family[S] {
	return Family[S]{name, "counter", help, func(s S, out *Series) { out.Add(v(s)) }}
}

// Gauge declares a gauge family with one unlabelled sample.
func Gauge[S any](name, help string, v func(S) float64) Family[S] {
	return Family[S]{name, "gauge", help, func(s S, out *Series) { out.Add(v(s)) }}
}

// Series takes one family's samples during a scrape. The family's HELP
// and TYPE lines go out before its first sample, so a family with no
// sample in a scrape (the current snapshot's before the first publish,
// a shard's quality before the router polled it) is absent from it,
// and a promcheck -require on it means the scrape carries its data.
type Series struct {
	w    *bufio.Writer
	name string
	head string // the HELP and TYPE lines, until written
}

// Add emits one sample. Labels are written in the order given; the
// value in Go's shortest-roundtrip form.
func (s *Series) Add(v float64, labels ...Label) { s.sample("", labels, v) }

// Latency emits one LatencyHist as summary samples: the standard
// quantiles plus the exact _sum/_count pair, in seconds (the Prometheus
// base unit).
func (s *Series) Latency(h *stats.LatencyHist, labels ...Label) {
	snap := h.Snapshot()
	for _, q := range [...]struct {
		q string
		v time.Duration
	}{{"0.5", snap.P50}, {"0.9", snap.P90}, {"0.99", snap.P99}} {
		s.sample("", append(labels[:len(labels):len(labels)], Label{Name: "quantile", Value: q.q}), q.v.Seconds())
	}
	s.sample("_sum", labels, h.Sum().Seconds())
	s.sample("_count", labels, float64(snap.Count))
}

func (s *Series) sample(suffix string, labels []Label, v float64) {
	if s.head != "" {
		s.w.WriteString(s.head)
		s.head = ""
	}
	s.w.WriteString(s.name + suffix)
	if len(labels) > 0 {
		s.w.WriteString("{")
		for i, l := range labels {
			if i > 0 {
				s.w.WriteString(",")
			}
			s.w.WriteString(l.Name + "=\"" + escapeLabel(l.Value) + "\"")
		}
		s.w.WriteString("}")
	}
	s.w.WriteString(" " + formatValue(v) + "\n")
}

// WriteFamilies serves one scrape of a tier as Prometheus text: the
// families of the table in table order, each with its samples. A
// bufio.Writer keeps the first write error, so a failed write ends the
// output.
func WriteFamilies[S any](w http.ResponseWriter, scrape S, fams []Family[S]) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	bw := bufio.NewWriter(w)
	for _, f := range fams {
		f.Samples(scrape, &Series{bw, f.Name,
			"# HELP " + f.Name + " " + escapeHelp(f.Help) + "\n# TYPE " + f.Name + " " + f.Type + "\n"})
	}
	bw.Flush()
}

func formatValue(v float64) string {
	switch {
	case math.IsNaN(v):
		return "NaN"
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, "\\", `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

func escapeLabel(s string) string {
	s = strings.ReplaceAll(s, "\\", `\\`)
	s = strings.ReplaceAll(s, "\"", `\"`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

// SortedKeys returns a map's keys in sorted order — exposition tables
// emit labelled series deterministically so scrapes diff cleanly.
func SortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
