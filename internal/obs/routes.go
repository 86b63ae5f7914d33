package obs

import (
	"maps"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"graphreorder/internal/stats"
)

// routeMetrics aggregates one route's request count, error count and
// latency distribution (stats.LatencyHist, lock-free on the hot path).
type routeMetrics struct {
	requests atomic.Uint64
	errors   atomic.Uint64
	lat      stats.LatencyHist
}

func (rm *routeMetrics) observe(status int, total time.Duration) {
	rm.requests.Add(1)
	if status >= 400 {
		rm.errors.Add(1)
	}
	rm.lat.Observe(total)
}

// MetricsSet is the per-route registry behind /metrics on both tiers:
// Instrument feeds it, Report renders the JSON route entries and
// RouteFamilies declares the Prometheus families — the graphd /
// graphd_cluster prefix is the only thing a tier chooses.
type MetricsSet struct {
	mu     sync.RWMutex
	routes map[string]*routeMetrics
}

// NewMetricsSet returns an empty registry.
func NewMetricsSet() *MetricsSet {
	return &MetricsSet{routes: make(map[string]*routeMetrics)}
}

func (m *MetricsSet) route(name string) *routeMetrics {
	m.mu.RLock()
	rm, ok := m.routes[name]
	m.mu.RUnlock()
	if ok {
		return rm
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if rm, ok = m.routes[name]; ok {
		return rm
	}
	rm = &routeMetrics{}
	m.routes[name] = rm
	return rm
}

// snapshot copies the registry, so a report reads the counters without
// holding the lock across its writes.
func (m *MetricsSet) snapshot() map[string]*routeMetrics {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return maps.Clone(m.routes)
}

// RouteStats is the JSON view of one route's metrics.
type RouteStats struct {
	Requests uint64  `json:"requests"`
	Errors   uint64  `json:"errors"`
	MeanUs   float64 `json:"mean_us"`
	P50Us    float64 `json:"p50_us"`
	P90Us    float64 `json:"p90_us"`
	P99Us    float64 `json:"p99_us"`
	MaxUs    float64 `json:"max_us"`
}

// Report snapshots every route for the JSON /metrics document.
func (m *MetricsSet) Report() map[string]RouteStats {
	routes := m.snapshot()
	out := make(map[string]RouteStats, len(routes))
	for name, rm := range routes {
		snap := rm.lat.Snapshot()
		out[name] = RouteStats{
			Requests: rm.requests.Load(),
			Errors:   rm.errors.Load(),
			MeanUs:   us(snap.Mean),
			P50Us:    us(snap.P50),
			P90Us:    us(snap.P90),
			P99Us:    us(snap.P99),
			MaxUs:    us(snap.Max),
		}
	}
	return out
}

// RouteFamilies declares the per-route families under a tier's prefix:
// <prefix>_requests_total, <prefix>_request_errors_total and
// <prefix>_request_latency_seconds, read from the registry set picks out
// of the tier's scrape.
func RouteFamilies[S any](prefix string, set func(S) *MetricsSet) []Family[S] {
	perRoute := func(add func(*Series, *routeMetrics, Label)) func(S, *Series) {
		return func(s S, out *Series) {
			routes := set(s).snapshot()
			for _, name := range SortedKeys(routes) {
				add(out, routes[name], Label{Name: "route", Value: name})
			}
		}
	}
	return []Family[S]{
		{prefix + "_requests_total", "counter", "Requests served, by route.",
			perRoute(func(out *Series, rm *routeMetrics, l Label) { out.Add(float64(rm.requests.Load()), l) })},
		{prefix + "_request_errors_total", "counter", "Requests answered with status >= 400, by route.",
			perRoute(func(out *Series, rm *routeMetrics, l Label) { out.Add(float64(rm.errors.Load()), l) })},
		{prefix + "_request_latency_seconds", "summary", "Request latency by route (bucketed quantiles, conservative).",
			perRoute(func(out *Series, rm *routeMetrics, l Label) { out.Latency(&rm.lat, l) })},
	}
}

// WantsPrometheus decides /metrics' exposition format: an explicit
// ?format=prometheus, or an Accept header asking for text/plain or
// OpenMetrics (what Prometheus scrapers send). Browsers and the JSON
// tooling keep getting JSON, and one scrape_config works against
// shards and router alike.
func WantsPrometheus(r *http.Request) bool {
	if f := r.URL.Query().Get("format"); f != "" {
		return f == "prometheus"
	}
	accept := r.Header.Get("Accept")
	return strings.Contains(accept, "text/plain") ||
		strings.Contains(accept, "application/openmetrics-text")
}
