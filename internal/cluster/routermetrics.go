package cluster

import (
	"bytes"
	"encoding/json"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"graphreorder/internal/obs"
	"graphreorder/internal/server"
	"graphreorder/internal/stats"
)

// routeMetrics is one route's counters on the router.
type routeMetrics struct {
	requests atomic.Uint64
	errors   atomic.Uint64
	lat      stats.LatencyHist
}

type routerMetrics struct {
	mu     sync.Mutex
	routes map[string]*routeMetrics
}

func newRouterMetrics() *routerMetrics {
	return &routerMetrics{routes: make(map[string]*routeMetrics)}
}

func (m *routerMetrics) route(name string) *routeMetrics {
	m.mu.Lock()
	defer m.mu.Unlock()
	rm := m.routes[name]
	if rm == nil {
		rm = &routeMetrics{}
		m.routes[name] = rm
	}
	return rm
}

// statusWriter records the response status for metrics and traces.
type statusWriter struct {
	http.ResponseWriter
	code int
}

func (w *statusWriter) WriteHeader(c int) {
	if w.code == 0 {
		w.code = c
	}
	w.ResponseWriter.WriteHeader(c)
}

func (w *statusWriter) status() int {
	if w.code == 0 {
		return http.StatusOK
	}
	return w.code
}

// debugBuffer holds the response so ?debug=trace can wrap it together
// with the finished trace — same envelope graphd itself uses, so one
// debugging workflow covers both tiers.
type debugBuffer struct {
	sw   *statusWriter
	code int
	buf  bytes.Buffer
}

func (b *debugBuffer) Header() http.Header { return b.sw.Header() }

func (b *debugBuffer) WriteHeader(c int) {
	if b.code == 0 {
		b.code = c
	}
}

func (b *debugBuffer) Write(p []byte) (int, error) { return b.buf.Write(p) }

func (b *debugBuffer) status() int {
	if b.code == 0 {
		return http.StatusOK
	}
	return b.code
}

func (b *debugBuffer) emit(tr *obs.Trace) {
	var resp any
	if json.Valid(b.buf.Bytes()) {
		resp = json.RawMessage(b.buf.Bytes())
	} else {
		resp = b.buf.String()
	}
	out, _ := json.Marshal(map[string]any{"trace": tr.View(), "response": resp})
	b.sw.Header().Set("Content-Type", "application/json")
	b.sw.WriteHeader(b.status())
	b.sw.Write(append(out, '\n'))
}

func wantsDebugTrace(r *http.Request) bool {
	// Every request passes here; only one that mentions debug pays a parse.
	return strings.Contains(r.URL.RawQuery, "debug=") && r.URL.Query().Get("debug") == "trace"
}

// instrument wraps a handler with the router's observability: per-route
// counters and latency, a Trace that adopts an inbound X-Trace-Id (so
// client → router → shard is one trace identity end to end), the
// X-Trace-Id response header, and the ?debug=trace envelope carrying
// the fanout/merge/per-shard span breakdown.
func (rt *Router) instrument(route string, h http.HandlerFunc) http.HandlerFunc {
	rm := rt.metrics.route(route)
	return func(w http.ResponseWriter, r *http.Request) {
		debug := wantsDebugTrace(r)
		tr := obs.NewTraceWithID(route, debug, obs.ParseTraceID(r.Header.Get("X-Trace-Id")))
		w.Header().Set("X-Trace-Id", tr.IDString())
		r = r.WithContext(obs.WithTrace(r.Context(), tr))
		sw := &statusWriter{ResponseWriter: w}
		start := time.Now()
		var buf *debugBuffer
		if debug {
			buf = &debugBuffer{sw: sw}
			h(buf, r)
		} else {
			h(sw, r)
		}
		total := time.Since(start)
		status := sw.status()
		if buf != nil {
			status = buf.status()
		}
		tr.Finish(status, total)
		rm.requests.Add(1)
		if status >= 400 {
			rm.errors.Add(1)
		}
		rm.lat.Observe(total)
		if buf != nil {
			buf.emit(tr)
		}
	}
}

// RouteStat is one route's JSON metrics entry.
type RouteStat struct {
	Requests uint64  `json:"requests"`
	Errors   uint64  `json:"errors"`
	MeanUs   float64 `json:"mean_us"`
	P50Us    float64 `json:"p50_us"`
	P99Us    float64 `json:"p99_us"`
}

// ShardStatus is one shard's routing and quality state as /metrics
// reports it.
type ShardStatus struct {
	Shard    int    `json:"shard"`
	Endpoint string `json:"endpoint"`
	Members  int    `json:"members"`
	Healthy  bool   `json:"healthy"`
	// AckedEpoch is the last cluster epoch every member of this shard
	// acknowledged; EpochLag is how far that trails the serving epoch
	// (always 0 outside a rollout — the cutover barrier guarantees it).
	AckedEpoch uint64 `json:"acked_epoch"`
	EpochLag   uint64 `json:"epoch_lag"`
	Promotions uint64 `json:"promotions"`
	Errors     uint64 `json:"errors"`
	Technique  string `json:"technique,omitempty"`
	Advised    string `json:"advised,omitempty"`
	// Quality is the shard snapshot's ordering-quality report (the
	// paper's packing factor et al.), polled from the shard's admin API.
	Quality *server.QualityInfo `json:"quality,omitempty"`
}

// RouterReport is the router's JSON /metrics document.
type RouterReport struct {
	UptimeSeconds float64              `json:"uptime_seconds"`
	Epoch         uint64               `json:"epoch"`
	Snapshot      string               `json:"snapshot,omitempty"`
	Shards        int                  `json:"shards"`
	Strategy      string               `json:"strategy"`
	MaxReplicas   int                  `json:"max_replicas"`
	Fanouts       uint64               `json:"fanout_requests"`
	ShardErrors   uint64               `json:"shard_errors"`
	RelaxBytesOut uint64               `json:"relax_bytes_out"` // relax-frame bytes the SSSP exchange sent to shards
	RelaxBytesIn  uint64               `json:"relax_bytes_in"`  // and received from them
	CacheHits     uint64               `json:"cache_hits"`      // point reads answered from an epoch's reply cache
	CacheMisses   uint64               `json:"cache_misses"`    // and those that went to the shards
	CacheBytes    int64                `json:"cache_bytes"`     // the serving epoch's reply cache, as charged
	EpochsRetired uint64               `json:"epochs_retired"`  // superseded epochs drained and swept off the members
	RetireErrors  uint64               `json:"retire_errors"`   // member calls those sweeps could not complete
	Promotions    uint64               `json:"promotions"`
	Routes        map[string]RouteStat `json:"routes"`
	PerShard      []ShardStatus        `json:"per_shard"`
}

func (rt *Router) report() RouterReport {
	rep := RouterReport{
		UptimeSeconds: time.Since(rt.started).Seconds(),
		Shards:        rt.placement.Shards,
		Strategy:      rt.placement.Strategy,
		MaxReplicas:   rt.placement.MaxReplicas,
		Fanouts:       rt.fanouts.Load(),
		ShardErrors:   rt.shardErrors.Load(),
		RelaxBytesOut: rt.relaxBytesOut.Load(),
		RelaxBytesIn:  rt.relaxBytesIn.Load(),
		CacheHits:     rt.cacheHits.Load(),
		CacheMisses:   rt.cacheMisses.Load(),
		EpochsRetired: rt.epochsRetired.Load(),
		RetireErrors:  rt.retireErrors.Load(),
		Routes:        make(map[string]RouteStat),
	}
	es := rt.epoch.Load()
	if es != nil {
		rep.Epoch = es.epoch
		rep.Snapshot = es.snapshot
		rep.CacheBytes = es.replies.Bytes()
	}
	rt.metrics.mu.Lock()
	names := make([]string, 0, len(rt.metrics.routes))
	for name := range rt.metrics.routes {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		rm := rt.metrics.routes[name]
		snap := rm.lat.Snapshot()
		rep.Routes[name] = RouteStat{
			Requests: rm.requests.Load(),
			Errors:   rm.errors.Load(),
			MeanUs:   float64(rm.lat.Mean().Nanoseconds()) / 1000,
			P50Us:    float64(snap.P50.Nanoseconds()) / 1000,
			P99Us:    float64(snap.P99.Nanoseconds()) / 1000,
		}
	}
	rt.metrics.mu.Unlock()
	for s, sl := range rt.slots {
		st := ShardStatus{
			Shard:      s,
			Endpoint:   sl.activeEndpoint(),
			Members:    len(sl.endpoints),
			Healthy:    sl.healthy.Load(),
			AckedEpoch: sl.ackedEpoch.Load(),
			Promotions: sl.promotions.Load(),
			Errors:     sl.errors.Load(),
		}
		if es != nil && es.epoch > st.AckedEpoch {
			st.EpochLag = es.epoch - st.AckedEpoch
		}
		sl.mu.Lock()
		if sl.qualityOK {
			q := sl.quality
			st.Quality = &q
			st.Technique = sl.technique
			st.Advised = sl.advised
		}
		sl.mu.Unlock()
		rep.Promotions += st.Promotions
		rep.PerShard = append(rep.PerShard, st)
	}
	return rep
}

// wantsPrometheus mirrors graphd's format negotiation so the same
// scrape_config works against shards and router alike.
func wantsPrometheus(r *http.Request) bool {
	if f := r.URL.Query().Get("format"); f != "" {
		return f == "prometheus"
	}
	accept := r.Header.Get("Accept")
	return strings.Contains(accept, "text/plain") ||
		strings.Contains(accept, "application/openmetrics-text")
}

func (rt *Router) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if !wantsPrometheus(r) {
		writeJSON(w, http.StatusOK, rt.report())
		return
	}
	rep := rt.report()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	p := obs.NewProm(w)

	p.Gauge("graphd_cluster_uptime_seconds", "Seconds since the router started.")
	p.Sample("graphd_cluster_uptime_seconds", nil, rep.UptimeSeconds)
	p.Gauge("graphd_cluster_shards", "Shards in the cluster.")
	p.Sample("graphd_cluster_shards", nil, float64(rep.Shards))
	p.Gauge("graphd_cluster_epoch", "Serving cluster epoch (0 before the first publish).")
	p.Sample("graphd_cluster_epoch", nil, float64(rep.Epoch))

	p.Counter("graphd_cluster_requests_total", "Router requests served, by route.")
	p.Counter("graphd_cluster_request_errors_total", "Router requests answered with status >= 400, by route.")
	p.Summary("graphd_cluster_request_latency_seconds", "Router request latency by route (bucketed quantiles, conservative).")
	for _, name := range obs.SortedKeys(rep.Routes) {
		labels := []obs.Label{{Name: "route", Value: name}}
		rs := rep.Routes[name]
		p.Sample("graphd_cluster_requests_total", labels, float64(rs.Requests))
		p.Sample("graphd_cluster_request_errors_total", labels, float64(rs.Errors))
		writeRouterLatency(p, "graphd_cluster_request_latency_seconds", labels, &rt.metrics.route(name).lat)
	}

	p.Counter("graphd_cluster_fanout_total", "Shard sub-requests issued by the router.")
	p.Sample("graphd_cluster_fanout_total", nil, float64(rep.Fanouts))
	p.Counter("graphd_cluster_relax_bytes_total", "Relax frame bytes of the SSSP frontier exchange, by direction (out = router to shards).")
	p.Sample("graphd_cluster_relax_bytes_total", []obs.Label{{Name: "dir", Value: "out"}}, float64(rep.RelaxBytesOut))
	p.Sample("graphd_cluster_relax_bytes_total", []obs.Label{{Name: "dir", Value: "in"}}, float64(rep.RelaxBytesIn))

	p.Counter("graphd_cluster_cache_hits_total", "Point reads answered from an epoch's reply cache.")
	p.Sample("graphd_cluster_cache_hits_total", nil, float64(rep.CacheHits))
	p.Counter("graphd_cluster_cache_misses_total", "Point reads that went to the shards.")
	p.Sample("graphd_cluster_cache_misses_total", nil, float64(rep.CacheMisses))
	p.Gauge("graphd_cluster_cache_bytes", "Bytes charged to the serving epoch's reply cache.")
	p.Sample("graphd_cluster_cache_bytes", nil, float64(rep.CacheBytes))
	p.Counter("graphd_cluster_epochs_retired_total", "Superseded epochs drained and swept off the members.")
	p.Sample("graphd_cluster_epochs_retired_total", nil, float64(rep.EpochsRetired))
	p.Counter("graphd_cluster_retire_errors_total", "Member calls an epoch retirement could not complete.")
	p.Sample("graphd_cluster_retire_errors_total", nil, float64(rep.RetireErrors))

	p.Gauge("graphd_cluster_shard_healthy", "Shard reachability (1 = some member answering).")
	p.Gauge("graphd_cluster_shard_epoch", "Last cluster epoch every member of the shard acked.")
	p.Gauge("graphd_cluster_shard_epoch_lag", "Serving epoch minus the shard's acked epoch.")
	p.Counter("graphd_cluster_promotions_total", "Replica promotions, by shard.")
	p.Counter("graphd_cluster_shard_errors_total", "Failed shard sub-requests, by shard.")
	p.Gauge("graphd_cluster_shard_packing_factor", "Shard ordering quality: hot vertices per occupied cache block.")
	p.Gauge("graphd_cluster_shard_packing_utilization", "Shard packing factor relative to the contiguous-layout ideal.")
	p.Gauge("graphd_cluster_shard_hub_working_set_bytes", "Shard cache footprint of blocks holding hot vertices.")
	for _, st := range rep.PerShard {
		labels := []obs.Label{{Name: "shard", Value: strconv.Itoa(st.Shard)}}
		healthy := 0.0
		if st.Healthy {
			healthy = 1
		}
		p.Sample("graphd_cluster_shard_healthy", labels, healthy)
		p.Sample("graphd_cluster_shard_epoch", labels, float64(st.AckedEpoch))
		p.Sample("graphd_cluster_shard_epoch_lag", labels, float64(st.EpochLag))
		p.Sample("graphd_cluster_promotions_total", labels, float64(st.Promotions))
		p.Sample("graphd_cluster_shard_errors_total", labels, float64(st.Errors))
		if st.Quality != nil {
			p.Sample("graphd_cluster_shard_packing_factor", labels, st.Quality.PackingFactor)
			p.Sample("graphd_cluster_shard_packing_utilization", labels, st.Quality.Utilization)
			p.Sample("graphd_cluster_shard_hub_working_set_bytes", labels, float64(st.Quality.HubWorkingSetBytes))
		}
	}

	p.Flush()
}

// writeRouterLatency renders one LatencyHist as a Prometheus summary,
// matching graphd's quantile set.
func writeRouterLatency(p *obs.Prom, name string, labels []obs.Label, h *stats.LatencyHist) {
	sec := func(ns int64) float64 { return float64(ns) / 1e9 }
	snap := h.Snapshot()
	q := func(quantile string, v int64) {
		p.SummarySample(name, "", append(append([]obs.Label{}, labels...),
			obs.Label{Name: "quantile", Value: quantile}), sec(v))
	}
	q("0.5", snap.P50.Nanoseconds())
	q("0.9", snap.P90.Nanoseconds())
	q("0.99", snap.P99.Nanoseconds())
	p.SummarySample(name, "_sum", labels, sec(h.Sum().Nanoseconds()))
	p.SummarySample(name, "_count", labels, float64(snap.Count))
}
