package cluster

import (
	"net/http"
	"strconv"
	"time"

	"graphreorder/internal/obs"
	"graphreorder/internal/server"
)

// ShardStatus is one shard's routing and quality state as /metrics
// reports it.
type ShardStatus struct {
	Shard   int  `json:"shard"`
	Healthy bool `json:"healthy"`
	// AckedEpoch is the last cluster epoch every member of this shard
	// acknowledged; EpochLag is how far that trails the serving epoch
	// (always 0 outside a rollout — the cutover barrier guarantees it).
	AckedEpoch uint64 `json:"acked_epoch"`
	EpochLag   uint64 `json:"epoch_lag"`
	Promotions uint64 `json:"promotions"`
	Errors     uint64 `json:"errors"`
	// Quality is the shard snapshot's ordering-quality report (the
	// paper's packing factor et al.), polled from the shard's admin API.
	Quality *server.QualityInfo `json:"quality,omitempty"`
}

// RouterReport is the router's JSON /metrics document.
type RouterReport struct {
	UptimeSeconds float64                   `json:"uptime_seconds"`
	Epoch         uint64                    `json:"epoch"`
	Shards        int                       `json:"shards"`
	Fanouts       uint64                    `json:"fanout_requests"`
	RelaxBytesOut uint64                    `json:"relax_bytes_out"` // relax-frame bytes the SSSP exchange sent to shards
	RelaxBytesIn  uint64                    `json:"relax_bytes_in"`  // and received from them
	CacheHits     uint64                    `json:"cache_hits"`      // reads (point and SSSP) answered from an epoch's reply cache
	CacheMisses   uint64                    `json:"cache_misses"`    // and those computed from the shards or joined to a compute in flight
	CacheBytes    int64                     `json:"cache_bytes"`     // the serving epoch's reply cache, as charged
	EpochsRetired uint64                    `json:"epochs_retired"`  // superseded epochs drained and swept off the members
	RetireErrors  uint64                    `json:"retire_errors"`   // member calls those sweeps could not complete
	Promotions    uint64                    `json:"promotions"`
	Routes        map[string]obs.RouteStats `json:"routes"`
	PerShard      []ShardStatus             `json:"per_shard"`
}

func (rt *Router) report() RouterReport {
	rep := RouterReport{
		UptimeSeconds: time.Since(rt.started).Seconds(),
		Shards:        rt.placement.Shards,
		Fanouts:       rt.fanouts.Load(),
		RelaxBytesOut: rt.relaxBytesOut.Load(),
		RelaxBytesIn:  rt.relaxBytesIn.Load(),
		CacheHits:     rt.cacheHits.Load(),
		CacheMisses:   rt.cacheMisses.Load(),
		EpochsRetired: rt.epochsRetired.Load(),
		RetireErrors:  rt.retireErrors.Load(),
		Routes:        rt.metrics.Report(),
	}
	es := rt.epoch.Load()
	if es != nil {
		rep.Epoch = es.epoch
		rep.CacheBytes = es.replies.Bytes()
	}
	for s, sl := range rt.slots {
		st := ShardStatus{
			Shard:      s,
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
		}
		sl.mu.Unlock()
		rep.Promotions += st.Promotions
		rep.PerShard = append(rep.PerShard, st)
	}
	return rep
}

func (rt *Router) handleMetrics(w http.ResponseWriter, r *http.Request) {
	rep := rt.report()
	if obs.WantsPrometheus(r) {
		obs.WriteFamilies(w, routerScrape{&rep, rt.metrics}, routerFamilies)
		return
	}
	writeJSON(w, http.StatusOK, rep)
}

// The router's Prometheus exposition (graphd_cluster_ prefix): one table
// with one entry per family, rendered by obs.WriteFamilies from the
// report the JSON form serves. Every family has a consumer named in
// README's "Prometheus exposition" table, and a test fails when the
// scraped families and that table differ.

// routerScrape is what one exposition reads: the JSON report, and the
// route registry behind its per-route families.
type routerScrape struct {
	*RouterReport
	routes *obs.MetricsSet
}

// shardFamily declares a family with one sample per shard, labelled by
// shard; v reports false for a shard without the value.
func shardFamily(name, typ, help string, v func(ShardStatus) (float64, bool)) obs.Family[routerScrape] {
	return obs.Family[routerScrape]{Name: name, Type: typ, Help: help, Samples: func(s routerScrape, out *obs.Series) {
		for _, st := range s.PerShard {
			if x, ok := v(st); ok {
				out.Add(x, obs.Label{Name: "shard", Value: strconv.Itoa(st.Shard)})
			}
		}
	}}
}

// quality reads a shard's ordering quality, absent until polled.
func quality(v func(*server.QualityInfo) float64) func(ShardStatus) (float64, bool) {
	return func(st ShardStatus) (float64, bool) {
		if st.Quality == nil {
			return 0, false
		}
		return v(st.Quality), true
	}
}

var routerFamilies = append(obs.RouteFamilies("graphd_cluster", func(s routerScrape) *obs.MetricsSet { return s.routes }),
	obs.Gauge("graphd_cluster_uptime_seconds", "Seconds since the router started.",
		func(s routerScrape) float64 { return s.UptimeSeconds }),
	obs.Gauge("graphd_cluster_shards", "Shards in the cluster.",
		func(s routerScrape) float64 { return float64(s.Shards) }),
	obs.Gauge("graphd_cluster_epoch", "Serving cluster epoch (0 before the first publish).",
		func(s routerScrape) float64 { return float64(s.Epoch) }),
	obs.Counter("graphd_cluster_fanout_total", "Shard sub-requests issued by the router.",
		func(s routerScrape) float64 { return float64(s.Fanouts) }),
	obs.Family[routerScrape]{Name: "graphd_cluster_relax_bytes_total", Type: "counter",
		Help: "Relax frame bytes of the SSSP frontier exchange, by direction (out = router to shards).",
		Samples: func(s routerScrape, out *obs.Series) {
			out.Add(float64(s.RelaxBytesOut), obs.Label{Name: "dir", Value: "out"})
			out.Add(float64(s.RelaxBytesIn), obs.Label{Name: "dir", Value: "in"})
		}},
	obs.Counter("graphd_cluster_cache_hits_total", "Reads (point and SSSP) answered from an epoch's reply cache.",
		func(s routerScrape) float64 { return float64(s.CacheHits) }),
	obs.Counter("graphd_cluster_cache_misses_total", "Reads (point and SSSP) computed from the shards or joined to a compute in flight.",
		func(s routerScrape) float64 { return float64(s.CacheMisses) }),
	obs.Gauge("graphd_cluster_cache_bytes", "Bytes charged to the serving epoch's reply cache.",
		func(s routerScrape) float64 { return float64(s.CacheBytes) }),
	obs.Counter("graphd_cluster_epochs_retired_total", "Superseded epochs drained and swept off the members.",
		func(s routerScrape) float64 { return float64(s.EpochsRetired) }),
	obs.Counter("graphd_cluster_retire_errors_total", "Member calls an epoch retirement could not complete.",
		func(s routerScrape) float64 { return float64(s.RetireErrors) }),
	shardFamily("graphd_cluster_shard_healthy", "gauge", "Shard reachability (1 = some member answering).",
		func(st ShardStatus) (float64, bool) {
			if st.Healthy {
				return 1, true
			}
			return 0, true
		}),
	shardFamily("graphd_cluster_shard_epoch", "gauge", "Last cluster epoch every member of the shard acked.",
		func(st ShardStatus) (float64, bool) { return float64(st.AckedEpoch), true }),
	shardFamily("graphd_cluster_shard_epoch_lag", "gauge", "Serving epoch minus the shard's acked epoch.",
		func(st ShardStatus) (float64, bool) { return float64(st.EpochLag), true }),
	shardFamily("graphd_cluster_promotions_total", "counter", "Replica promotions, by shard.",
		func(st ShardStatus) (float64, bool) { return float64(st.Promotions), true }),
	shardFamily("graphd_cluster_shard_errors_total", "counter", "Failed shard sub-requests, by shard.",
		func(st ShardStatus) (float64, bool) { return float64(st.Errors), true }),
	shardFamily("graphd_cluster_shard_packing_factor", "gauge", "Shard ordering quality: hot vertices per occupied cache block.",
		quality(func(q *server.QualityInfo) float64 { return q.PackingFactor })),
	shardFamily("graphd_cluster_shard_packing_utilization", "gauge", "Shard packing factor relative to the contiguous-layout ideal.",
		quality(func(q *server.QualityInfo) float64 { return q.Utilization })),
	shardFamily("graphd_cluster_shard_hub_working_set_bytes", "gauge", "Shard cache footprint of blocks holding hot vertices.",
		quality(func(q *server.QualityInfo) float64 { return float64(q.HubWorkingSetBytes) })),
)
