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
	UptimeSeconds float64                   `json:"uptime_seconds"`
	Epoch         uint64                    `json:"epoch"`
	Snapshot      string                    `json:"snapshot,omitempty"`
	Shards        int                       `json:"shards"`
	Strategy      string                    `json:"strategy"`
	MaxReplicas   int                       `json:"max_replicas"`
	Fanouts       uint64                    `json:"fanout_requests"`
	ShardErrors   uint64                    `json:"shard_errors"`
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
		Routes:        rt.metrics.Report(),
	}
	es := rt.epoch.Load()
	if es != nil {
		rep.Epoch = es.epoch
		rep.Snapshot = es.snapshot
		rep.CacheBytes = es.replies.Bytes()
	}
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

func (rt *Router) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if !obs.WantsPrometheus(r) {
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

	rt.metrics.WriteProm(p, "graphd_cluster")

	p.Counter("graphd_cluster_fanout_total", "Shard sub-requests issued by the router.")
	p.Sample("graphd_cluster_fanout_total", nil, float64(rep.Fanouts))
	p.Counter("graphd_cluster_relax_bytes_total", "Relax frame bytes of the SSSP frontier exchange, by direction (out = router to shards).")
	p.Sample("graphd_cluster_relax_bytes_total", []obs.Label{{Name: "dir", Value: "out"}}, float64(rep.RelaxBytesOut))
	p.Sample("graphd_cluster_relax_bytes_total", []obs.Label{{Name: "dir", Value: "in"}}, float64(rep.RelaxBytesIn))

	p.Counter("graphd_cluster_cache_hits_total", "Reads (point and SSSP) answered from an epoch's reply cache.")
	p.Sample("graphd_cluster_cache_hits_total", nil, float64(rep.CacheHits))
	p.Counter("graphd_cluster_cache_misses_total", "Reads (point and SSSP) computed from the shards or joined to a compute in flight.")
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
