package server

import (
	"net/http"

	"graphreorder/internal/obs"
)

// Prometheus exposition of /metrics. The JSON report stays the
// canonical form (and keeps its exact shape); this file renders the
// same counters in text format 0.0.4 under the graphd_ prefix, so a
// stock Prometheus scrape works with nothing but a scrape_config. The
// output is validated in tests and CI by obs.ValidateExposition, which
// keeps the writer and the format checker honest against each other.

func (s *Server) writePromMetrics(w http.ResponseWriter) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	rep := s.metricsReport()
	p := obs.NewProm(w)

	p.Gauge("graphd_uptime_seconds", "Seconds since the server started.")
	p.Sample("graphd_uptime_seconds", nil, rep.UptimeSeconds)

	s.metrics.WriteProm(p, "graphd")
	p.Counter("graphd_requests_shed_total", "Requests refused at admission, by route.")
	for _, name := range obs.SortedKeys(rep.Routes) {
		p.Sample("graphd_requests_shed_total", []obs.Label{{Name: "route", Value: name}}, float64(rep.Routes[name].Shed))
	}

	p.Gauge("graphd_cache_entries", "Result-cache entries.")
	p.Sample("graphd_cache_entries", nil, float64(rep.Cache.Entries))
	p.Gauge("graphd_cache_bytes", "Result-cache resident bytes.")
	p.Sample("graphd_cache_bytes", nil, float64(rep.Cache.Bytes))
	p.Counter("graphd_cache_hits_total", "Result-cache hits.")
	p.Sample("graphd_cache_hits_total", nil, float64(rep.Cache.Hits))
	p.Counter("graphd_cache_misses_total", "Result-cache misses.")
	p.Sample("graphd_cache_misses_total", nil, float64(rep.Cache.Misses))
	p.Counter("graphd_coalesced_total", "Heavy queries coalesced onto an in-flight leader.")
	p.Sample("graphd_coalesced_total", nil, float64(rep.Cache.Coalesced))
	p.Counter("graphd_stale_serves_total", "Degraded answers served from an older epoch's cache.")
	p.Sample("graphd_stale_serves_total", nil, float64(rep.Cache.StaleServes))

	p.Gauge("graphd_pool_capacity", "Heavy-query pool slots.")
	p.Sample("graphd_pool_capacity", nil, float64(rep.Pool.Capacity))
	p.Gauge("graphd_pool_in_use", "Heavy-query pool slots in use.")
	p.Sample("graphd_pool_in_use", nil, float64(rep.Pool.InUse))
	p.Counter("graphd_pool_rejected_total", "Heavy queries rejected by pool saturation.")
	p.Sample("graphd_pool_rejected_total", nil, float64(rep.Pool.Rejected))
	p.Counter("graphd_pool_shed_total", "Heavy queries shed at admission.")
	p.Sample("graphd_pool_shed_total", nil, float64(rep.Pool.Shed))

	p.Gauge("graphd_snapshots_published", "Snapshots in the serving table.")
	p.Sample("graphd_snapshots_published", nil, float64(rep.Snapshots.Published))
	p.Gauge("graphd_snapshots_draining", "Retired snapshots with queries still in flight.")
	p.Sample("graphd_snapshots_draining", nil, float64(rep.Snapshots.Draining))
	p.Counter("graphd_snapshot_swaps_total", "Hot-swaps of the current snapshot.")
	p.Sample("graphd_snapshot_swaps_total", nil, float64(rep.Snapshots.Swaps))
	if cur := rep.Snapshots.Current; cur != nil {
		p.Gauge("graphd_snapshot_epoch", "Epoch of the current snapshot.")
		p.Sample("graphd_snapshot_epoch", []obs.Label{{Name: "snapshot", Value: cur.Name}}, float64(cur.Epoch))
		p.Gauge("graphd_snapshot_packing_factor", "Ordering quality: hot vertices per occupied cache block.")
		p.Sample("graphd_snapshot_packing_factor", nil, cur.Quality.PackingFactor)
		p.Gauge("graphd_snapshot_packing_utilization", "Packing factor relative to the contiguous-layout ideal.")
		p.Sample("graphd_snapshot_packing_utilization", nil, cur.Quality.Utilization)
		p.Gauge("graphd_snapshot_hub_working_set_bytes", "Cache footprint of blocks holding hot vertices.")
		p.Sample("graphd_snapshot_hub_working_set_bytes", nil, float64(cur.Quality.HubWorkingSetBytes))
		// Space accounting of the serving representation — emitted for
		// every backend (plain reports ratio 1 and disk 0), so a
		// promcheck -require on these families holds on any deployment.
		p.Gauge("graphd_snapshot_bytes", "Current snapshot space by kind: resident vs plain adjacency bytes, and the mapped .csrz file size (0 when not file-backed).")
		backendLabel := obs.Label{Name: "backend", Value: cur.Backend}
		p.Sample("graphd_snapshot_bytes",
			[]obs.Label{{Name: "kind", Value: "resident_adjacency"}, backendLabel}, float64(cur.ResidentAdjBytes))
		p.Sample("graphd_snapshot_bytes",
			[]obs.Label{{Name: "kind", Value: "plain_adjacency"}, backendLabel}, float64(cur.PlainAdjBytes))
		p.Sample("graphd_snapshot_bytes",
			[]obs.Label{{Name: "kind", Value: "disk"}, backendLabel}, float64(cur.DiskBytes))
		p.Gauge("graphd_snapshot_compression_ratio", "Plain over resident adjacency bytes of the current snapshot (1 = plain backend).")
		p.Sample("graphd_snapshot_compression_ratio", nil, cur.CompressionRatio)
	}

	p.Counter("graphd_write_batches_total", "Applied write batches.")
	p.Sample("graphd_write_batches_total", nil, float64(rep.Writes.Batches))
	p.Counter("graphd_write_updates_total", "Edge updates inside applied batches.")
	p.Sample("graphd_write_updates_total", nil, float64(rep.Writes.Updates))
	p.Counter("graphd_write_failed_total", "Failed write batches.")
	p.Sample("graphd_write_failed_total", nil, float64(rep.Writes.Failed))
	p.Counter("graphd_write_rejected_total", "Writes refused at the door (queue full or closed).")
	p.Sample("graphd_write_rejected_total", nil, float64(rep.Writes.Rejected))
	p.Counter("graphd_publishes_total", "Snapshots published by live refreshers.")
	p.Sample("graphd_publishes_total", nil, float64(rep.Writes.Publishes))
	p.Counter("graphd_refreshes_total", "Publishes that recomputed the ordering.")
	p.Sample("graphd_refreshes_total", nil, float64(rep.Writes.Refreshes))
	p.Counter("graphd_relabels_total", "Publishes that reused the stale permutation.")
	p.Sample("graphd_relabels_total", nil, float64(rep.Writes.Relabels))
	p.Summary("graphd_write_latency_seconds", "Write latency: enqueue to published receipt.")
	obs.WriteLatencySummary(p, "graphd_write_latency_seconds", nil, &s.store.writes.lat)
	p.Summary("graphd_publish_stage_seconds", "Time per stage of a live publish: apply once per batch, the rest once per publish, the view stage by the path it took.")
	for i, stage := range publishStageNames {
		obs.WriteLatencySummary(p, "graphd_publish_stage_seconds",
			[]obs.Label{{Name: "stage", Value: stage}}, &s.store.writes.stages[i])
	}

	p.Counter("graphd_wal_records_total", "Write-ahead-log records appended.")
	p.Sample("graphd_wal_records_total", nil, float64(rep.WAL.Records))
	p.Counter("graphd_wal_bytes_total", "Write-ahead-log bytes appended.")
	p.Sample("graphd_wal_bytes_total", nil, float64(rep.WAL.Bytes))
	p.Counter("graphd_wal_fsyncs_total", "Write-ahead-log fsyncs.")
	p.Sample("graphd_wal_fsyncs_total", nil, float64(rep.WAL.Fsyncs))
	p.Counter("graphd_checkpoints_total", "Checkpoints written.")
	p.Sample("graphd_checkpoints_total", nil, float64(rep.WAL.Checkpoints))
	p.Counter("graphd_recoveries_total", "Successful checkpoint+WAL recoveries.")
	p.Sample("graphd_recoveries_total", nil, float64(rep.WAL.Recoveries))

	p.Counter("graphd_slow_traces_total", "Traces recorded in the slow-query ring.")
	p.Sample("graphd_slow_traces_total", nil, float64(rep.SlowTraces))

	p.Gauge("graphd_goroutines", "Current goroutine count.")
	p.Sample("graphd_goroutines", nil, float64(rep.Runtime.Goroutines))
	p.Gauge("graphd_heap_alloc_bytes", "Bytes of allocated heap objects.")
	p.Sample("graphd_heap_alloc_bytes", nil, float64(rep.Runtime.HeapAllocBytes))
	p.Gauge("graphd_heap_sys_bytes", "Heap memory obtained from the OS.")
	p.Sample("graphd_heap_sys_bytes", nil, float64(rep.Runtime.HeapSysBytes))
	p.Counter("graphd_gc_pause_seconds_total", "Cumulative GC stop-the-world pause time.")
	p.Sample("graphd_gc_pause_seconds_total", nil, rep.Runtime.GCPauseTotalMs/1000)
	p.Counter("graphd_gc_cycles_total", "Completed GC cycles.")
	p.Sample("graphd_gc_cycles_total", nil, float64(rep.Runtime.NumGC))

	p.Flush()
}
