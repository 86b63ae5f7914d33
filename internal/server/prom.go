package server

import "graphreorder/internal/obs"

// The node's Prometheus exposition (text format 0.0.4, graphd_ prefix):
// one table with one entry per family, rendered by obs.WriteFamilies
// from the same report the JSON form serves. Every family has a
// consumer named in README's "Prometheus exposition" table, and a test
// fails when the scraped families and that table differ.

// scrape is what one exposition reads: the JSON report, and the
// registry and histograms behind its summaries.
type scrape struct {
	*MetricsReport
	routes *obs.MetricsSet
	writes *writeStats
}

// currentGauge declares a gauge of the current snapshot, absent from a
// scrape before the first publish.
func currentGauge(name, help string, v func(*CurrentSnapshotStats) float64) obs.Family[scrape] {
	return obs.Family[scrape]{Name: name, Type: "gauge", Help: help, Samples: func(s scrape, out *obs.Series) {
		if cur := s.Snapshots.Current; cur != nil {
			out.Add(v(cur))
		}
	}}
}

var nodeFamilies = append(obs.RouteFamilies("graphd", func(s scrape) *obs.MetricsSet { return s.routes }),
	obs.Gauge("graphd_uptime_seconds", "Seconds since the server started.",
		func(s scrape) float64 { return s.UptimeSeconds }),
	obs.Family[scrape]{Name: "graphd_requests_shed_total", Type: "counter", Help: "Requests refused at admission, by route.",
		Samples: func(s scrape, out *obs.Series) {
			for _, name := range obs.SortedKeys(s.Routes) {
				out.Add(float64(s.Routes[name].Shed), obs.Label{Name: "route", Value: name})
			}
		}},
	obs.Counter("graphd_cache_hits_total", "Result-cache hits.",
		func(s scrape) float64 { return float64(s.Cache.Hits) }),
	obs.Counter("graphd_cache_misses_total", "Result-cache misses.",
		func(s scrape) float64 { return float64(s.Cache.Misses) }),
	obs.Counter("graphd_stale_serves_total", "Degraded answers served from an older epoch's cache.",
		func(s scrape) float64 { return float64(s.Cache.StaleServes) }),
	obs.Gauge("graphd_pool_capacity", "Heavy-query pool slots.",
		func(s scrape) float64 { return float64(s.Pool.Capacity) }),
	obs.Gauge("graphd_snapshots_draining", "Retired snapshots with queries still in flight.",
		func(s scrape) float64 { return float64(s.Snapshots.Draining) }),
	obs.Counter("graphd_snapshot_swaps_total", "Hot-swaps of the current snapshot.",
		func(s scrape) float64 { return float64(s.Snapshots.Swaps) }),
	obs.Family[scrape]{Name: "graphd_snapshot_epoch", Type: "gauge", Help: "Epoch of the current snapshot.",
		Samples: func(s scrape, out *obs.Series) {
			if cur := s.Snapshots.Current; cur != nil {
				out.Add(float64(cur.Epoch), obs.Label{Name: "snapshot", Value: cur.Name})
			}
		}},
	currentGauge("graphd_snapshot_packing_factor", "Ordering quality: hot vertices per occupied cache block.",
		func(c *CurrentSnapshotStats) float64 { return c.Quality.PackingFactor }),
	currentGauge("graphd_snapshot_packing_utilization", "Packing factor relative to the contiguous-layout ideal.",
		func(c *CurrentSnapshotStats) float64 { return c.Quality.Utilization }),
	currentGauge("graphd_snapshot_hub_working_set_bytes", "Cache footprint of blocks holding hot vertices.",
		func(c *CurrentSnapshotStats) float64 { return float64(c.Quality.HubWorkingSetBytes) }),
	// Every backend reports all three kinds (plain: disk 0, ratio 1).
	obs.Family[scrape]{Name: "graphd_snapshot_bytes", Type: "gauge",
		Help: "Current snapshot space by kind: resident vs plain adjacency bytes, and the mapped .csrz file size (0 when not file-backed).",
		Samples: func(s scrape, out *obs.Series) {
			if cur := s.Snapshots.Current; cur != nil {
				backend := obs.Label{Name: "backend", Value: cur.Backend}
				out.Add(float64(cur.ResidentAdjBytes), obs.Label{Name: "kind", Value: "resident_adjacency"}, backend)
				out.Add(float64(cur.PlainAdjBytes), obs.Label{Name: "kind", Value: "plain_adjacency"}, backend)
				out.Add(float64(cur.DiskBytes), obs.Label{Name: "kind", Value: "disk"}, backend)
			}
		}},
	currentGauge("graphd_snapshot_compression_ratio", "Plain over resident adjacency bytes of the current snapshot (1 = plain backend).",
		func(c *CurrentSnapshotStats) float64 { return c.CompressionRatio }),
	obs.Counter("graphd_write_batches_total", "Applied write batches.",
		func(s scrape) float64 { return float64(s.Writes.Batches) }),
	obs.Counter("graphd_publishes_total", "Snapshots published by live refreshers.",
		func(s scrape) float64 { return float64(s.Writes.Publishes) }),
	obs.Counter("graphd_refreshes_total", "Publishes that recomputed the ordering.",
		func(s scrape) float64 { return float64(s.Writes.Refreshes) }),
	obs.Family[scrape]{Name: "graphd_write_latency_seconds", Type: "summary", Help: "Write latency: enqueue to published receipt.",
		Samples: func(s scrape, out *obs.Series) { out.Latency(&s.writes.lat) }},
	obs.Family[scrape]{Name: "graphd_publish_stage_seconds", Type: "summary",
		Help: "Time per stage of a live publish: apply once per batch, the rest once per publish, the view stage by the path it took.",
		Samples: func(s scrape, out *obs.Series) {
			for i, stage := range publishStageNames {
				out.Latency(&s.writes.stages[i], obs.Label{Name: "stage", Value: stage})
			}
		}},
	obs.Counter("graphd_checkpoints_total", "Checkpoints written.",
		func(s scrape) float64 { return float64(s.WAL.Checkpoints) }),
	obs.Counter("graphd_recoveries_total", "Successful checkpoint+WAL recoveries.",
		func(s scrape) float64 { return float64(s.WAL.Recoveries) }),
	obs.Gauge("graphd_goroutines", "Current goroutine count.",
		func(s scrape) float64 { return float64(s.Runtime.Goroutines) }),
)
