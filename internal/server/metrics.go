package server

import (
	"sync"

	"graphreorder/internal/obs"
)

// RouteStats is the JSON view of one route's metrics: the entry both
// tiers share, plus the node's own shed count.
type RouteStats struct {
	obs.RouteStats
	// Shed counts requests this route refused at admission because the
	// predicted queue wait was past their deadline — including the ones
	// that were then answered from the stale cache.
	Shed uint64 `json:"shed,omitempty"`
}

// shedCounters counts refused admissions per route. It sits beside the
// shared registry rather than in it: a router never sheds, and its
// exposition must not carry a series it can never increment.
type shedCounters struct {
	mu sync.Mutex
	n  map[string]uint64
}

func (c *shedCounters) add(route string) {
	c.mu.Lock()
	if c.n == nil {
		c.n = make(map[string]uint64)
	}
	c.n[route]++
	c.mu.Unlock()
}

func (c *shedCounters) get(route string) uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.n[route]
}

// MetricsReport is the /metrics payload.
type MetricsReport struct {
	UptimeSeconds float64               `json:"uptime_seconds"`
	Routes        map[string]RouteStats `json:"routes"`
	Cache         CacheStats            `json:"cache"`
	Pool          PoolStats             `json:"pool"`
	Snapshots     SnapshotStats         `json:"snapshots"`
	Writes        WriteStats            `json:"writes"`
	WAL           WALStats              `json:"wal"`
	Runtime       RuntimeStats          `json:"runtime"`
}

// RuntimeStats reports the Go runtime beside the service counters.
type RuntimeStats struct {
	Goroutines int `json:"goroutines"`
}

// CacheStats reports result-cache and coalescing effectiveness.
type CacheStats struct {
	Entries   int    `json:"entries"`
	Bytes     int64  `json:"bytes"`
	Hits      uint64 `json:"hits"`
	Misses    uint64 `json:"misses"`
	Coalesced uint64 `json:"coalesced"`
	// StaleServes counts degraded answers served from an older epoch's
	// cached result while fresh compute was refused.
	StaleServes uint64 `json:"stale_serves"`
}

// PoolStats reports the heavy-query pool; its sheds are counted per
// route (RouteStats.Shed).
type PoolStats struct {
	Capacity int `json:"capacity"`
}

// SnapshotStats reports snapshot lifecycle counters plus the current
// snapshot's ordering quality, so packing degradation on a live graph is
// visible from /metrics without walking the snapshot list.
type SnapshotStats struct {
	Published int    `json:"published"`
	Draining  int    `json:"draining"`
	Swaps     uint64 `json:"swaps"`
	// Current describes the current snapshot's layout (absent before the
	// first publish).
	Current *CurrentSnapshotStats `json:"current,omitempty"`
}

// CurrentSnapshotStats is the /metrics digest of the current snapshot.
type CurrentSnapshotStats struct {
	Name      string      `json:"name"`
	Epoch     uint64      `json:"epoch"`
	Technique string      `json:"technique"`
	Quality   QualityInfo `json:"quality"`
	// Backend and the byte gauges describe the serving representation:
	// resident vs plain adjacency bytes, the .csrz file size behind a
	// mapped snapshot (0 otherwise), and the realized compression ratio
	// (1.0 on the plain backend). Always present, whatever the backend,
	// so capacity dashboards need no existence checks.
	Backend          string  `json:"backend"`
	ResidentAdjBytes int64   `json:"resident_adj_bytes"`
	PlainAdjBytes    int64   `json:"plain_adj_bytes"`
	DiskBytes        int64   `json:"disk_bytes"`
	CompressionRatio float64 `json:"compression_ratio"`
}

// snapshotStatsFor assembles SnapshotStats from a loaded table.
func snapshotStatsFor(tab *snapTable, st *Store) SnapshotStats {
	s := SnapshotStats{
		Published: len(tab.byName),
		Draining:  st.DrainingCount(),
		Swaps:     st.Swaps(),
	}
	if cur := tab.current; cur != nil {
		s.Current = &CurrentSnapshotStats{
			Name:             cur.name,
			Epoch:            cur.epoch,
			Technique:        cur.technique,
			Quality:          qualityInfo(cur.quality),
			Backend:          cur.backend,
			ResidentAdjBytes: cur.residentAdjBytes,
			PlainAdjBytes:    cur.plainAdjBytes,
			DiskBytes:        cur.onDiskBytes,
			CompressionRatio: cur.ratio,
		}
	}
	return s
}
