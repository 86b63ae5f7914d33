package main

// Workload names.
const (
	wlBatch     = "batch-sd"
	wlBatchCSRZ = "batch-sd-csrz"
	wlServe     = "serve-sd"
	wlCluster   = "cluster-sd"
)

// metricDef names one metric. BENCHMARK.json carries the same names,
// units and directions (a test keeps the two from drifting) plus the
// regression bound of each end-to-end metric.
type metricDef struct {
	Name   string
	Unit   string
	Better string
	// On lists the workloads whose traced run measures a per-layer
	// metric; elsewhere the layer does no work and the metric reads 0.
	// End-to-end metrics are measured on every workload.
	On []string
}

// endToEnd lists the end-to-end metrics whose regression bound the driver
// enforces: the ones that survived the A/A calibration (CALIBRATION.md).
// Every workload emits every one of them. The timing metrics ISSUE 13
// defines did not survive it on the reference host; they are measured by
// every run all the same and reported as the per-layer metrics e2e.*.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower"},
	{Name: "peak_rss_mb", Unit: "MiB", Better: "lower"},
}

var (
	onBatch     = []string{wlBatch}
	onCSRZ      = []string{wlBatchCSRZ}
	onBothBatch = []string{wlBatch, wlBatchCSRZ}
	onServe     = []string{wlServe}
	onCluster   = []string{wlCluster}
	onServing   = []string{wlServe, wlCluster}
	onWriters   = []string{wlBatch, wlServe, wlCluster}
	onAll       = []string{wlBatch, wlBatchCSRZ, wlServe, wlCluster}
)

// demotedPrefix marks an end-to-end metric of ISSUE 13 that needs a wider
// bound than the issue allows and is therefore reported, not gated.
const demotedPrefix = "e2e."

// appNames is the suite, in the order one scan unit runs it.
var appNames = []string{"PR", "PRD", "SSSP", "BC", "Radii"}

// perLayer lists the metrics of single layers, measured by the traced
// run. The layers are this repository's packages.
var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	lower := func(name, unit string, on []string) metricDef {
		return metricDef{Name: name, Unit: unit, Better: "lower", On: on}
	}
	higher := func(name, unit string, on []string) metricDef {
		return metricDef{Name: name, Unit: unit, Better: "higher", On: on}
	}
	defs := []metricDef{
		lower("bench.trace_overhead_pct", "%", onAll),
		// The end-to-end timings, measured by the untraced units of every
		// run on the workloads ISSUE 13 names for each; reported, not gated.
		lower("e2e.scan_p50_ms", "ms", onAll),
		lower("e2e.scan_p95_ms", "ms", onServe),
		higher("e2e.point_ops_s", "1/s", onServing),
		higher("e2e.point_rw_ops_s", "1/s", onServe),
		lower("e2e.write_p50_ms", "ms", onWriters),

		lower("gen.generate_s", "s", onBatch),
		higher("gen.edges", "count", onBatch),

		lower("graph.build_ms", "ms", onBatch),
		lower("graph.relabel_ms", "ms", onBatch),
		lower("graph.write_binary_ms", "ms", onBatch),
		lower("graph.read_binary_ms", "ms", onBatch),

		lower("reorder.permute_ms", "ms", onBatch),
		lower("reorder.rebuild_ms", "ms", onBatch),
		lower("reorder.evaluate_ms", "ms", onBatch),
		lower("reorder.advise_ms", "ms", onBatch),
		higher("reorder.packing_factor", "count", onBatch),
		higher("reorder.predicted_ratio", "count", onBatch),

		lower("ligra.pull_ns_edge", "ns", onBatch),
		lower("ligra.push_ns_edge", "ns", onBatch),
		lower("ligra.pull_w1_ns_edge", "ns", onBatch),
		lower("ligra.push_w1_ns_edge", "ns", onBatch),
		lower("ligra.pull_csrz_ns_edge", "ns", onCSRZ),
		lower("ligra.push_csrz_ns_edge", "ns", onCSRZ),
		lower("ligra.pull_csrz_w1_ns_edge", "ns", onCSRZ),
		lower("ligra.push_csrz_w1_ns_edge", "ns", onCSRZ),
	}
	for _, app := range appNames {
		defs = append(defs,
			lower("apps."+app+"_ms", "ms", onBothBatch),
			lower("apps."+app+"_orig_ms", "ms", onBatch),
			higher("apps."+app+"_medges_s", "1/s", onBothBatch),
			lower("apps."+app+"_iters", "count", onBothBatch),
		)
	}
	defs = append(defs,
		lower("csrz.encode_ms", "ms", onCSRZ),
		lower("csrz.write_ms", "ms", onCSRZ),
		lower("csrz.open_ms", "ms", onCSRZ),
		lower("csrz.decode_ns_edge", "ns", onCSRZ),
		higher("csrz.ratio", "count", onCSRZ),
		lower("csrz.resident_mb", "MiB", onCSRZ),
		lower("csrz.file_mb", "MiB", onCSRZ),

		lower("cachesim.pr_l2_mpki_orig", "count", onServe),
		lower("cachesim.pr_l2_mpki_dbg", "count", onServe),
		lower("cachesim.pr_llc_mpki_orig", "count", onServe),
		lower("cachesim.pr_llc_mpki_dbg", "count", onServe),

		lower("dynamic.apply_us", "us", onServe),
		lower("dynamic.snapshot_ms", "ms", onServe),
		lower("dynamic.view_relabel_ms", "ms", onServe),
		lower("dynamic.view_refresh_ms", "ms", onServe),

		lower("wal.append_sync_us", "us", onServe),
		lower("wal.replay_ms", "ms", onServe),

		lower("server.neighbors_us", "us", onServe),
		lower("server.degree_us", "us", onServe),
		lower("server.rank_us", "us", onServe),
		lower("server.topk_us", "us", onServe),
		lower("server.sssp_cold_ms", "ms", onServe),
		lower("server.sssp_cached_us", "us", onServe),
		lower("server.neighbors_csrz_us", "us", onServe),
		lower("server.degree_csrz_us", "us", onServe),
		lower("server.http_overhead_us", "us", onServe),
		lower("server.point_p99_us", "us", onServe),
		lower("server.build_ms", "ms", onServe),
		higher("server.cache_hit_ratio", "count", onServe),
		higher("server.publishes", "count", onServe),
		lower("server.refresh_share", "count", onServe),
		lower("server.queue_p50_us", "us", onServe),
		lower("server.compute_p50_ms", "ms", onServe),
		lower("server.publish_pr_ms", "ms", onServe),
		lower("server.publish_unattributed_ms", "ms", onServe),

		lower("obs.sampling_cost_pct", "%", onServe),

		lower("cluster.partition_ms", "ms", onCluster),
		lower("cluster.balance_max_mean", "count", onCluster),
		higher("cluster.replicated_hubs", "count", onCluster),
		lower("cluster.global_ranks_ms", "ms", onCluster),
		lower("cluster.layout_write_ms", "ms", onCluster),
		lower("cluster.hop_us", "us", onCluster),
		lower("cluster.shard_reqs_per_req", "count", onCluster),
		lower("cluster.sssp_relax_rounds", "count", onCluster),
	)
	return defs
}

// workloadDef describes one workload. UnitSeconds is what one unit (a
// round or a cycle) takes on the 2-core reference host: -seconds divided
// by it fixes the number of measured units, so a run is a fixed list of
// operations whose length depends on the flag and never on the clock
// (rule N1). MinUnits is the floor below which medians stop being medians.
type workloadDef struct {
	Name        string
	Why         string
	UnitSeconds float64
	MinUnits    int
	run         func(*run) error
}

var workloads = []workloadDef{
	{
		Name:        wlBatch,
		Why:         "library path on a skewed unstructured graph: DBG reorder then the five apps, the paper's net-cost case; server, cluster, csrz and dynamic do no work",
		UnitSeconds: 1.9,
		MinUnits:    5,
		run:         runBatch,
	},
	{
		Name:        wlBatchCSRZ,
		Why:         "the same graph and apps on the compressed mmap backend: streaming varint decode instead of slice loads, memory is the point; reorder does no work while measuring",
		UnitSeconds: 2.4,
		MinUnits:    5,
		run:         runBatchCSRZ,
	},
	{
		Name:        wlServe,
		Why:         "in-process graphd over loopback HTTP: point reads, cold SSSP and live write batches with a reader beside them; server, dynamic, obs and net/http do the work",
		UnitSeconds: 6.5,
		MinUnits:    3,
		run:         runServe,
	},
	{
		Name:        wlCluster,
		Why:         "two shards behind the scatter-gather router on the serve-sd graph: placement, fan-out, merge, relax exchange and the epoch barrier price the hop",
		UnitSeconds: 6.4,
		MinUnits:    3,
		run:         runCluster,
	},
}

// defaultSeconds is BENCHMARK.json's run_seconds: the longest measured
// phase that lets the driver's 92 runs and two builds fit its 3420 s.
const defaultSeconds = 20

func findWorkload(name string) *workloadDef {
	for i := range workloads {
		if workloads[i].Name == name {
			return &workloads[i]
		}
	}
	return nil
}

func findMetric(defs []metricDef, name string) *metricDef {
	for i := range defs {
		if defs[i].Name == name {
			return &defs[i]
		}
	}
	return nil
}

// sizes fixes the length of every phase. ref is what BENCHMARK.json
// measures; tiny exists so that the tests can run every workload in
// seconds.
type sizes struct {
	Name string

	BatchScale    string // gen scale of the batch graph
	BatchVertices int    // overrides the scale's vertex count when > 0
	OrigReps      int    // traced run: suite repetitions on the original order

	ServeScale    string
	ServePointOps int // per client and cycle
	ServeSSSP     int // cold SSSP per client and cycle
	ServeBatches  int // write batches per cycle

	ClusterPointOps  int
	ClusterSSSP      int
	ClusterPublishes int

	ProbeReps int // repetitions of a cheap layer probe
}

var refSizes = sizes{
	Name:             "ref",
	BatchScale:       "large",
	BatchVertices:    393216,
	OrigReps:         3,
	ServeScale:       "small",
	ServePointOps:    40000,
	ServeSSSP:        40,
	ServeBatches:     18,
	ClusterPointOps:  15000,
	ClusterSSSP:      5,
	ClusterPublishes: 8,
	ProbeReps:        5,
}

var tinySizes = sizes{
	Name:             "tiny",
	BatchScale:       "tiny",
	OrigReps:         1,
	ServeScale:       "tiny",
	ServePointOps:    400,
	ServeSSSP:        4,
	ServeBatches:     4,
	ClusterPointOps:  300,
	ClusterSSSP:      2,
	ClusterPublishes: 2,
	ProbeReps:        1,
}
