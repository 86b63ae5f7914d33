// Package server implements graphd: an HTTP/JSON graph-analytics query
// service on top of the repository's reordering library and multicore
// execution engine.
//
// The serving model follows the paper's economics: reordering a graph is
// a one-time cost paid at snapshot-build time (DBG by default — cheap,
// skew-aware), and the locality win is then amortized over every query
// served from that snapshot. Snapshots are immutable and hot-swappable:
// the store publishes a fresh table behind an atomic pointer, queries
// acquire their snapshot once at entry, and replaced snapshots drain
// naturally as in-flight queries finish — a swap never blocks or drops a
// request.
//
// Traversal queries (SSSP, Radii, top-k) run on a bounded worker pool
// under context deadlines, with duplicate in-flight requests coalesced
// (singleflight) and results kept in an LRU keyed by
// (snapshot epoch, app, params). The LRU is bounded in bytes and charges
// an entry what it keeps resident (EntryCost). An SSSP caches what its
// reply reads. Without a target that is an SSSPSummary: rounds, reached,
// unreachable and max distance, 32 bytes, no vector. With a target it is
// SSSPDistances, a DistVector — bit-packed at w = bits.Len64(max+1) bits
// per vertex, the fewest that hold the largest distance plus an all-ones
// unreachable sentinel (8 or 9 bits on sd) — and its summary, read only
// through At/Len/Bytes, so the target lookup and the stale-epoch
// fallback never see the width. A summary query is also answered from a
// vector of its epoch, and falls back to the newer of a stale summary
// and a stale vector. A target query needs a vector: where its epoch
// holds only a summary it computes, and when shed it falls back to a
// stale vector only, failing with 503 where there is none. A cached
// entry whose epoch a later one of the same snapshot replaced is evicted
// when that one is cached. The cluster router caches the same types by
// the same rule and answers with the same reply types.
//
// # Live snapshots
//
// A mutable snapshot republishes itself after every write batch
// (live.go), and re-reorders only when the vertex space changed, the
// served packing of a degree-based order fell more than 5% below the
// last re-reorder's, or an "auto" verdict changed. Its dynamic.Graph holds the edges once, as the CSR of the
// layout it last published: the build hands it the reordered view, so
// the original-order graph is dropped once the build ends. It exists
// again only while a checkpoint writes it or a refresh plans from it (one
// whose plan needs more than degrees; a degree-based plan and "auto"
// resolve from the degrees the graph maintains), and is dropped after
// use. Three things hold for what it publishes. No byte a published
// epoch reads is written again: a publish between refreshes patches the
// previous epoch's CSR (graph.Patch), writing the lists the batch edited
// into room past the end of every list an epoch reads and reading the
// untouched ones where the previous epoch does, under an index and list
// starts of its own; and nothing else of a snapshot that was ever
// published — ranks, permutation — is written again or recycled into a
// later epoch, because Snapshot.Graph hands those arrays out without a
// reference count. So the epochs alive at once (the served one, one a
// reader still drains, one being folded) share one set of edge and
// weight arrays and hold an O(V) index each (32 B a vertex: two
// directions of index and starts, 1.5 MiB on sd/small); a refresh, an
// insert that needs wider weights, or room spent (dead entries past
// m/8 + n, an eighth of the live entries plus one per vertex;
// graph.Patch) copies every list once, into fresh arrays. Ranks are warm: a
// live snapshot's PageRank starts from the previous epoch's vector, so it
// is within PageRank's tolerance of a cold computation on the same graph
// (each stops after an iteration that moved the vector by less than
// tol*n, which bounds its L1 distance to the fixed point by
// tol*n*d/(1-d)), not bit-equal to it; a built, rebuilt or recovered
// snapshot starts cold, as does the publish after a vertex-space change
// or a rollback. And a failed publish rolls the dynamic graph back by
// undoing its edit log to the last published state's mark
// (dynamic.Graph.RollbackTo): no copy of the graph is kept for it.
//
// Recovery restores every acknowledged batch, weights included. With
// durability on, a batch is on the write-ahead log before it is applied,
// and a checkpoint (the graph's CSR in original order, its lists sorted
// by (neighbor, weight)) folds the log every CheckpointEvery publishes; a build of a
// mutable name that is not live resumes from the last checkpoint and
// replays the log's batches on it. Replay lands on the acknowledged state
// because a removal names a (src, dst) and takes its heaviest instance
// (dynamic.Graph.ApplyGrow): the instance a removal takes is a function
// of the edge multiset, which the checkpoint holds, not of the order the
// instances arrived in, which it does not.
//
// A publish is the stage list publishStages (publish.go): view,
// precompute, encode, assemble. The snapshot's quality is its layout's
// packing (reorder.EvaluatePacking, O(V), in assemble); the O(E) quality
// pass runs only where encode resolves an "auto" backend. A snapshot
// build runs the same stages; only its view stage differs (buildOrder
// puts the loaded graph in the spec's order where a live publish asks
// dynamic.Reorderer.View), and BuildStatus reports the stage running.
// The build, the file loader and a live refresh all turn a technique into
// an order through reorder.Resolve, from a degree array and an edge count
// (the advisor's verdict included, for "auto"); only a plan that reads
// more than degrees (Gorder, random orders, compositions) runs on the
// graph itself. A build that would only relabel by degrees skips that
// copy: an immutable build from a file (not .csrz) keyed by out-degree
// loads through graph.ReadAutoOrdered, which asks the view stage for the
// order once the file's index is read and writes each edge straight into
// its relabeled slot. Only the served CSR is ever allocated, and the view
// stage just records the permutation and the advice. Every other build
// (in-degree keys, plans that read structure, .csrz sources, mutable
// builds, whose dynamic graph starts from the as-loaded one) loads, then
// relabels. On a live publish each stage is a span on
// the trace of every write the publish carries ("apply" precedes them,
// once per batch) and a sample of graphd_publish_stage_seconds{stage},
// with "swap" spanning assemble and the publish itself; the view span's
// suffix — view.patch or view.refresh — names the path the view stage
// took, and the trace's round count is the precompute's iteration count.
//
// # Instrumentation contract
//
// Every route is registered through obs.Instrument.Wrap (mounted in
// Handler), which owns the whole per-request observability pipeline;
// handlers never instrument themselves. The cluster router mounts the
// same front door, so what follows holds on both tiers, minus the parts
// the router leaves unset (sampler, slow ring, request log). The
// contract, for anyone adding a route or a pipeline stage:
//
//   - Tracing is two-tier. Unless Config.TraceSample is negative, every
//     request carries an *obs.Trace in its context (obs.FromContext) and
//     returns its ID in the X-Trace-Id header. The base tier records the
//     span breakdown only; the sampled "detailed" tier — a TraceSample
//     fraction of requests, forced by ?debug=trace — additionally
//     collects per-round traversal stats and emits one structured log
//     line per request.
//
//   - Spans name pipeline stages, not handlers. The stages a request can
//     cross are "cache" (result-cache lookup), "admit" (the
//     predicted-wait shed check), "queue" (waiting for a worker slot),
//     "compute" (the traversal itself), "flight" (a coalesced follower
//     waiting on the singleflight leader) and "encode" (JSON
//     serialization and socket write, measured from the first response
//     write). A stage that adds a new wait point must wrap it in
//     tr.Observe(name, start) — obs.Trace methods are nil-safe, so no
//     guard is needed. Spans attribute to the request whose closure ran
//     the work: the singleflight leader gets queue/compute, followers
//     get flight.
//
//   - ?debug=trace returns the finished trace inline, wrapping the
//     ordinary payload as {"trace": ..., "response": ...}; the inner
//     response stays byte-identical to the unwrapped one, the handler's
//     headers are kept, and a body that is not JSON (the Prometheus
//     exposition) passes through unwrapped. Requests
//     slower than Config.SlowThreshold (or answered >= 500) land in the
//     bounded /debug/slow ring as obs.TraceView values.
//
//   - /metrics renders one report, MetricsReport, as JSON or — under
//     content negotiation (Accept: text/plain or ?format=prometheus) —
//     as Prometheus text 0.0.4, which CI checks with
//     obs.ValidateExposition through cmd/promcheck. A signal is
//     declared once: a report field, and at most one entry of
//     nodeFamilies (prom.go) naming its family, type and help. It has a
//     consumer — a CI gate, a selftest check, a bench metric or a
//     README recipe, listed in README's exposition table, which a test
//     holds to the scrape — or it goes. A field stays in the JSON only
//     while something reads it. The per-route families come from
//     obs.RouteFamilies on both tiers; the node adds
//     graphd_requests_shed_total, because only a node sheds.
//
// The obs package holds the building blocks (Instrument, MetricsSet,
// Trace, Sampler, SlowRing, the Prometheus writer and validator); this
// package decides what to mount and adds the spans of its own stages.
package server
