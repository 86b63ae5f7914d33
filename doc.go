// Package graphreorder is a library of lightweight, skew-aware graph
// reordering techniques for cache-efficient graph analytics, built around
// Degree-Based Grouping (DBG) from "A Closer Look at Lightweight Graph
// Reordering" (Faldu, Diamond & Grot, IISWC 2019).
//
// # What it does
//
// Power-law graphs concentrate most edges on a few hot vertices. Because
// vertex properties are small (8-16 bytes) while cache lines hold 64,
// sparsely-scattered hot vertices waste most of the cache capacity that
// holds them. Reordering the vertex ID space packs hot vertices together
// — but reordering too finely destroys the community structure that real
// graph orderings encode, hurting the upper cache levels. DBG resolves
// the tension with coarse-grain grouping: vertices are binned into a few
// geometric degree classes, preserving relative order within each class.
//
// # Quick start
//
//	g, _ := graphreorder.GenerateDataset("sd", "small")
//	res, _ := graphreorder.Reorder(g, graphreorder.DBG(), graphreorder.OutDegree)
//	r, _ := graphreorder.Run(ctx, res.Graph, graphreorder.AppPR)
//	ranks, iters := r.Ranks(), r.Iterations
//
// The library also ships every baseline the paper evaluates (Sort,
// HubSort, HubCluster, Gorder, random reorderings), a Ligra-style
// vertex-centric framework with five benchmark applications, a
// trace-driven multi-core cache simulator, and a harness (cmd/reprobench)
// that regenerates every table and figure of the paper. reprobench -list
// indexes the experiments and EXPERIMENTS.md holds measured results.
//
// # The Run API
//
// Run(ctx, g, app, opts...) is the single execution entry point: every
// application (AppPR, AppPRD, AppSSSP, AppBC, AppRadii — or AppByName)
// runs through it, tuned by functional options (WithWorkers,
// WithMaxIters, WithTolerance, WithRoot, WithSamples, WithTracer,
// WithProgress), and returns a structured Result (typed value accessors,
// iteration count, per-round frontier sizes, edge counts, checksum,
// wall/compute timings).
//
// Cancellation is cooperative and round-grained: the context is polled
// once per EdgeMap round — never per edge — so it costs nothing on the
// hot path, and a cancel or deadline aborts the traversal at the next
// round boundary and returns ctx.Err().
// The same contract holds everywhere a context enters the system:
// cmd/reorder -timeout and cmd/reprobench -timeout, the harness's
// RunByIDContext, and graphd's query layer, which passes each request's
// context straight through to Run.
//
// # Reordering pipelines, quality metrics and the advisor
//
// Reordering techniques compose into pipelines: ComposeTechniques (or a
// "dbg|gorder" registry spec via TechniqueByName/ParsePipeline) chains
// stages left to right, each stage seeing the graph as relabeled by its
// predecessors, with the stage permutations composed into one. A
// Pipeline is itself a Technique; the single-technique entry points
// (Reorder, ReorderContext) are thin wrappers over one-stage
// pipelines, so the two forms are interchangeable. Pipeline
// cancellation is phase-grained like ReorderContext's: the context is
// checked between stages and before the CSR rebuild, never mid-stage.
//
// Every executed reordering reports the packing of the layout it
// produced in ReorderResult.Quality (an O(V) pass): the paper's packing
// factor — hot vertices per cache block holding at least one — against
// the contiguous-layout ideal and the hub working-set footprint in bytes.
// EvaluateOrdering(res.Graph, kind) adds the O(E) mean neighbor ID gap
// and predicted compression ratio. The contract: the metrics describe the
// returned graph's physical layout, are computed outside the timed
// ReorderTime/RebuildTime phases, and an edgeless graph reports zeros.
//
// Advise is the skew-gated ordering advisor. It measures degree skew
// (hot-vertex fraction, hot edge coverage — Table I) and remaining
// packing headroom (Table II) and recommends a hub-packing pipeline only
// when all gates pass; otherwise it recommends the identity, encoding
// the paper's finding that reordering low-skew graphs trades structure
// for nothing. The Recommendation carries the ready-to-run Pipeline,
// the measured evidence and a human-readable reason; TechniqueAuto()
// (registry spec "auto") is the advisor as a Technique. The advisor is
// deterministic: equal graphs yield equal recommendations. graphd
// consults it for BuildSpec.Technique "auto" (recording the verdict in
// the snapshot status) and re-advises live snapshots on every refresh;
// a live "auto" snapshot also refreshes when the verdict on its
// maintained degrees changes.
//
// # Workers and the determinism contract
//
// The execution engine is multicore. The Workers knob appears on
// Run's WithWorkers option, harness.Options.Workers,
// apps.Input.Workers and ligra.EdgeMapOpts.Workers, and means the same
// thing everywhere: how many goroutines a traversal or CSR build may
// use. In the internal layers the zero value (and 1) pins the
// sequential engine; on the public entry point (Run) 0 means
// GOMAXPROCS because it is the explicit "use the cores" surface, and
// WithWorkers(1) pins the deterministic sequential engine. What
// parallelism does to reproducibility is spelled out per path:
//
//   - CSR construction and Relabel are bit-identical at every worker
//     count: workers count/prefix/scatter over contiguous input chunks
//     (internal/graph's buildCSR and relabelLists), which preserves the
//     sequential edge order exactly.
//   - Pull-mode EdgeMap is bit-identical at every worker count: the
//     destination range is partitioned into contiguous 64-aligned chunks,
//     each destination is owned by one worker, and per-destination
//     accumulation runs in stored in-list order. PageRank's rank vector
//     is therefore reproducible to the last bit on any core count — and
//     so is PageRank-Delta's: the paper's PRD is push-only (Table VIII),
//     this one is destination-owned, every round a dense pull over
//     per-vertex contributions that are zero off the frontier, so no
//     float is ever added by compare-and-swap. A traced run executes and
//     simulates that same pull, not the paper's scattered writes.
//   - Push-mode EdgeMap is frontier-order-independent: the output
//     frontier is the same *set* at every worker count (claimed via
//     compare-and-swap on a word-level bitset), but its member order — and
//     the order in which update functions observe edges — depends on
//     interleaving. Integer-state applications (SSSP distances, Radii
//     estimates, BFS levels) still produce exact sequential answers;
//     the one float accumulator left on this path (BC path counts in its
//     push rounds) matches up to summation order.
//   - The graph backend changes none of the above: a compressed View
//     replays every neighbor list in stored order, so runs on it are
//     bit-identical to runs on the plain CSR exactly where the engine is
//     deterministic (any workers=1 run, PR and PRD at any worker count)
//     and agree with them like two plain runs agree elsewhere (parallel
//     push: SSSP and Radii exact, BC within summation order —
//     internal/apps/differential_test.go holds all of it at workers
//     1/2/4 on plain, csrz-heap and csrz-mmap, BC to a relative L1 of
//     1e-9).
//   - Tracing forces the sequential path: any run with a Tracer attached
//     is deterministic regardless of Workers, so cache-simulator traces
//     never depend on scheduling. A traced run executes the same
//     whole-list callbacks as an untraced one — the EdgeMap kernels
//     report each list they hand over — so it equals the untraced
//     one-worker run bit for bit.
//   - Cancellation does not perturb determinism: the per-round context
//     poll happens between rounds, so an uncanceled run executes exactly
//     the rounds it always did, and a canceled run returns ctx.Err()
//     with no partial result.
//
// A run owns its frontiers: each application refills two sets it
// alternates (BC keeps one per level for its backward sweep), so a
// steady-state round allocates nothing, and a finished or canceled run
// leaves nothing behind.
//
// # Dynamic graphs and the mutation/consistency contract
//
// DynamicGraph and DynamicReorderer implement the paper's §VIII-B
// evolving-graph deployment: edge updates arrive in batches, queries run
// against reordered snapshot views, and the ordering is refreshed only
// when the RefreshPolicy says so (every K batches) or the caller calls
// Refresh — graphd does, once a live snapshot's hot-vertex packing has
// decayed; in between the reordered CSR, which the DynamicGraph holds as its only copy of the
// edges, is patched under the stale permutation. The contract, both in the library and in graphd's mutable snapshots:
//
//   - Batches are atomic. Apply/ApplyGrow validates the whole batch
//     (including vertex growth and the batch's own internal
//     insert-then-remove dependencies, in order) before mutating
//     anything; an error means nothing changed — no partial batch, no
//     stale cached snapshot.
//   - Writers are serialized, readers never block. graphd queues writes
//     per snapshot behind a single refresher goroutine; reads keep
//     running on the last published immutable snapshot and can never
//     observe a half-applied batch.
//   - Publishes are epoch-bumped. Every published view carries a fresh
//     epoch, so epoch-keyed cached results can never leak across graph
//     versions, and a mutation receipt's epoch is a read-your-writes
//     token: any read reporting that epoch (or newer) reflects the
//     batch.
//   - Mutations address vertices in the snapshot's original (as-loaded)
//     ID space — the stable space /resolve translates from — while query
//     responses stay in the published serving order.
//   - Views handed out stay as they were. A patched view shares the
//     edge and weight arrays of the view before it, its edited lists
//     written into room no earlier view reads (Graph.Patch), so no byte
//     a handed-out view reads is written again, and every list a view
//     hands out is capped at its length: appending to it copies.
//     Graph.Compact lays a patched view out as a build would.
//
// # Durability and overload (graphd)
//
// With a durability directory configured (graphd -wal-dir, or
// server.Store.SetDurability), every mutable snapshot is crash-safe:
// each accepted batch is appended to a per-snapshot write-ahead log
// (CRC-checked, length-prefixed records) before it is applied, each
// publish seals its batches with an epoch record, and every
// CheckpointEvery-th publish folds the log into a binary checkpoint
// (whole-file checksum, atomic rename) and truncates it. Rebuilding a
// mutable name that is not live in-process recovers checkpoint + WAL —
// stopping cleanly at a torn or corrupt tail — and resumes the epoch
// counter past every receipt ever issued.
//
// The mutation receipt's contract splits into visibility and
// durability. Visibility is unconditional: a receipt means the batch
// was applied and its snapshot published — reads at the receipt's epoch
// (or newer) reflect it, durable or not. Durability depends on the
// fsync policy at the moment the receipt was issued. Under "always"
// (the default) the WAL was fsynced before the receipt returned, so an
// acked batch survives kernel panic and power loss, not just process
// death. Under "interval:<dur>" or "never" the append has reached the
// operating system (a crashed or killed graphd process loses nothing)
// but the tail since the last fsync can be lost by the machine itself;
// recovery then truncates to the last intact record, keeping the acked
// prefix. A WAL append or fsync failure refuses the batch's receipts
// (500, durability unknown) and a failed publish rolls the in-memory
// graph back to the last-good state, so memory and log never diverge.
// Graceful shutdown (SIGTERM/SIGINT within -shutdown-grace) drains
// in-flight requests and folds the WAL into a final fsynced checkpoint,
// so a clean stop never replays.
//
// Under overload graphd degrades before it collapses. Admission of
// traversal-heavy queries is deadline-aware: when the predicted queue
// wait (EWMA service time x queue depth over pool width) exceeds the
// request's remaining deadline, the request is refused immediately with
// 503 + Retry-After instead of burning its deadline in line. A shed
// falls back to graceful degradation first: if any epoch of the same
// query is still cached, it is served marked "stale": true with the
// metadata of the epoch that produced it. Every refusal is one
// request's alone: a worker panic is a 500 for the failing request, the
// query timeout ends an overrun, and no shed, panic or timeout refuses
// the request after it. /metrics reports shed counts per route, stale
// serves and WAL activity. The
// fault-injection points behind the chaos tests live in
// internal/faultinject and compile to no-ops unless armed; `graphd
// -selftest -chaos` kills the live graph a third of the way through a
// fixed list of operations, with no write in flight, recovers it while
// the list runs on, and fails if any acked write is missing afterwards
// or the recovery replayed no WAL batch.
package graphreorder
