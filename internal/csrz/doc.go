// Package csrz is the compressed CSR backend: the same dual-CSR shape as
// internal/graph, with each neighbor list stored as byte-aligned
// delta+varint codes instead of 4-byte IDs, weights stored exactly as the
// plain graph stores them (once, for the out-direction, at the narrowest
// of 1, 2 or 4 bytes that holds the largest of them), and an mmap-able
// on-disk container (.csrz) for zero-copy snapshot loading.
//
// Weights are narrow because they are small, not because they have
// locality: every generator draws them from 1..63, so one byte each
// suffices (Ligra+ byte-codes weights for the same reason). The packing
// is internal/graph's (graph.WeightList): Encode copies the plain graph's
// packed bytes and width, Decode copies them back, and OutWeightList
// hands out a list's weights as stored, a sub-slice that hot loops read
// in place (the engine's push kernel fetches it only for a callback that
// set ligra.EdgeMapFns.Weights), as on the plain graph; WeightList.Append
// decodes them for everyone else. There are no in-weights: only a push reads weights. Container versions 1 and 2
// stored them anyway; their readers check that section's length and drop
// it unread.
//
// Reordering is what makes this pay: conf_iiswc_FalduDG19-style
// lightweight reordering shrinks the |neighbor - previous neighbor| gaps
// that the varints encode, so "reorder, then compress" (a reordering
// Technique with BuildSpec.Backend "compressed") turns locality directly
// into bytes.
// reorder.Evaluate's PredictedRatio is the exact post-relabel
// out-direction varint cost, taken in the same O(E) pass that measures
// AvgNeighborGap, so a caller can predict the ratio before encoding; it is
// run on demand (graphd's "auto" backend decision), not by every reorder.
//
// # Decode determinism
//
// Encoding preserves the stored order of every neighbor list (deltas are
// signed + zig-zag, not sorted-ascending), and decoding replays exactly
// that order through either decoder: the bulk Append{Out,In}Neighbors,
// which fills a caller's buffer in one pass and is what feeds the
// engine's EdgeMap kernels (through graph.AdjBuffer, one reused buffer
// per worker), and the streaming AdjIter, which materializes nothing and
// suits a reader that may stop early. This is a contract, not an implementation detail: the
// engine's float accumulations (PageRank's pull sums, BC's dependency
// sums) are evaluated in neighbor-list order, so order preservation
// makes a compressed run bit-identical to a plain run wherever the
// engine itself is deterministic — every workers=1 run, and the
// destination-owned PageRank and PageRank-Delta at any worker count:
// checksum, value vector and traversal shape are pinned against the
// one-worker plain run in internal/apps/differential_test.go, heap-backed
// and memory-mapped, at 1, 2 and 4 workers. Parallel push rounds (SSSP,
// BC, Radii at workers>1) claim vertices in scheduling order on either
// backend, so there the test pins what the engine guarantees: SSSP
// distances and Radii exact, BC — the one application that still adds
// floats by compare-and-swap — within a relative L1 of 1e-9. Both
// directions also keep the
// plain n+1 edge-index arrays, so parallel chunk balancing
// (par.BalancedBounds) splits work at exactly the same vertex
// boundaries as the plain backend.
//
// # Mmap retirement rules
//
// A Graph returned by OpenFile aliases a read-only file mapping; Close
// unmaps it, after which every AdjIter, neighbor slice, and index slice
// obtained from the Graph is invalid (touching one faults). The rules:
//
//  1. Only the owner (in graphd, the snapshot store) calls Close, and
//     only after the snapshot is unreachable from the published table
//     AND its reader refcount has drained to zero.
//  2. Readers never outlive their refcount: acquire, read, release.
//     An acquire that observes the snapshot retired must release and
//     retry against the fresh table instead of using the graph — the
//     owner may already have unmapped it. (Heap-backed snapshots can
//     tolerate use-after-retire because the GC keeps them alive; mapped
//     ones cannot, which is why the store's acquire path special-cases
//     closeable snapshots.)
//  3. Close is idempotent and safe to call from whichever of
//     publish/drop/last-release loses the race; sync.Once inside the
//     mapping does the arbitration.
//
// Heap-backed graphs (Encode, ReadCSRZ) have a no-op Close and no
// lifetime rules beyond the GC's. ReadCSRZ reads its stream into one
// buffer and parses it as OpenFile parses a mapping; the graph keeps that
// buffer whole, page padding and a version-1 or -2 file's unread
// in-weight section included. graphd and the benchmark load through
// OpenFile.
package csrz
