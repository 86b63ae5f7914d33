// Package cluster shards a graph across multiple graphd processes and
// serves the ordinary single-node wire format from a scatter-gather
// router, so a client cannot tell a cluster from one big server.
//
// # Layers
//
// The partitioner (internal/cluster/partition, aliased here) splits the
// edge set across shards. The "hash" baseline sends all of a vertex's
// out-edges to the shard its ID hashes to — on a power-law graph the
// shard that draws the biggest hubs hotspots, the placement-level
// analogue of the cache-line skew the paper's reordering fixes. The
// "degree" strategy (default) is a degree-aware vertex cut: hub
// out-edge lists are split across up to MaxReplicas shards, chosen
// greedily by current load, so no single shard inherits a whole hub.
// Every edge is assigned to exactly one shard; per-shard subgraphs keep
// the full vertex range in original-ID space, so no ID translation
// exists anywhere in the read path. Placement is deterministic: the
// same graph and options yield the same partition at any worker count.
//
// Each shard then reorders its own subgraph with the skew-gated "auto"
// advisor — a shard's degree skew differs from the global graph's, so
// per-shard advice can differ per shard; the router's /metrics
// aggregates the resulting per-shard quality reports.
//
// The Router fans queries out and merges partial results:
//
//   - neighbors(v): out-direction goes to v's home shards, in-direction
//     to all shards; sorted lists are merged and deduplication is
//     unnecessary because each edge lives on exactly one shard.
//   - degree(v): same scatter; partial degrees sum.
//   - rank(v): answered by v's owner shard alone — every shard holds
//     the full global PageRank vector (computed once on the unsharded
//     graph), with an owned-vertex bitmap marking its partition slice.
//   - topk: every shard reports the k best over its owned set; owned
//     sets partition the vertex space, so the merged k-best of the
//     union is exact and bit-identical to single-node answers.
//   - sssp: the router owns the distance array and runs frontier
//     exchange (below) until the frontier drains. It caches what the
//     node caches, by the node's rule: a query without a target keeps
//     the node's server.SSSPSummary (or reads a vector its epoch already
//     holds), a query with one keeps server.SSSPDistances — the vector
//     bit-packed at the width its largest distance needs, its summary
//     computed once — so every reply, hit or miss, is that summary plus
//     at most one lookup of ?target=.
//
// Replies are the node's types (server.NeighborsResult and the rest),
// so a merged answer matches a single node's key for key because it is
// built by the same code. Every read goes through one function, read:
// the epoch's reply cache (below), then the node's flight group
// (server.FlightGroup, keyed "<epoch>|<key>"), so concurrent misses of
// one point read or one SSSP source share one compute, then the compute,
// which pins the epoch and runs detached from the request that started
// it under a time limit. A caller whose request ends stops waiting and
// gets the 504 of a context error; the compute goes on for the others.
//
// # SSSP frontier exchange
//
// A distributed Bellman-Ford in rounds. Each round the router sends
// every shard the frontier vertices that shard homes (Placement.Homes),
// with their settled distances; the shard relaxes those vertices'
// out-edges and answers with one candidate distance per destination it
// reached; the router folds all candidates into its distance array, and
// the vertices that improved are the next frontier.
//
// The wire: both directions of POST /v1/shard/relax carry one
// server.RelaxFrame, the single codec both ends import —
//
//	"RLX" 0x01    magic and format version
//	count         entries that follow (at most 1<<20)
//	relaxed       out-edges the shard scanned (0 in requests)
//	count × { gap, dist }
//
// every integer a shortest-form uvarint, gap the vertex ID's distance
// to the previous entry's (the ID itself for the first; at least 1
// after), so IDs are strictly ascending, and dist below
// server.RelaxInf. The decoder validates all of it against the vertex
// count and accepts exactly the frames the encoder produces.
//
// The ID-space rule: frames speak original IDs, the one coordinate
// system independently reordered shards share. A shard translates only
// at the boundary — perm[v] once per frontier vertex in, inv[u] once
// per candidate out — and relaxes in its snapshot's own order in
// between, so per-edge candidate writes land where its reordering
// packed the hot vertices. Both ends keep dense per-vertex state (the
// shard a pooled candidate array, the router a queued-this-round
// bitset) and emit by sweeping it, which is what makes both lists
// ascending without a sort.
//
// The stateless contract: a relax call reads its frame and the pinned
// snapshot and nothing else, and leaves nothing behind. Any member of a
// shard can serve any round, so a member dying mid-query costs one
// retried hop, not the query. The price is that a shard cannot drop
// candidates the router already beats; it returns them all.
//
// # Epoch-consistent cutover
//
// A publish (PublishEpoch) builds snapshot <base>@<E> on every member
// of every shard and barriers on all acks: the router polls each build
// until ready, and only when the last member acks does a single atomic
// pointer swap make epoch E the serving epoch. Reads pin the snapshot
// name, so a request is served entirely at one epoch — no torn reads
// across shards, and a failed build on any member leaves the previous
// epoch serving untouched. Per-shard acked epochs and the resulting
// epoch lag are exported in /metrics. Publishes run one at a time, so
// epochs become the serving one in the order they were numbered.
//
// # An epoch is immutable, and only the router knows who still reads it
//
// Data changes only by publishing, so every reply is a pure function of
// (epoch, request). The router's record of an epoch (epochState) is
// therefore also the owner of everything derived from it:
//
//   - The reply cache: a byte-budgeted LRU (server.ResultCache, the one
//     LRU of both tiers) of the encoded 200 bodies of neighbors, degree,
//     rank and topk, keyed by the handler's parsed parameters — the
//     order and spelling of a query string do not matter, and no epoch is
//     in the key. A hit is one lookup and one Write of the bytes the miss
//     sent; the X-Cache: hit|miss header is the only difference. Errors
//     are never cached; ?debug=trace wraps the same bytes in an envelope
//     built per request, whose trace shows the lookup as a "cache" span.
//     Concurrent misses of one read coalesce onto one compute (read,
//     above). The same LRU holds the SSSP distance vectors, keyed by
//     source and charged at their packed size (w bits per vertex, w the
//     width the largest distance needs), so hot sources stay as long as
//     the byte budget allows; a
//     failed exchange is never cached.
//
// It is reachable only through the epochState a request acquired, so
// nothing cached can answer across epochs by construction, and a cutover
// needs no invalidation pass: the pointer swap drops the only path to
// the old epoch's caches. A store that loses the race with a cutover
// lands in the dead epoch's cache and is collected with it. What a cache
// entry may outlive is its members, never its epoch: a reply cached
// before a shard's primary died is still the right answer and is served
// without asking the shard; the first read that has to be computed fails
// over and promotes as usual.
//
// The lifecycle contract — who drops an epoch's snapshots, and when. The
// router counts references per epoch: one for being the serving epoch,
// one per request in flight (taken in serving(), which never revives an
// epoch whose count reached zero and retries on the successor instead),
// one per running compute. The publish that supersedes an epoch
// releases its serving reference; whoever releases the last one retires
// the epoch, on its own goroutine, exactly once:
//
//   - drain before drop: no snapshot of an epoch is deleted while a
//     reference to it is held. A request parked on a stalled member
//     across any number of publishes completes at the epoch it started
//     on, and retires that epoch as it returns (the last reader of a dead
//     epoch pays for the sweep; its reply is written after it);
//   - when nothing is pinned at the swap, the superseded epoch is retired
//     before PublishEpoch returns;
//   - retiring first has every member activate the serving epoch — a
//     member's own "current" follows the cluster, so the boot epoch does
//     not stay undroppable — then sweeps by listing: every "<base>@k" a
//     member holds with k below the serving epoch is deleted unless an
//     undrained epoch still pins it. Orphans of failed publishes and
//     deletes an unreachable member missed go with the next sweep;
//     "<base>@k" above the serving epoch is a rollout in progress and is
//     left alone;
//   - best effort, counted: a failed member call adds to
//     graphd_cluster_retire_errors_total and never fails the publish,
//     which has already swapped. graphd_cluster_epochs_retired_total
//     counts retirements; in steady state every member lists exactly one
//     "<base>@*".
//
// # Instrumentation contract
//
// Every route is registered through obs.Instrument.Wrap (mounted in
// Handler) — the front door a node mounts too; internal/server/doc.go
// states the contract. The router fills in the registry alone: no
// sampler, so its only detailed traces are the ?debug=trace ones; no
// slow ring and no request log, so it has no /debug/slow. Its own spans
// are "cache", "flight" (a coalesced caller waiting on the compute),
// "fanout", "merge" and one "shard<i>" per shard asked; a
// handler adding a wait point wraps it in tr.Observe or tr.Accumulate.
// /metrics renders RouterReport as JSON or, from one table
// (routerFamilies in routermetrics.go), as Prometheus text; the
// per-route families come from the shared registry under the
// graphd_cluster prefix, and the node's rule holds: one declaration per
// signal, each with a consumer in README's exposition table.
//
// # Failure handling
//
// Each shard has one or more members (replicas serving identical
// data). A request tries the shard's active member first; a transport
// error (a reply cut short mid-body included) or 5xx fails over to the
// next member and, on success, promotes it to active — client-visible
// errors (4xx) pass through verbatim and never fail over. A background health loop probes members and keeps
// the active index pointing at a live one, so a killed primary costs at
// most the requests in flight on it, which the per-request failover
// retries on the replica: the selftest asserts zero lost requests
// across a mid-run kill.
//
// The cluster tier is read-only by design: mutations, WAL durability
// and live refresh stay single-node concerns (PRs 2-7); a cluster
// serves immutable partitioned epochs and changes data only by
// publishing the next epoch.
package cluster
