package partition

import (
	"context"
	"fmt"
	"sort"

	"graphreorder/internal/apps"
	"graphreorder/internal/graph"
	"graphreorder/internal/par"
)

// maxShards bounds a cluster: Placement.Homes packs shard membership
// into a uint64 bitmask.
const maxShards = 64

// Options configures a partitioning run.
type Options struct {
	// Shards is the number of partitions (1..64).
	Shards int
	// Strategy selects the edge-placement algorithm: "degree" (default)
	// is the degree-aware vertex cut, "hash" the baseline that sends all
	// of a vertex's out-edges to the shard its ID hashes to.
	Strategy string
	// MaxReplicas bounds how many shards a hub's out-edges may be split
	// across under "degree" (<= 0 means min(Shards, 4); always capped at
	// Shards). 1 disables hub splitting.
	MaxReplicas int
	// Workers is the CSR build parallelism for the per-shard subgraphs.
	// It never affects placement: shard assignment is a sequential greedy
	// pass, and parallel CSR builds are bit-identical to sequential ones,
	// so the same graph and options produce the same partition at any
	// worker count.
	Workers int
}

// Placement is the deterministic vertex-to-shard map a partitioning
// emits. Every shard subgraph stays in original-ID space (all shards
// share the full vertex range; a shard just holds a subset of the
// edges), so Placement is the only translation a router needs.
type Placement struct {
	NumVertices int    `json:"num_vertices"`
	Shards      int    `json:"shards"`
	Strategy    string `json:"strategy"`
	MaxReplicas int    `json:"max_replicas"`
	// Owner[v] is the shard that owns v: the rank/top-k authority.
	// Ownership partitions the vertex set.
	Owner []int32 `json:"owner"`
	// Homes[v] is the bitmask of shards holding v's out-edges (bit s =
	// shard s). A replicated hub has several bits set; every vertex has
	// at least its owner's bit set, so a zero-degree vertex still has a
	// home to answer for it.
	Homes []uint64 `json:"homes"`
}

// OwnerOf returns the shard owning vertex v.
func (p *Placement) OwnerOf(v graph.VertexID) int { return int(p.Owner[v]) }

// HomesOf returns the shards holding v's out-edges, ascending.
func (p *Placement) HomesOf(v graph.VertexID) []int {
	mask := p.Homes[v]
	out := make([]int, 0, 2)
	for s := 0; s < p.Shards; s++ {
		if mask&(1<<s) != 0 {
			out = append(out, s)
		}
	}
	return out
}

// Replicas reports how many shards hold v's out-edges.
func (p *Placement) Replicas(v graph.VertexID) int {
	mask := p.Homes[v]
	n := 0
	for ; mask != 0; mask &= mask - 1 {
		n++
	}
	return n
}

// BalanceReport describes how evenly a partitioning spread the edges.
type BalanceReport struct {
	EdgesPerShard []int `json:"edges_per_shard"`
	MaxEdges      int   `json:"max_edges"`
	// MeanEdges is total edges / shards; Balance is max/mean — 1.0 is a
	// perfect split, and the paper's skew argument predicts hash does
	// badly here exactly when reordering helps (power-law hubs).
	MeanEdges float64 `json:"mean_edges"`
	Balance   float64 `json:"max_mean_ratio"`
	// ReplicatedHubs counts vertices whose out-edges were split across
	// more than one shard.
	ReplicatedHubs int `json:"replicated_hubs"`
}

// Result is a completed partitioning: the placement map, the per-shard
// subgraphs (original-ID space, full vertex range, edge subset) and the
// balance achieved.
type Result struct {
	Placement Placement
	Graphs    []*graph.Graph
	Balance   BalanceReport
}

// splitmix64 is the SplitMix64 finalizer, the repo's standard cheap
// deterministic hash.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Partition splits g into opt.Shards subgraphs. Placement is fully
// deterministic: the same graph and options always yield the same
// result, regardless of Workers.
//
// The "degree" strategy is a longest-processing-time greedy over
// vertices in descending out-degree order (the classic LPT scheduling
// heuristic): each vertex's edge block goes to the currently lightest
// shard, and blocks above the hub threshold are first split into up to
// MaxReplicas contiguous chunks placed on distinct lightest shards —
// the degree-aware vertex cut. Processing heavy vertices first is what
// makes greedy balance well on power-law graphs; splitting hubs bounds
// the damage any single vertex can do to balance (and lets a router
// parallelize hub expansions). "hash" ignores degrees entirely and is
// kept as the baseline the experiments compare against.
func Partition(g *graph.Graph, opt Options) (*Result, error) {
	k := opt.Shards
	if k < 1 || k > maxShards {
		return nil, fmt.Errorf("cluster: shards must be 1..%d, got %d", maxShards, k)
	}
	strategy := opt.Strategy
	if strategy == "" {
		strategy = "degree"
	}
	r := opt.MaxReplicas
	if r <= 0 {
		r = 4
	}
	if r > k {
		r = k
	}
	n := g.NumVertices()
	owner := make([]int32, n)
	homes := make([]uint64, n)
	perShard := make([][]graph.Edge, k)
	load := make([]int, k)
	replicatedHubs := 0

	// Weights are decoded a list at a time into one reused buffer; the
	// list is empty on an unweighted graph.
	var wbuf []uint32
	weights := func(v graph.VertexID) []uint32 {
		wbuf = g.OutWeightList(v).Append(wbuf[:0])
		return wbuf
	}
	appendEdges := func(s int, v graph.VertexID, nbrs []graph.VertexID, wts []uint32) {
		for i, nb := range nbrs {
			e := graph.Edge{Src: v, Dst: nb}
			if len(wts) != 0 {
				e.Weight = wts[i]
			}
			perShard[s] = append(perShard[s], e)
		}
		load[s] += len(nbrs)
	}

	switch strategy {
	case "hash":
		for v := 0; v < n; v++ {
			s := int(splitmix64(uint64(v)) % uint64(k))
			owner[v] = int32(s)
			homes[v] = 1 << s
			id := graph.VertexID(v)
			appendEdges(s, id, g.OutNeighbors(id), weights(id))
		}
	case "degree":
		// Descending out-degree, ID-ascending ties: the LPT order.
		order := make([]int32, n)
		for v := range order {
			order[v] = int32(v)
		}
		sort.SliceStable(order, func(i, j int) bool {
			di, dj := g.OutDegree(graph.VertexID(order[i])), g.OutDegree(graph.VertexID(order[j]))
			if di != dj {
				return di > dj
			}
			return order[i] < order[j]
		})
		avgDeg := 0
		if n > 0 {
			avgDeg = g.NumEdges() / n
		}
		hubMin := 2 * avgDeg
		if hubMin < 16 {
			hubMin = 16
		}
		// lightest returns the c least-loaded shards, load- then
		// index-ascending (deterministic ties).
		idx := make([]int, k)
		lightest := func(c int) []int {
			for i := range idx {
				idx[i] = i
			}
			sort.Slice(idx, func(a, b int) bool {
				if load[idx[a]] != load[idx[b]] {
					return load[idx[a]] < load[idx[b]]
				}
				return idx[a] < idx[b]
			})
			return idx[:c]
		}
		for _, v32 := range order {
			v := graph.VertexID(v32)
			deg := g.OutDegree(v)
			if deg == 0 {
				// Spread rank authority for isolated vertices by hash.
				s := int(splitmix64(uint64(v)) % uint64(k))
				owner[v] = int32(s)
				homes[v] = 1 << s
				continue
			}
			chunks := 1
			if deg >= hubMin {
				chunks = deg / hubMin
				if chunks > r {
					chunks = r
				}
				if chunks < 1 {
					chunks = 1
				}
			}
			targets := lightest(chunks)
			nbrs, wts := g.OutNeighbors(v), weights(v)
			for c, s := range targets {
				lo, hi := c*deg/chunks, (c+1)*deg/chunks
				var cw []uint32
				if len(wts) != 0 {
					cw = wts[lo:hi]
				}
				appendEdges(s, v, nbrs[lo:hi], cw)
				homes[v] |= 1 << s
			}
			owner[v] = int32(targets[0])
			if chunks > 1 {
				replicatedHubs++
			}
		}
	default:
		return nil, fmt.Errorf("cluster: unknown strategy %q (want degree|hash)", strategy)
	}

	graphs := make([]*graph.Graph, k)
	for s := 0; s < k; s++ {
		sg, err := graph.BuildWith(perShard[s], graph.BuildOptions{
			NumVertices:   n,
			Weighted:      g.Weighted(),
			SortNeighbors: true,
			Workers:       opt.Workers,
		})
		if err != nil {
			return nil, fmt.Errorf("cluster: shard %d build: %w", s, err)
		}
		graphs[s] = sg
	}

	bal := BalanceReport{EdgesPerShard: load, ReplicatedHubs: replicatedHubs}
	for _, l := range load {
		if l > bal.MaxEdges {
			bal.MaxEdges = l
		}
	}
	bal.MeanEdges = float64(g.NumEdges()) / float64(k)
	if bal.MeanEdges > 0 {
		bal.Balance = float64(bal.MaxEdges) / bal.MeanEdges
	}
	return &Result{
		Placement: Placement{
			NumVertices: n,
			Shards:      k,
			Strategy:    strategy,
			MaxReplicas: r,
			Owner:       owner,
			Homes:       homes,
		},
		Graphs:  graphs,
		Balance: bal,
	}, nil
}

// GlobalRanks runs PageRank once on the full original-order graph; the
// result feeds every shard's rank file so merged rank/top-k answers
// come from a single global compute (per-shard PageRank would converge
// to the subgraph's ranks, not the graph's).
func GlobalRanks(ctx context.Context, g *graph.Graph, workers int) (ranks []float64, iters int, checksum float64, err error) {
	// Straight to the application registry (the same spec.Run the public
	// graphreorder.Run facade forwards to, so the bits match the
	// single-node server's), keeping this package importable from the
	// facade without a cycle.
	spec, err := apps.ByName("PR")
	if err != nil {
		return nil, 0, 0, err
	}
	out, err := spec.Run(apps.Input{
		Ctx:     ctx,
		Graph:   g,
		Workers: par.Resolve(workers),
	})
	if err != nil {
		return nil, 0, 0, err
	}
	return out.Values.([]float64), out.Iterations, out.Checksum, nil
}
