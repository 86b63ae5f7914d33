// Package gen synthesizes the graph datasets used by the reproduction.
//
// The paper evaluates on eight large real-world/synthetic skewed graphs
// (kr, pl, tw, sd, lj, wl, fr, mp) plus two no-skew graphs (uni, road).
// The real datasets are multi-billion-edge downloads we cannot ship, so
// this package generates seeded synthetic stand-ins that reproduce the two
// properties the paper's phenomena depend on (§II-A):
//
//  1. power-law degree skew — a small fraction of hot vertices covers most
//     edges (Table I), and
//  2. community structure that may or may not be reflected in the vertex
//     *ordering*: "structured" datasets use community-local IDs with hubs
//     placed at community starts, "unstructured" ones shuffle IDs so the
//     same topology has no ordering locality.
//
// All generators are deterministic in Config.Seed.
package gen

import (
	"fmt"
	"math"
	"sort"

	"graphreorder/internal/graph"
	"graphreorder/internal/rng"
)

// Kind selects a generator family.
type Kind uint8

const (
	// RMAT is the recursive matrix generator (Chakrabarti et al.), used
	// for the synthetic kron dataset and, with equal quadrant weights,
	// for the uniform no-skew dataset.
	RMAT Kind = iota
	// Community generates a power-law graph with planted communities;
	// stands in for the paper's real-world datasets.
	Community
	// Road generates a 2-D lattice fragment with tiny, uniform degree;
	// stands in for the USA road network.
	Road
)

// String returns the generator family name.
func (k Kind) String() string {
	switch k {
	case RMAT:
		return "rmat"
	case Community:
		return "community"
	case Road:
		return "road"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Config fully describes a synthetic dataset.
type Config struct {
	Name        string
	Kind        Kind
	NumVertices int
	AvgDegree   float64
	Seed        uint64
	// Weighted attaches uniform random weights in [1, 64) to edges
	// (needed by SSSP).
	Weighted bool

	// Structured keeps community-local vertex IDs (ordering encodes the
	// community structure). When false, vertex IDs are randomly permuted,
	// destroying ordering locality while keeping the topology. Only
	// meaningful for Community graphs.
	Structured bool

	// RMAT quadrant probabilities (A+B+C <= 1; D is the remainder).
	A, B, C float64

	// Community parameters.
	PIntra      float64 // probability an edge stays inside its community
	ZipfS       float64 // destination-rank skew within a community
	DegreeAlpha float64 // Pareto shape of the out-degree distribution
	MinComm     int     // minimum community size
	MaxComm     int     // maximum community size
}

// Generate synthesizes the dataset described by cfg.
func Generate(cfg Config) (*graph.Graph, error) {
	g, _, err := GenerateWithCommunities(cfg)
	return g, err
}

// GenerateWithCommunities is Generate but additionally returns, for
// Community graphs, the community ID of every vertex (nil for other
// kinds). Tests use this to verify locality properties.
func GenerateWithCommunities(cfg Config) (*graph.Graph, []uint32, error) {
	edges, comm, err := SynthesizeEdges(cfg)
	if err != nil {
		return nil, nil, err
	}
	g, err := graph.BuildWith(edges, graph.BuildOptions{
		NumVertices:   cfg.NumVertices,
		Weighted:      cfg.Weighted,
		SortNeighbors: true,
		// The parallel build is bit-identical, so use the cores.
		Workers: -1,
	})
	if err != nil {
		return nil, nil, err
	}
	return g, comm, nil
}

// SynthesizeEdges produces the dataset's raw edge list (with weights if
// configured) without building any CSR. This is the integration point the
// paper's §VIII-A proposes: a reordering can be applied to the edge list
// before the one and only CSR construction, avoiding the post-reordering
// CSR rebuild that dominates reordering cost.
func SynthesizeEdges(cfg Config) ([]graph.Edge, []uint32, error) {
	if cfg.NumVertices <= 0 {
		return nil, nil, fmt.Errorf("gen: NumVertices must be positive, got %d", cfg.NumVertices)
	}
	if cfg.AvgDegree < 0 {
		return nil, nil, fmt.Errorf("gen: negative AvgDegree %v", cfg.AvgDegree)
	}
	var (
		edges []graph.Edge
		comm  []uint32
		err   error
	)
	switch cfg.Kind {
	case RMAT:
		edges, err = rmatEdges(cfg)
	case Community:
		edges, comm, err = communityEdges(cfg)
	case Road:
		edges, err = roadEdges(cfg)
	default:
		err = fmt.Errorf("gen: unknown Kind %d", cfg.Kind)
	}
	return edges, comm, err
}

// EdgeListDegrees computes per-vertex degrees of the given kind directly
// from an edge list (no CSR needed).
func EdgeListDegrees(edges []graph.Edge, n int, kind graph.DegreeKind) []uint32 {
	degs := make([]uint32, n)
	for _, e := range edges {
		switch kind {
		case graph.OutDegree:
			degs[e.Src]++
		case graph.InDegree:
			degs[e.Dst]++
		case graph.TotalDegree:
			degs[e.Src]++
			degs[e.Dst]++
		}
	}
	return degs
}

// weightStream is the stream index reserved for edge weights. The weights
// are a stream of their own, one draw per edge in emission order, so a
// generator draws each edge's weight as it appends the edge and no weight
// depends on how the topology streams are consumed.
const weightStream = 0xEED5

// weigher draws edge weights, uniform in [1, 64), or zeros when the dataset
// is unweighted.
type weigher struct{ r *rng.Rand }

func newWeigher(cfg Config) weigher {
	if !cfg.Weighted {
		return weigher{}
	}
	return weigher{rng.NewStream(cfg.Seed, weightStream)}
}

func (w weigher) next() uint32 {
	if w.r == nil {
		return 0
	}
	return uint32(1 + w.r.Intn(63))
}

func rmatEdges(cfg Config) ([]graph.Edge, error) {
	a, b, c := cfg.A, cfg.B, cfg.C
	if a == 0 && b == 0 && c == 0 {
		a, b, c = 0.25, 0.25, 0.25 // uniform
	}
	if a+b+c > 1.0001 {
		return nil, fmt.Errorf("gen: RMAT probabilities sum %v > 1", a+b+c)
	}
	n := cfg.NumVertices
	levels := 0
	for 1<<levels < n {
		levels++
	}
	m := int(float64(n) * cfg.AvgDegree)
	r, w := rng.NewStream(cfg.Seed, 1), newWeigher(cfg)
	edges := make([]graph.Edge, 0, m)
	for len(edges) < m {
		src, dst := 0, 0
		for l := 0; l < levels; l++ {
			u := r.Float64()
			// Add ±10% noise per level so degrees smear (standard practice).
			noise := 0.9 + 0.2*r.Float64()
			switch {
			case u < a*noise:
				// top-left: no bits set
			case u < (a+b)*noise:
				dst |= 1 << l
			case u < (a+b+c)*noise:
				src |= 1 << l
			default:
				src |= 1 << l
				dst |= 1 << l
			}
		}
		if src >= n || dst >= n {
			continue
		}
		edges = append(edges, graph.Edge{Src: graph.VertexID(src), Dst: graph.VertexID(dst), Weight: w.next()})
	}
	return edges, nil
}

// communityEdges generates a power-law community graph.
//
// Layout: vertices [0, N) are carved into communities of power-law sizes.
// Within a community, rank 0 is its most attractive vertex (the hub): edge
// destinations are drawn with Zipf(s) over community ranks, so low-rank
// vertices accumulate high in-degree. Out-degrees follow a bounded Pareto.
// With probability PIntra the destination community is the source's own;
// otherwise a community is chosen with probability proportional to its
// size (a uniformly random vertex's community).
func communityEdges(cfg Config) ([]graph.Edge, []uint32, error) {
	n := cfg.NumVertices
	pIntra := cfg.PIntra
	if pIntra == 0 {
		pIntra = 0.8
	}
	zipfS := cfg.ZipfS
	if zipfS == 0 {
		zipfS = 0.9
	}
	alpha := cfg.DegreeAlpha
	if alpha == 0 {
		alpha = 1.9
	}
	minC, maxC := cfg.MinComm, cfg.MaxComm
	if minC == 0 {
		minC = 16
	}
	if maxC == 0 {
		maxC = n / 8
		if maxC < minC {
			maxC = minC
		}
	}
	if minC > maxC {
		return nil, nil, fmt.Errorf("gen: MinComm %d > MaxComm %d", minC, maxC)
	}

	r := rng.NewStream(cfg.Seed, 2)

	// Carve communities with Pareto-distributed sizes.
	type community struct {
		start, size int
		zipf        rng.ZipfDist // destination ranks inside it, built once
	}
	var comms []community
	commOf := make([]uint32, n)
	start := 0
	for start < n {
		size := int(r.Pareto(float64(minC), 1.3))
		if size > maxC {
			size = maxC
		}
		if size > n-start {
			size = n - start
		}
		for v := start; v < start+size; v++ {
			commOf[v] = uint32(len(comms))
		}
		comms = append(comms, community{start, size, rng.NewZipfDist(size, zipfS)})
		start += size
	}

	// Out-degree per vertex: bounded Pareto scaled to hit AvgDegree.
	// E[bounded Pareto] drifts from the closed form, so draw first and
	// rescale to the exact edge budget.
	deg := make([]float64, n)
	var sum float64
	minDeg := 1.0
	for v := 0; v < n; v++ {
		d := r.Pareto(minDeg, alpha)
		if max := float64(n) / 4; d > max {
			d = max
		}
		deg[v] = d
		sum += d
	}
	// An unstructured dataset shuffles vertex IDs: same topology, no
	// ordering locality. The permutation is a stream of its own, so it is
	// drawn first and every edge is emitted under its final IDs.
	var perm []uint32
	if !cfg.Structured {
		perm = rng.NewStream(cfg.Seed, 3).Perm(n)
	}
	w := newWeigher(cfg)
	targetM := cfg.AvgDegree * float64(n)
	scale := targetM / sum
	edges := make([]graph.Edge, 0, int(targetM)+n)
	carry := 0.0
	for v := 0; v < n; v++ {
		want := deg[v]*scale + carry
		k := int(want)
		carry = want - float64(k)
		cv := &comms[commOf[v]]
		src := graph.VertexID(v)
		if perm != nil {
			src = perm[v]
		}
		for i := 0; i < k; i++ {
			var target *community
			if r.Float64() < pIntra {
				target = cv
			} else {
				// Size-weighted community choice: a uniformly random
				// vertex's community has exactly that distribution.
				target = &comms[commOf[r.Intn(n)]]
			}
			rank := r.ZipfOf(target.zipf)
			dst := graph.VertexID(target.start + rank)
			if int(dst) == v && target.size > 1 {
				dst = graph.VertexID(target.start + (rank+1)%target.size)
			}
			if perm != nil {
				dst = perm[dst]
			}
			edges = append(edges, graph.Edge{Src: src, Dst: dst, Weight: w.next()})
		}
	}

	if perm != nil {
		// The community labels are remapped to follow the vertices.
		shuffled := make([]uint32, n)
		for v := 0; v < n; v++ {
			shuffled[perm[v]] = commOf[v]
		}
		commOf = shuffled
	}
	return edges, commOf, nil
}

// roadEdges builds a partial 2-D lattice: each vertex links to its east
// and south neighbors independently with probability p chosen so the
// average out-degree matches cfg.AvgDegree (road networks have tiny,
// uniform degree; USA-road in the paper averages 1.2).
func roadEdges(cfg Config) ([]graph.Edge, error) {
	n := cfg.NumVertices
	side := int(math.Sqrt(float64(n)))
	if side < 2 {
		side = 2
	}
	p := cfg.AvgDegree / 2 // two candidate edges per vertex
	if p > 1 {
		p = 1
	}
	r, w := rng.NewStream(cfg.Seed, 4), newWeigher(cfg)
	var edges []graph.Edge
	at := func(x, y int) int { return y*side + x }
	for y := 0; y < side; y++ {
		for x := 0; x < side; x++ {
			v := at(x, y)
			if v >= n {
				continue
			}
			if x+1 < side && at(x+1, y) < n && r.Float64() < p {
				edges = append(edges, graph.Edge{Src: graph.VertexID(v), Dst: graph.VertexID(at(x+1, y)), Weight: w.next()})
			}
			if y+1 < side && at(x, y+1) < n && r.Float64() < p {
				edges = append(edges, graph.Edge{Src: graph.VertexID(v), Dst: graph.VertexID(at(x, y+1)), Weight: w.next()})
			}
		}
	}
	return edges, nil
}

// sortedCommunitySizes returns community sizes in descending order; used
// by tests to sanity-check the size distribution.
func sortedCommunitySizes(commOf []uint32) []int {
	counts := map[uint32]int{}
	for _, c := range commOf {
		counts[c]++
	}
	sizes := make([]int, 0, len(counts))
	for _, s := range counts {
		sizes = append(sizes, s)
	}
	sort.Sort(sort.Reverse(sort.IntSlice(sizes)))
	return sizes
}
