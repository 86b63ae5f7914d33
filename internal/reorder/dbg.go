package reorder

import (
	"fmt"
	"math"

	"graphreorder/internal/graph"
)

// DBG is Degree-Based Grouping (Listing 1 of the paper): vertices are
// partitioned into K groups by geometric degree ranges and, crucially, the
// original relative order of vertices *within* each group is preserved.
// Groups are laid out hottest-first, so all hot vertices occupy a small
// contiguous region while structure is preserved at a coarse grain.
//
// Boundaries are expressed as multiples of the dataset's average degree A.
// The zero value is not useful; construct with NewDBG or NewDBGBounds.
type DBG struct {
	// boundsOfA holds group lower bounds as multiples of A, strictly
	// descending, ending at 0. Group k (0-based, hottest first) holds
	// vertices with degree in [boundsOfA[k]*A, boundsOfA[k-1]*A).
	boundsOfA []float64
}

// NewDBG returns DBG with the paper's evaluated configuration (§V-C):
// 8 groups with ranges [32A,∞), [16A,32A), [8A,16A), [4A,8A), [2A,4A),
// [A,2A), [A/2,A), [0,A/2) — note the cold vertices are split in two.
func NewDBG() *DBG {
	return &DBG{boundsOfA: []float64{32, 16, 8, 4, 2, 1, 0.5, 0}}
}

// NewDBGBounds returns DBG with custom group lower bounds, given as
// strictly descending multiples of the average degree; the last bound must
// be 0 so the groups cover every degree. Used by the group-count ablation.
func NewDBGBounds(boundsOfA []float64) (*DBG, error) {
	if len(boundsOfA) == 0 {
		return nil, fmt.Errorf("reorder: DBG needs at least one group")
	}
	for i := 1; i < len(boundsOfA); i++ {
		if boundsOfA[i] >= boundsOfA[i-1] {
			return nil, fmt.Errorf("reorder: DBG bounds must be strictly descending, got %v", boundsOfA)
		}
	}
	if boundsOfA[len(boundsOfA)-1] != 0 {
		return nil, fmt.Errorf("reorder: DBG bounds must end at 0, got %v", boundsOfA)
	}
	cp := append([]float64(nil), boundsOfA...)
	return &DBG{boundsOfA: cp}, nil
}

// maxGeometricGroups caps NewDBGGeometric's k: the spec arrives from
// outside (-technique, POST /v1/snapshots) and sizes two allocations, and
// past it the bounds overflow a float64 anyway.
const maxGeometricGroups = 1024

// NewDBGGeometric returns DBG with k geometric groups [0,C), [C,2C),
// [2C,4C)... (Table V's formulation) with the paper's threshold C = A/2,
// so k = 8 is NewDBG. k must be in [2, 1024].
func NewDBGGeometric(k int) (*DBG, error) {
	if k < 2 || k > maxGeometricGroups {
		return nil, fmt.Errorf("reorder: NewDBGGeometric(k=%d): need k>=2 and k<=%d", k, maxGeometricGroups)
	}
	bounds := make([]float64, k)
	// Hottest group first: bounds are 2^(k-3), ..., 1, 0.5, 0.
	for i := 0; i < k-1; i++ {
		bounds[i] = 0.5 * math.Pow(2, float64(k-2-i))
	}
	return &DBG{boundsOfA: bounds}, nil
}

// Name implements Technique.
func (d *DBG) Name() string { return "DBG" }

// NumGroups returns the number of degree groups.
func (d *DBG) NumGroups() int { return len(d.boundsOfA) }

// GroupBounds returns the group lower bounds as multiples of A, hottest
// group first; the caller must not modify the slice.
func (d *DBG) GroupBounds() []float64 { return d.boundsOfA }

// Permute implements Technique.
func (d *DBG) Permute(g *graph.Graph, kind graph.DegreeKind) (Permutation, error) {
	return degreeBasedPermute(g, kind, d)
}

// PermuteDegrees implements DegreeBased. It is the direct realization of
// Listing 1: a stable two-pass counting layout — count group sizes, prefix
// sum, then scatter vertices in original order. O(V), no sorting.
func (d *DBG) PermuteDegrees(degs []uint32, avg float64) Permutation {
	return stableGroupLayout(degs, d.groupFunc(avg), len(d.boundsOfA))
}

// groupFunc returns the group function for a dataset of average degree
// avg: the index of the first (hottest) group whose lower bound the
// degree reaches. The scan is linear — K is 8 in the evaluated
// configuration.
func (d *DBG) groupFunc(avg float64) func(uint32) int {
	bounds := make([]uint32, len(d.boundsOfA))
	for i, m := range d.boundsOfA {
		bounds[i] = degreeThreshold(m * avg)
	}
	return func(deg uint32) int {
		for k, b := range bounds {
			if deg >= b {
				return k
			}
		}
		return len(bounds) - 1
	}
}

// degreeThreshold turns a group bound into the smallest degree that
// reaches it: rounded up, so a bound of exactly avg keeps the paper's "hot
// means degree >= A" rule, and saturated, so a bound past the uint32 range
// (dbg:<k> with a large k) admits no vertex instead of converting to
// garbage that may admit all of them.
func degreeThreshold(bound float64) uint32 {
	if bound = math.Ceil(bound); bound >= math.MaxUint32 {
		return math.MaxUint32
	}
	return uint32(bound)
}

// stableGroupLayout is Table V's one algorithm, and the only function
// that assigns IDs by degree: all vertices of group 0 come first (in
// original relative order), then group 1, etc. Sort, HubSort, HubCluster
// and DBG differ only in groupOf.
func stableGroupLayout(degs []uint32, groupOf func(uint32) int, numGroups int) Permutation {
	counts := make([]uint64, numGroups+1)
	perm := make(Permutation, len(degs))
	for v, deg := range degs {
		k := groupOf(deg)
		perm[v] = graph.VertexID(k) // v's group until the scatter below
		counts[k+1]++
	}
	for k := 1; k <= numGroups; k++ {
		counts[k] += counts[k-1]
	}
	for v, k := range perm {
		perm[v] = graph.VertexID(counts[k])
		counts[k]++
	}
	return perm
}

// GroupSizes returns how many vertices fall in each DBG group for the
// given degree array; used by Table V-style reporting and the ablation.
func (d *DBG) GroupSizes(degs []uint32, avg float64) []int {
	sizes := make([]int, len(d.boundsOfA))
	groupOf := d.groupFunc(avg)
	for _, deg := range degs {
		sizes[groupOf(deg)]++
	}
	return sizes
}

// maxDegree returns the largest entry of degs (0 for none).
func maxDegree(degs []uint32) int {
	var m uint32
	for _, d := range degs {
		m = max(m, d)
	}
	return int(m)
}

// SortTechnique reorders all vertices by descending degree (the paper's
// "Sort"): DBG with one group per distinct degree (Table V). The stable
// layout makes ties preserve original order — matching Fig. 2(b).
type SortTechnique struct{}

// Name implements Technique.
func (SortTechnique) Name() string { return "Sort" }

// Permute implements Technique.
func (s SortTechnique) Permute(g *graph.Graph, kind graph.DegreeKind) (Permutation, error) {
	return degreeBasedPermute(g, kind, s)
}

// PermuteDegrees implements DegreeBased.
func (SortTechnique) PermuteDegrees(degs []uint32, _ float64) Permutation {
	top := maxDegree(degs)
	return stableGroupLayout(degs, func(deg uint32) int { return top - int(deg) }, top+1)
}

// HubSort is Hub Sorting (Zhang et al. [5], "frequency-based clustering")
// expressed in the DBG framework per Table V: one group per distinct hot
// degree (degree >= A), so hot vertices are fully sorted by descending
// degree and placed first, and one cold group, whose vertices keep their
// original relative order.
type HubSort struct{}

// Name implements Technique.
func (HubSort) Name() string { return "HubSort" }

// Permute implements Technique.
func (h HubSort) Permute(g *graph.Graph, kind graph.DegreeKind) (Permutation, error) {
	return degreeBasedPermute(g, kind, h)
}

// PermuteDegrees implements DegreeBased.
func (HubSort) PermuteDegrees(degs []uint32, avg float64) Permutation {
	top := maxDegree(degs)
	// With no hot vertex the cold group is the only one.
	hot := min(int(degreeThreshold(avg)), top+1)
	cold := top - hot + 1
	return stableGroupLayout(degs, func(deg uint32) int {
		if int(deg) >= hot {
			return top - int(deg)
		}
		return cold
	}, cold+1)
}

// HubCluster is Hub Clustering (Balaji & Lucia [6]) expressed in the DBG
// framework per Table V: DBG with exactly two groups — hot first, cold
// second — and no sorting anywhere.
type HubCluster struct{}

// hubClusterGroups is HubCluster's grouping: [A,∞) and [0,A).
var hubClusterGroups = &DBG{boundsOfA: []float64{1, 0}}

// Name implements Technique.
func (HubCluster) Name() string { return "HubCluster" }

// Permute implements Technique.
func (h HubCluster) Permute(g *graph.Graph, kind graph.DegreeKind) (Permutation, error) {
	return degreeBasedPermute(g, kind, h)
}

// PermuteDegrees implements DegreeBased.
func (HubCluster) PermuteDegrees(degs []uint32, avg float64) Permutation {
	return hubClusterGroups.PermuteDegrees(degs, avg)
}
