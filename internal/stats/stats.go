// Package stats computes the dataset characterization metrics the paper
// reports in Tables I, III and IV: hot-vertex skew, hot-vertex footprint,
// and the degree-range histogram that motivates DBG's geometric groups.
// Table II's cache-block packing of hot vertices is
// reorder.EvaluatePacking's PackingFactor, which measures it under any
// layout.
//
// Throughout, a vertex is hot when its degree is greater than or equal to
// the dataset's average degree (the paper's classification threshold).
package stats

import (
	"math"

	"graphreorder/internal/graph"
)

// Bytes-per-element constants used by the paper's arithmetic.
const (
	// CacheBlockBytes is the cache line size assumed throughout (64 B).
	CacheBlockBytes = 64
	// DefaultPropertyBytes is the per-vertex property size assumed in
	// Tables II and IV (8 bytes).
	DefaultPropertyBytes = 8
)

// Skew holds the Table I metrics for one degree kind.
type Skew struct {
	// HotFrac is the fraction of vertices whose degree >= average.
	HotFrac float64
	// EdgeCoverage is the fraction of edges incident (by this degree
	// kind) on hot vertices.
	EdgeCoverage float64
}

// ComputeSkew computes Table I metrics for g under the given degree kind.
func ComputeSkew(g *graph.Graph, kind graph.DegreeKind) Skew {
	return SkewOf(g.Degrees(kind), g.AvgDegree())
}

// SkewOf computes the Table I metrics of a degree array whose hot
// threshold is avg, the graph's average degree.
func SkewOf(degs []uint32, avg float64) Skew {
	hot, hotEdges, total := 0, 0, 0
	for _, d := range degs {
		total += int(d)
		if float64(d) >= avg {
			hot++
			hotEdges += int(d)
		}
	}
	if len(degs) == 0 || total == 0 {
		return Skew{}
	}
	return Skew{
		HotFrac:      float64(hot) / float64(len(degs)),
		EdgeCoverage: float64(hotEdges) / float64(total),
	}
}

// HotFootprintBytes computes the Table III metric: bytes needed to store
// the properties of all hot vertices, at propertyBytes per vertex.
func HotFootprintBytes(g *graph.Graph, kind graph.DegreeKind, propertyBytes int) int64 {
	degs := g.Degrees(kind)
	avg := g.AvgDegree()
	hot := int64(0)
	for _, d := range degs {
		if float64(d) >= avg {
			hot++
		}
	}
	return hot * int64(propertyBytes)
}

// DegreeRangeBin is one row slot of Table IV: hot vertices whose degree
// falls in [Lo, Hi) where the bounds are multiples of the average degree.
type DegreeRangeBin struct {
	// LoMult and HiMult are the range bounds as multiples of the average
	// degree A; HiMult = +Inf for the last bin.
	LoMult, HiMult float64
	// Count is the number of hot vertices in the range.
	Count int
	// FracOfHot is Count as a fraction of all hot vertices.
	FracOfHot float64
	// FootprintBytes is Count * propertyBytes.
	FootprintBytes int64
}

// DegreeRanges computes the Table IV histogram: hot vertices partitioned
// into geometrically-spaced degree ranges [A,2A), [2A,4A), ... with the
// final bin open-ended at [2^(bins-1)·A, ∞). bins must be >= 1.
func DegreeRanges(g *graph.Graph, kind graph.DegreeKind, bins, propertyBytes int) []DegreeRangeBin {
	if bins < 1 {
		bins = 1
	}
	if propertyBytes <= 0 {
		propertyBytes = DefaultPropertyBytes
	}
	avg := g.AvgDegree()
	degs := g.Degrees(kind)

	out := make([]DegreeRangeBin, bins)
	for i := range out {
		out[i].LoMult = math.Pow(2, float64(i))
		if i == bins-1 {
			out[i].HiMult = math.Inf(1)
		} else {
			out[i].HiMult = math.Pow(2, float64(i+1))
		}
	}
	totalHot := 0
	for _, d := range degs {
		df := float64(d)
		if df < avg || avg == 0 {
			continue
		}
		totalHot++
		idx := 0
		if avg > 0 {
			idx = int(math.Floor(math.Log2(df / avg)))
		}
		if idx < 0 {
			idx = 0
		}
		if idx >= bins {
			idx = bins - 1
		}
		out[idx].Count++
	}
	for i := range out {
		if totalHot > 0 {
			out[i].FracOfHot = float64(out[i].Count) / float64(totalHot)
		}
		out[i].FootprintBytes = int64(out[i].Count) * int64(propertyBytes)
	}
	return out
}
