package reorder

import (
	"sync/atomic"

	"graphreorder/internal/csrz"
	"graphreorder/internal/graph"
	"graphreorder/internal/par"
	"graphreorder/internal/stats"
)

// Ordering-quality metrics. The paper's central measurement (Table II) is
// the packing factor: how many hot vertices share each cache block that
// holds at least one. A layout that packs hot vertices densely serves the
// hot working set from few blocks; a layout that scatters them wastes most
// of each block's capacity on cold neighbors. Evaluate computes that
// metric — plus the hub working-set footprint and a structure-locality
// proxy — for any graph under any candidate permutation, which is what
// lets the advisor and the serving layer reason about whether a reordering
// paid off (or would pay off) without running a single query.

// QualityReport measures how well a vertex layout packs the hot working
// set, per the paper's §IV analysis. All block arithmetic uses the paper's
// constants (recorded in BlockBytes/PropertyBytes).
type QualityReport struct {
	// BlockBytes and PropertyBytes record the arithmetic used.
	BlockBytes    int
	PropertyBytes int
	// HotThresholdDeg is the degree at and above which a vertex counted
	// as hot (the average degree).
	HotThresholdDeg float64
	// HotVertices is how many vertices are hot under that threshold.
	HotVertices int
	// PackingFactor is the paper's Table II metric under this layout: the
	// mean number of hot vertices per cache block, counting only blocks
	// that hold at least one hot vertex. Higher is better; the ceiling is
	// BlockBytes/PropertyBytes (8 with the defaults).
	PackingFactor float64
	// IdealPackingFactor is the packing factor a perfectly contiguous hot
	// region would achieve for the same hot-vertex count — the best any
	// reordering of this graph could do.
	IdealPackingFactor float64
	// PackingUtilization is PackingFactor / IdealPackingFactor in (0, 1];
	// 0 when the graph has no hot vertices.
	PackingUtilization float64
	// HubWorkingSetBytes is the combined size of all cache blocks holding
	// at least one hot vertex — the cache footprint the hot properties
	// drag in under this layout.
	HubWorkingSetBytes int64
	// MinHubWorkingSetBytes is the footprint of the same hot set if
	// packed contiguously (the Table III ideal).
	MinHubWorkingSetBytes int64
	// AvgNeighborGap is the mean |position(src) - position(dst)| over all
	// edges — the structure-locality proxy: small gaps mean neighbors
	// live nearby in memory.
	AvgNeighborGap float64
	// PredictedAdjBytes is the exact number of bytes the out-direction
	// adjacency would occupy under the csrz delta+varint codec in this
	// layout: the sum of csrz.DeltaCost over every perm-mapped list, taken
	// in the same O(E) pass as AvgNeighborGap. Relabel keeps every list's
	// order, so that is the list the encoder would see.
	PredictedAdjBytes int64
	// PredictedRatio is the predicted out-direction compression ratio:
	// plain 4-bytes-per-edge adjacency over PredictedAdjBytes. This is
	// the advisor's bridge from the paper's locality metric to capacity:
	// small AvgNeighborGap ⇒ small varint deltas ⇒ high PredictedRatio.
	// The honesty test pins it against the ratio csrz.Encode realizes.
	PredictedRatio float64
}

// PackingGain returns the multiplicative packing-factor improvement still
// available to a hub-packing reordering of this layout:
// IdealPackingFactor / PackingFactor. 1 means the hot set is already
// packed as tightly as possible (or there is nothing to pack).
func (q QualityReport) PackingGain() float64 {
	if q.PackingFactor <= 0 || q.IdealPackingFactor <= 0 {
		return 1
	}
	gain := q.IdealPackingFactor / q.PackingFactor
	if gain < 1 {
		return 1
	}
	return gain
}

// Evaluate computes the ordering-quality report for g under perm, using
// the paper's block arithmetic: 64 B blocks, 8 B per-vertex properties,
// and "hot" meaning degree >= the average degree. perm maps g's vertex IDs to
// layout positions; nil means g's current ID order is the layout (the
// common case after Relabel, where the reordered graph's IDs are the
// layout). Cost is EvaluatePacking's O(V) pass over the degrees plus one
// O(E) pass over the out-lists, split across the cores; its sums are
// integers, so the report is the same at any core count. Nothing is
// materialized. g may be any backend — evaluating an already-compressed
// csrz view streams its lists through an AdjBuffer.
func Evaluate(g graph.View, kind graph.DegreeKind, perm Permutation) QualityReport {
	return evaluate(g, kind, perm, -1)
}

// evaluate is Evaluate on the given number of workers (negative means
// GOMAXPROCS, 0 or 1 the calling goroutine).
func evaluate(g graph.View, kind graph.DegreeKind, perm Permutation, workers int) QualityReport {
	rep := EvaluatePacking(g, kind, perm)
	e := g.NumEdges()
	if e == 0 {
		return rep
	}
	if workers < 0 {
		workers = par.Resolve(workers)
	}
	// Mean neighbor gap and predicted compressed adjacency bytes under
	// the layout, in one pass. The varint accumulation mirrors
	// csrz.encodeDirection: first neighbor delta-coded against the
	// source position, each subsequent one against its predecessor.
	var gapSum, adjBytes atomic.Int64
	par.ForBounds(outEdgeBounds(g, workers), workers, func(lo, hi int) {
		var gaps, predicted int64
		adj := graph.NewAdjBuffer(g)
		for v := lo; v < hi; v++ {
			srcPos := uint32(v)
			if perm != nil {
				srcPos = perm[v]
			}
			prev := srcPos
			for _, dst := range adj.Out(g, graph.VertexID(v)) {
				dstPos := dst
				if perm != nil {
					dstPos = perm[dst]
				}
				if dstPos > srcPos {
					gaps += int64(dstPos - srcPos)
				} else {
					gaps += int64(srcPos - dstPos)
				}
				predicted += int64(csrz.DeltaCost(prev, dstPos))
				prev = dstPos
			}
		}
		gapSum.Add(gaps)
		adjBytes.Add(predicted)
	})
	rep.AvgNeighborGap = float64(gapSum.Load()) / float64(e)
	rep.PredictedAdjBytes = adjBytes.Load()
	rep.PredictedRatio = float64(e) * 4 / float64(rep.PredictedAdjBytes)
	return rep
}

// outEdgeBounds splits g's vertices into contiguous ranges of roughly
// equal out-edge count, four per worker, as a boundary list from 0 to N;
// one worker gets the whole range without looking at a degree.
func outEdgeBounds(g graph.View, workers int) []int {
	n := g.NumVertices()
	bounds := []int{0}
	if workers > 1 {
		per, acc := (g.NumEdges()+workers*4-1)/(workers*4), 0
		for v := 0; v < n-1; v++ {
			if acc += g.OutDegree(graph.VertexID(v)); acc >= per {
				bounds = append(bounds, v+1)
				acc = 0
			}
		}
	}
	return append(bounds, n)
}

// EvaluatePacking is the O(V) half of Evaluate: everything in the
// report that follows from the degrees and the permutation alone — the
// hot set, the packing factors (so PackingGain) and the hub working set.
// It reads no adjacency and leaves AvgNeighborGap and the Predicted*
// fields zero.
func EvaluatePacking(g graph.View, kind graph.DegreeKind, perm Permutation) QualityReport {
	return packingOf(g.Degrees(kind), g.NumEdges(), perm)
}

// packingOf is EvaluatePacking from a degree array and the edge count.
func packingOf(degs []uint32, m int, perm Permutation) QualityReport {
	n := len(degs)
	rep := QualityReport{
		BlockBytes:      stats.CacheBlockBytes,
		PropertyBytes:   stats.DefaultPropertyBytes,
		HotThresholdDeg: graph.AvgDegreeOf(n, m),
	}
	// An edgeless graph has average degree 0, which would classify every
	// vertex as hot; there is no working set to pack, so report zeros.
	if n == 0 || m == 0 {
		return rep
	}
	const perBlock = VerticesPerCacheBlock

	// Hot-vertex count per block under the layout.
	numBlocks := (n + perBlock - 1) / perBlock
	hotInBlock := make([]int32, numBlocks)
	hot := 0
	for v, d := range degs {
		if float64(d) < rep.HotThresholdDeg {
			continue
		}
		hot++
		pos := v
		if perm != nil {
			pos = int(perm[v])
		}
		hotInBlock[pos/perBlock]++
	}
	rep.HotVertices = hot
	if hot > 0 {
		blocksWithHot := 0
		for _, c := range hotInBlock {
			if c > 0 {
				blocksWithHot++
			}
		}
		minBlocks := (hot + perBlock - 1) / perBlock
		rep.PackingFactor = float64(hot) / float64(blocksWithHot)
		rep.IdealPackingFactor = float64(hot) / float64(minBlocks)
		rep.PackingUtilization = rep.PackingFactor / rep.IdealPackingFactor
		rep.HubWorkingSetBytes = int64(blocksWithHot) * stats.CacheBlockBytes
		rep.MinHubWorkingSetBytes = int64(minBlocks) * stats.CacheBlockBytes
	}
	return rep
}
