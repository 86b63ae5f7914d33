// Package trace turns real application executions into memory-access
// streams for the cache simulator. It implements ligra.Tracer: the EdgeMap
// kernels report every neighbor list they hand to an application's
// callbacks — the very callbacks an untraced run executes — and push
// callbacks report the property writes they make. The tracer converts
// each event into the addresses the CSR layout of §II-B implies — Vertex
// Array reads, sequential Edge Array reads, and the irregular Property
// Array reads (pull) or writes (push) that the paper's reordering
// techniques target — and feeds them to a simulated multi-core machine.
//
// Work is attributed to simulated cores in contiguous chunks of the
// driving vertex ID, modeling the chunked scheduling of the parallel
// runtime; this is what produces the true/false sharing of Fig. 9.
package trace

import (
	"fmt"

	"graphreorder/internal/apps"
	"graphreorder/internal/cachesim"
	"graphreorder/internal/gen"
	"graphreorder/internal/graph"
)

// Array base addresses, far enough apart that arrays never overlap for any
// realistic graph size.
const (
	vertexBase   = 0x0000_0000_0000
	outEdgeBase  = 0x1000_0000_0000
	inEdgeBase   = 0x2000_0000_0000
	propBase     = 0x4000_0000_0000 // irregularly-accessed property array
	seqPropBase  = 0x5000_0000_0000 // sequentially-accessed companion array
	vertexStride = 8                // bytes per Vertex Array entry
	edgeStride   = 4                // bytes per Edge Array entry
)

// Instruction-cost model: instructions charged per traversal event. The
// constants are calibrated so the baseline PR run lands near the paper's
// ~100 L1 MPKI on large datasets; only ratios between configurations
// matter for the reproduction.
const (
	instrPerEdge   = 8
	instrPerVertex = 16
)

// Tracer converts ligra traversal events into simulated memory accesses,
// buffered through an Interleaver so per-core streams replay with
// concurrent-execution timing.
type Tracer struct {
	h             *cachesim.Hierarchy
	iv            *Interleaver
	g             *graph.Graph
	propertyBytes int
	chunk         int // vertices per scheduling chunk
	cursor        uint64
	lastCore      int
	lastPull      bool
}

// NewTracer builds a tracer feeding h from traversals of g, with the given
// irregular-property size in bytes (Table VIII's "only properties with
// irregular accesses" column). Call Finish after the traced run to flush
// buffered accesses.
func NewTracer(h *cachesim.Hierarchy, g *graph.Graph, propertyBytes int) *Tracer {
	chunk := g.NumVertices() / (h.Cores() * 16)
	if chunk < 16 {
		chunk = 16
	}
	return &Tracer{h: h, iv: NewInterleaver(h, 0, 0), g: g, propertyBytes: propertyBytes, chunk: chunk}
}

// Finish flushes all buffered per-core accesses into the hierarchy.
func (t *Tracer) Finish() { t.iv.Flush() }

// coreOf maps the driving vertex to a simulated core: contiguous chunks of
// the iteration space round-robin across cores.
func (t *Tracer) coreOf(v graph.VertexID) int {
	return (int(v) / t.chunk) % t.h.Cores()
}

// VertexVisited implements ligra.Tracer: the frontier vertex's Vertex
// Array entry is read and the edge cursor rewinds to its first edge. The
// cursor follows the graph's index, the prefix sum of the degrees, so the
// simulated Edge Array is the compact layout (graph.Graph.Compact's) on
// every graph.
func (t *Tracer) VertexVisited(v graph.VertexID, pull bool) {
	core := t.coreOf(v)
	t.h.AddInstructions(instrPerVertex)
	t.iv.Push(core, vertexBase+uint64(v)*vertexStride, false)
	if pull {
		t.cursor = t.g.InIndex()[v]
	} else {
		t.cursor = t.g.OutIndex()[v]
	}
	t.lastPull = pull
	t.lastCore = core
}

// EdgeExamined implements ligra.Tracer. Each edge costs: one sequential
// Edge Array read, one irregular Property Array *read* (contrib[src] in
// pull mode, the dst property being inspected in push mode) and one
// near-sequential access to the driving vertex's own property. Actual
// writes are reported separately through PropertyWritten.
func (t *Tracer) EdgeExamined(src, dst graph.VertexID, pull bool) {
	t.h.AddInstructions(instrPerEdge)
	var core int
	if pull {
		core = t.coreOf(dst)
		t.iv.Push(core, inEdgeBase+t.cursor*edgeStride, false)
		// Irregular read of the source's property (e.g. contrib[src]).
		t.iv.Push(core, propBase+uint64(src)*uint64(t.propertyBytes), false)
		// Sequential accumulate into the destination's slot.
		t.iv.Push(core, seqPropBase+uint64(dst)*uint64(t.propertyBytes), true)
	} else {
		core = t.coreOf(src)
		t.iv.Push(core, outEdgeBase+t.cursor*edgeStride, false)
		// Near-sequential read of the source's own property (dist[src]...).
		t.iv.Push(core, seqPropBase+uint64(src)*uint64(t.propertyBytes), false)
		// Irregular read of the destination's property (the comparison /
		// accumulation operand). Whether a scattered *write* follows is
		// decided by the application via PropertyWritten.
		t.iv.Push(core, propBase+uint64(dst)*uint64(t.propertyBytes), false)
	}
	t.lastPull = pull
	t.lastCore = core
	t.cursor++
}

// PropertyWritten implements ligra.PropertyWriteTracer: a push callback
// actually stored to v's property. It arrives after the EdgeExamined
// calls of the callback's whole list and is issued on the core of the
// list's source: the scattered write generating coherence traffic
// (§VI-C). A pull write lands in the sequential companion array, already
// charged by EdgeExamined, so only push-mode writes are issued.
func (t *Tracer) PropertyWritten(v graph.VertexID) {
	if t.lastPull {
		return
	}
	t.iv.Push(t.lastCore, propBase+uint64(v)*uint64(t.propertyBytes), true)
}

var _ interface {
	VertexVisited(graph.VertexID, bool)
	EdgeExamined(graph.VertexID, graph.VertexID, bool)
	PropertyWritten(graph.VertexID)
} = (*Tracer)(nil)

// PropertyBytes returns the irregular per-vertex property size for an
// application, per Table VIII.
func PropertyBytes(appName string) int {
	switch appName {
	case "PR":
		return 12
	default: // BC, SSSP, PRD, Radii
		return 8
	}
}

// MachineFor returns the simulated machine for a dataset scale: the
// dual-socket 8-core default with a per-socket L3 scaled so the baseline
// hot-vertex footprint exceeds total LLC capacity, mirroring the paper's
// regime (sd needs 80 MB of hot vertices vs 50 MB of LLC).
func MachineFor(scale gen.Scale) cachesim.Config {
	l3 := scale.Vertices() * 8 / 16
	if l3 < 4<<10 {
		l3 = 4 << 10
	}
	if l3 > 16<<20 {
		l3 = 16 << 20
	}
	return cachesim.DefaultConfig(l3)
}

// Simulate runs one application on g under the simulated machine and
// returns the cache statistics. Roots follow the apps.Input contract.
func Simulate(spec apps.Spec, g *graph.Graph, roots []graph.VertexID, cfg cachesim.Config, maxIters int) (cachesim.Stats, error) {
	h, err := cachesim.New(cfg)
	if err != nil {
		return cachesim.Stats{}, err
	}
	tr := NewTracer(h, g, PropertyBytes(spec.Name))
	if _, err := spec.Run(apps.Input{Graph: g, Roots: roots, MaxIters: maxIters, Tracer: tr}); err != nil {
		return cachesim.Stats{}, fmt.Errorf("trace: running %s: %w", spec.Name, err)
	}
	tr.Finish()
	return h.Stats(), nil
}
