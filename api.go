package graphreorder

import (
	"context"
	"io"

	"graphreorder/internal/apps"
	"graphreorder/internal/cachesim"
	"graphreorder/internal/cluster/partition"
	"graphreorder/internal/csrz"
	"graphreorder/internal/dynamic"
	"graphreorder/internal/gen"
	"graphreorder/internal/graph"
	"graphreorder/internal/ligra"
	"graphreorder/internal/reorder"
	"graphreorder/internal/stats"
	"graphreorder/internal/trace"
)

// Core graph types, re-exported from the graph substrate.
type (
	// Graph is an immutable directed multigraph in dual-CSR form.
	Graph = graph.Graph
	// GraphView is the read-only interface every graph backend satisfies
	// and Run consumes: the plain *Graph and the compressed
	// *CompressedGraph. Backends are interchangeable — every application
	// produces bit-identical results on either (neighbor lists are
	// enumerated in stored order on all backends).
	GraphView = graph.View
	// CompressedGraph is the delta+varint compressed CSR backend
	// (internal/csrz): 2–4× smaller adjacency after a locality-improving
	// reordering, one neighbor list at a time decoded into a reused
	// per-worker buffer in EdgeMap, and an mmap-able on-disk form (.csrz)
	// for zero-copy loading. Build one with CompressGraph or load one with OpenCSRZ.
	CompressedGraph = csrz.Graph
	// CompressionStats describes a compressed graph's space behavior
	// (resident vs plain bytes, realized ratio).
	CompressionStats = csrz.Stats
	// Edge is a directed, optionally weighted edge.
	Edge = graph.Edge
	// VertexID identifies a vertex; IDs are dense in [0, NumVertices).
	VertexID = graph.VertexID
	// DegreeKind selects in-, out- or total degree.
	DegreeKind = graph.DegreeKind
)

// CompressGraph delta+varint-encodes g into the compressed CSR backend.
// The result serves every application through Run with bit-identical
// results; compression pays best after a locality-improving reordering
// (see QualityReport.PredictedRatio for the advisor's estimate).
func CompressGraph(g *Graph) *CompressedGraph { return csrz.Encode(g) }

// WriteCSRZ writes a compressed graph to path in the .csrz container
// format (versioned header, page-aligned sections, whole-file CRC).
func WriteCSRZ(g *CompressedGraph, path string) error { return g.WriteFile(path) }

// OpenCSRZ memory-maps a .csrz snapshot for zero-copy serving. The
// returned graph aliases the mapping: call Close after the last use
// (graphd's snapshot store does this via refcounted drain; see
// internal/csrz's package documentation for the retirement rules).
func OpenCSRZ(path string) (*CompressedGraph, error) { return csrz.OpenFile(path) }

// ReadCSRZ decodes a .csrz stream into a heap-backed compressed graph
// (no mapping to manage), checked exactly as OpenCSRZ checks a file. The
// graph keeps the stream's bytes in one buffer, its sections views into
// it, so the page padding (and a version-1 or -2 file's unread in-weight
// section) stay resident with them.
func ReadCSRZ(r io.Reader) (*CompressedGraph, error) { return csrz.ReadCSRZ(r) }

// IsCSRZFile reports whether path begins with the .csrz container magic
// (sniffing only the first 8 bytes). Use it to route a file between
// OpenCSRZ and the plain-format readers.
func IsCSRZFile(path string) (bool, error) { return csrz.SniffFile(path) }

// Degree kinds. The paper reorders by out-degree for pull-dominated
// applications and in-degree for push-dominated ones (Table VIII).
const (
	InDegree  = graph.InDegree
	OutDegree = graph.OutDegree
)

// Reordering types.
type (
	// Technique computes a vertex permutation for a graph.
	Technique = reorder.Technique
	// Permutation maps original vertex IDs to new IDs.
	Permutation = reorder.Permutation
	// ReorderResult bundles the relabeled graph, the permutation, the
	// measured reordering/rebuild times and the new layout's packing
	// report (its neighbor gap and Predicted* fields are zero).
	ReorderResult = reorder.Result
	// Pipeline is a composable reordering plan: an ordered chain of
	// techniques, each seeing the graph as relabeled by its predecessors.
	// A Pipeline is itself a Technique.
	Pipeline = reorder.Plan
	// QualityReport measures how well a layout packs the hot working set:
	// the paper's packing factor, hub working-set bytes and mean neighbor
	// gap.
	QualityReport = reorder.QualityReport
	// Recommendation is the skew-gated advisor's verdict: a ready-to-run
	// Pipeline plus the skew and packing evidence it rests on.
	Recommendation = reorder.Recommendation
)

// BuildGraph converts an edge list into a Graph (neighbor lists sorted,
// weights kept if any edge carries one).
func BuildGraph(edges []Edge) (*Graph, error) { return graph.Build(edges) }

// ReadEdgeList parses a text edge list ("src dst [weight]" lines, '#'/'%'
// comments) from r.
func ReadEdgeList(r io.Reader) ([]Edge, error) { return graph.ReadEdgeList(r) }

// WriteEdgeList writes g as a text edge list.
func WriteEdgeList(w io.Writer, g *Graph) error { return graph.WriteEdgeList(w, g) }

// GraphFormat identifies the on-disk encoding of a graph file.
type GraphFormat = graph.Format

// Graph file formats detected by ReadGraphAuto.
const (
	// TextFormat is the "src dst [weight]" edge-list encoding.
	TextFormat = graph.FormatText
	// BinaryFormat is the compact CSR encoding of WriteGraphBinary.
	BinaryFormat = graph.FormatBinary
)

// ReadGraphAuto loads a graph from r in either supported format, sniffing
// the binary magic from the first bytes, and reports which format it
// found so callers can mirror the encoding on output.
func ReadGraphAuto(r io.Reader) (*Graph, GraphFormat, error) { return graph.ReadAuto(r) }

// ReadGraphBinary loads a graph written by WriteGraphBinary.
func ReadGraphBinary(r io.Reader) (*Graph, error) { return graph.ReadBinary(r) }

// WriteGraphBinary writes g in the compact binary format.
func WriteGraphBinary(w io.Writer, g *Graph) error { return graph.WriteBinary(w, g) }

// GenerateDataset synthesizes one of the paper's datasets (kr, pl, tw,
// sd, lj, wl, fr, mp, uni, road) at a named scale (tiny, small, medium,
// large). See internal/gen for what each stands in for.
func GenerateDataset(name, scale string) (*Graph, error) {
	s, err := gen.ParseScale(scale)
	if err != nil {
		return nil, err
	}
	cfg, err := gen.Dataset(name, s)
	if err != nil {
		return nil, err
	}
	return gen.Generate(cfg)
}

// DatasetNames returns all built-in dataset names.
func DatasetNames() []string { return gen.AllNames() }

// DBG returns Degree-Based Grouping with the paper's 8-group
// configuration — the library's headline technique.
func DBG() Technique { return reorder.NewDBG() }

// DBGWithGroups returns DBG with k geometric degree groups (k >= 2);
// larger k packs hot vertices tighter at the cost of more structure
// disruption. Reachable by name as "dbg:<k>" in TechniqueByName.
func DBGWithGroups(k int) (Technique, error) { return reorder.NewDBGGeometric(k) }

// Sort returns full descending-degree sorting.
func Sort() Technique { return reorder.SortTechnique{} }

// HubSort returns Hub Sorting (Zhang et al.): hot vertices sorted, cold
// order preserved.
func HubSort() Technique { return reorder.HubSort{} }

// HubCluster returns Hub Clustering (Balaji & Lucia): hot vertices
// segregated but unsorted.
func HubCluster() Technique { return reorder.HubCluster{} }

// Gorder returns the structure-aware Gorder baseline (Wei et al.) —
// highest quality, prohibitive reordering cost.
func Gorder() Technique { return reorder.Gorder{} }

// TechniqueByName resolves a technique spec (dbg, sort, hubsort,
// hubcluster, hubsort-o, hubcluster-o, gorder, gorder+dbg, rv, rcb-<n>,
// dbg:<k>, auto, original), including "|"-chained pipeline specs such as
// "dbg|gorder".
func TechniqueByName(name string) (Technique, error) { return reorder.ByName(name) }

// ComposeTechniques chains techniques into a Pipeline applied left to
// right: each stage sees the graph as relabeled by the stages before it,
// and the stage permutations compose into one.
func ComposeTechniques(stages ...Technique) *Pipeline { return reorder.Compose(stages...) }

// ParsePipeline parses a pipeline spec: one or more technique specs
// joined by "|" (e.g. "dbg|gorder", "dbg:8|sort").
func ParsePipeline(spec string) (*Pipeline, error) { return reorder.ParsePlan(spec) }

// TechniqueAuto returns the skew-gated advisor as a technique: every
// application consults Advise on the input graph and runs the recommended
// pipeline — the identity on low-skew graphs, per the paper's
// "reordering can hurt" finding. Registered as "auto" in TechniqueByName.
func TechniqueAuto() Technique { return reorder.Auto{} }

// Advise inspects g's degree skew (Table I) and current hot-vertex
// packing (Table II) under the given degree kind and recommends a
// reordering pipeline, or the identity when the skew gates say reordering
// would not pay.
func Advise(g *Graph, kind DegreeKind) Recommendation { return reorder.Advise(g, kind) }

// EvaluateOrdering measures the ordering quality of g's current vertex
// layout: packing factor, hub working-set bytes and, in one O(E) pass,
// mean neighbor gap and predicted compression ratio. Reordered graphs
// carry the packing half in ReorderResult.Quality; call
// EvaluateOrdering(res.Graph, kind) for the rest.
func EvaluateOrdering(g *Graph, kind DegreeKind) QualityReport {
	return reorder.Evaluate(g, kind, nil)
}

// Reorder applies a technique: it computes the permutation using degrees
// of the given kind and relabels the graph, timing both phases.
func Reorder(g *Graph, t Technique, kind DegreeKind) (ReorderResult, error) {
	return reorder.PlanOf(t).Apply(g, kind)
}

// ReorderContext is Reorder under a context. Cancellation is cooperative
// and phase-grained: the context is checked before the permutation
// computation and again before the CSR rebuild, so a deadline or cancel
// aborts between phases with ctx.Err() but never tears a phase apart.
func ReorderContext(ctx context.Context, g *Graph, t Technique, kind DegreeKind) (ReorderResult, error) {
	return reorder.PlanOf(t).ApplyContext(ctx, g, kind, 1)
}

// InfDistance marks unreachable vertices in Result.Distances.
const InfDistance = apps.InfDistance

// Dynamic (evolving-graph) types, re-exported from internal/dynamic —
// the paper's §VIII-B deployment: a stream of edge updates interleaved
// with queries, with reordering refreshed only now and then so its cost
// amortizes. graphd's mutable snapshots are built on exactly these, under
// a zero RefreshPolicy: graphd calls Refresh itself once a snapshot's
// hot-vertex packing has decayed.
type (
	// DynamicGraph is a directed multigraph under batched mutation.
	// Batches apply atomically. Its edges live in one CSR, in the order a
	// DynamicReorderer last installed (original order until then); a
	// removal takes the heaviest instance of its (src, dst), found by a
	// binary search in that CSR plus the edits not yet folded into it;
	// Snapshot folds them and returns the current state as a static
	// Graph in original order.
	DynamicGraph = dynamic.Graph
	// EdgeUpdate is one edge insertion or removal in a batch.
	EdgeUpdate = dynamic.Update
	// RefreshPolicy says when a DynamicReorderer recomputes its
	// ordering: every K batches.
	RefreshPolicy = dynamic.Policy
	// DynamicReorderer maintains a reordered view of a DynamicGraph:
	// between refreshes a batch patches the graph's one CSR under the
	// current permutation, and a refresh recomputes the ordering.
	DynamicReorderer = dynamic.Reorderer
)

// NewDynamicGraph starts a dynamic graph from a static snapshot.
func NewDynamicGraph(g *Graph) *DynamicGraph { return dynamic.FromGraph(g) }

// NewDynamicReorderer builds a reorderer over dynamic graphs; the first
// View call performs the initial reordering.
func NewDynamicReorderer(t Technique, kind DegreeKind, p RefreshPolicy) *DynamicReorderer {
	return dynamic.NewReorderer(t, kind, p)
}

// SkewStats describes a dataset's degree skew (the paper's Table I).
type SkewStats struct {
	// HotVertexFrac is the fraction of vertices with degree >= average.
	HotVertexFrac float64
	// EdgeCoverage is the fraction of edges incident on hot vertices.
	EdgeCoverage float64
	// HotPerCacheBlock is the mean number of hot vertices per 64 B block
	// (8 B properties), counting blocks holding at least one (Table II);
	// 0 for a graph without edges, which has no hot set.
	HotPerCacheBlock float64
}

// Skew computes degree-skew statistics for g under the given degree kind.
func Skew(g *Graph, kind DegreeKind) SkewStats {
	s := stats.ComputeSkew(g, kind)
	return SkewStats{
		HotVertexFrac:    s.HotFrac,
		EdgeCoverage:     s.EdgeCoverage,
		HotPerCacheBlock: reorder.EvaluatePacking(g, kind, nil).PackingFactor,
	}
}

// CacheStats is the outcome of a trace-driven cache simulation.
type CacheStats = cachesim.Stats

// SimulatePageRankCache replays a PageRank execution on g through the
// simulated dual-socket cache hierarchy sized for the given dataset scale
// and returns miss statistics (use CacheStats.MPKI and L2MissBreakdown).
func SimulatePageRankCache(g *Graph, scale string, iters int) (CacheStats, error) {
	s, err := gen.ParseScale(scale)
	if err != nil {
		return CacheStats{}, err
	}
	spec, err := apps.ByName("PR")
	if err != nil {
		return CacheStats{}, err
	}
	return trace.Simulate(spec, g, nil, trace.MachineFor(s), iters)
}

// Cluster types, re-exported from the sharding subsystem (see
// internal/cluster for the full router and runner APIs).
type (
	// PartitionOptions configures PartitionGraph: shard count, edge
	// placement strategy ("degree" vertex-cut or "hash" baseline), the
	// hub replication bound and CSR build parallelism.
	PartitionOptions = partition.Options
	// Placement is the deterministic vertex→shard map a partitioning
	// produces: the owner shard per vertex plus the home-shard bitmask
	// for replicated hubs.
	Placement = partition.Placement
	// PartitionResult bundles the placement, the per-shard subgraphs
	// (original-ID space) and the edge-balance report.
	PartitionResult = partition.Result
	// ShardBalance reports per-shard edge counts and the max/mean ratio
	// — the skew measure the degree-aware vertex-cut improves over hash
	// placement on power-law graphs.
	ShardBalance = partition.BalanceReport
)

// PartitionGraph splits g into per-shard subgraphs for cluster serving.
// Placement is deterministic: the same graph and options produce the
// same partition at any worker count.
func PartitionGraph(g *Graph, opt PartitionOptions) (*PartitionResult, error) {
	return partition.Partition(g, opt)
}

// compile-time check that the facade stays wired to real implementations.
var _ ligra.Tracer = (*trace.Tracer)(nil)
