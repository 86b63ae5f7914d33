// Package apps implements the paper's five benchmark applications
// (Table VII) on top of the Ligra-style framework: PageRank (PR),
// PageRank-Delta (PRD), single-source shortest paths (SSSP), betweenness
// centrality (BC) and Radii estimation.
//
// Each application states the EdgeMap direction that carries most of the
// edges it examines (Spec.Dir), and Spec.ReorderDegree derives the degree
// kind to reorder by from it with the rule of §VI-C: a pull reads
// prop[src], so its hot vertices have high out-degree; a push writes
// prop[dst], so its hot vertices have high in-degree. PRD departs from
// Table VIII, which pushes it and keys it on in-degree: every PRD round
// here is a destination-owned dense pull (see runPRD), so its key is
// out-degree.
//
// Every application has one form of its edge function: list callbacks
// (ligra.EdgeMapFns.PullList, PushList) that loop over a whole neighbor
// list with their sums in registers; push lists synchronize with atomics,
// and one worker runs the same body. A traced run (Input.Tracer, always
// one worker) executes the same callbacks: the EdgeMap kernels report
// every list they hand over, and a push callback that stores to a
// destination reports the store (ligra.PropertyWriteTracer), so the cache
// simulator replays what untraced runs execute.
//
// What is deterministic follows from who owns a destination. Pull rounds
// give each destination to one worker, which adds in stored in-list
// order: PR and PRD are bit-identical at any worker count and on every
// backend. Parallel push claims vertices in scheduling order: SSSP
// distances and Radii estimates are exact all the same (min and OR do not
// care about order) though their round and edge counts may differ, and
// BC, whose push rounds add path counts by compare-and-swap, matches the
// one-worker run up to floating-point summation order.
package apps

import (
	"context"
	"fmt"
	"time"

	"graphreorder/internal/graph"
	"graphreorder/internal/ligra"
)

// Input carries everything an application run needs. Roots are original
// graph positions mapped by the harness through the active permutation, so
// every ordering computes the same logical problem.
type Input struct {
	// Ctx, when non-nil, cancels the run cooperatively: it is polled once
	// per traversal round (never per edge), and a done context makes the
	// run stop between rounds and return Ctx.Err(). Nil means the run
	// cannot be canceled.
	Ctx context.Context
	// Graph is the input graph: the plain *graph.Graph or any other
	// backend implementing graph.View (e.g. the compressed *csrz.Graph).
	// All backends produce bit-identical Outputs — the engine enumerates
	// neighbor lists in stored order on every backend, and the
	// differential tests pin checksum equality app by app.
	Graph graph.View
	// Roots seeds root-dependent applications (SSSP, BC) and supplies the
	// sample set for Radii. Ignored by PR and PRD.
	Roots []graph.VertexID
	// MaxIters bounds iterative applications; 0 means the per-app default.
	MaxIters int
	// Tolerance overrides an application's convergence constant: PR's L1
	// convergence threshold (default 1e-7) and PRD's delta-activation
	// epsilon (default 0.01). 0 means the per-app default; ignored by
	// SSSP, BC and Radii, which run to frontier exhaustion.
	Tolerance float64
	// InitialRanks, when non-nil, is the rank vector PR starts from in
	// place of the uniform 1/N — typically the ranks of a slightly
	// different graph over the same vertices, from which the iteration
	// reaches the same fixed point in fewer rounds. Its length must be the
	// vertex count. It is read, never modified; the convergence test and
	// its reduction are the ones a cold run uses, so for a given start the
	// result is still bit-identical at any worker count. Ignored by every
	// application but PR.
	InitialRanks []float64
	// Workers is the number of goroutines EdgeMap and the bulk vertex
	// passes may use; values <= 1 run sequentially. Ignored (sequential)
	// while Tracer is set, so simulator traces stay deterministic.
	Workers int
	// Tracer, when non-nil, observes every edge examination (wired into
	// EdgeMap) so the cache simulator can replay the access stream.
	Tracer ligra.Tracer
	// Progress, when non-nil, observes every completed traversal round.
	// It is called from the application goroutine between rounds, so a
	// slow callback slows the run but never races with it.
	Progress func(RoundStats)
}

// RoundStats describes one completed traversal round to a Progress
// observer.
type RoundStats struct {
	// Round counts completed EdgeMap rounds, starting at 1.
	Round int
	// Frontier is the number of active vertices the round handed to the
	// next round (0 when the traversal is exhausted). Frontierless
	// applications (PR) report the full vertex count.
	Frontier int
	// Edges is the number of edge examinations charged to the round.
	Edges uint64
	// Elapsed is the time since the run started.
	Elapsed time.Duration
}

// Output summarizes a run for validation and reporting.
type Output struct {
	// Iterations is the number of EdgeMap rounds executed.
	Iterations int
	// EdgesTraversed counts edge examinations across all rounds.
	EdgesTraversed uint64
	// Checksum is an ordering-invariant digest of the result (e.g. the sum
	// of all vertex values), used to confirm that reordered executions
	// compute the same answer.
	Checksum float64
	// Values is the application's result vector: []float64 ranks (PR,
	// PRD), []int64 distances (SSSP), []float64 dependency scores (BC) or
	// []int32 eccentricities (Radii).
	Values any
	// Frontiers records the per-round frontier sizes (RoundStats.Frontier,
	// in round order).
	Frontiers []int
}

// canceled reports the input context's error, if it carries one and it is
// done. Applications poll it once per round.
func (in Input) canceled() error {
	if in.Ctx != nil {
		return in.Ctx.Err()
	}
	return nil
}

// recorder accumulates per-round telemetry for one run; it backs both
// Output.Frontiers/EdgesTraversed and the Progress callback.
type recorder struct {
	start     time.Time
	progress  func(RoundStats)
	frontiers []int
	edges     uint64
}

func (in Input) newRecorder() recorder {
	return recorder{start: time.Now(), progress: in.Progress}
}

// round records one completed EdgeMap round that produced a frontier of
// the given size and examined the given number of edges.
func (r *recorder) round(frontier int, edges uint64) {
	r.frontiers = append(r.frontiers, frontier)
	r.edges += edges
	if r.progress != nil {
		r.progress(RoundStats{
			Round:    len(r.frontiers),
			Frontier: frontier,
			Edges:    edges,
			Elapsed:  time.Since(r.start),
		})
	}
}

// output assembles the common telemetry fields of an Output.
func (r *recorder) output(values any, checksum float64) Output {
	return Output{
		Iterations:     len(r.frontiers),
		EdgesTraversed: r.edges,
		Checksum:       checksum,
		Values:         values,
		Frontiers:      r.frontiers,
	}
}

// Spec describes one benchmark application to the harness.
type Spec struct {
	// Name is the paper's abbreviation: BC, SSSP, PR, PRD, Radii.
	Name string
	// Dir is the EdgeMap direction that carries most of the application's
	// examined edges: ligra.Pull or ligra.Push.
	Dir ligra.Direction
	// NumRoots is how many root vertices a single run consumes (0 for
	// rootless applications; Radii consumes a sample of 64).
	NumRoots int
	// Run executes the application.
	Run func(Input) (Output, error)
}

// ReorderDegree is the degree kind to reorder by for this application:
// out-degree for a pull, in-degree for a push (§VI-C).
func (s Spec) ReorderDegree() graph.DegreeKind {
	if s.Dir == ligra.Push {
		return graph.InDegree
	}
	return graph.OutDegree
}

// All returns the five applications in the paper's presentation order.
func All() []Spec {
	return []Spec{
		{Name: "BC", Dir: ligra.Pull, NumRoots: 1, Run: runBC},
		{Name: "SSSP", Dir: ligra.Push, NumRoots: 1, Run: runSSSP},
		{Name: "PR", Dir: ligra.Pull, Run: runPR},
		{Name: "PRD", Dir: ligra.Pull, Run: runPRD},
		{Name: "Radii", Dir: ligra.Pull, NumRoots: radiiSamples, Run: runRadii},
	}
}

// ByName returns the Spec with the given (case-sensitive) paper name.
func ByName(name string) (Spec, error) {
	for _, s := range All() {
		if s.Name == name {
			return s, nil
		}
	}
	return Spec{}, fmt.Errorf("apps: unknown application %q (want BC|SSSP|PR|PRD|Radii)", name)
}

func checkInput(in Input, needRoots int) error {
	if graph.IsNilView(in.Graph) {
		return fmt.Errorf("apps: nil graph")
	}
	if len(in.Roots) < needRoots {
		return fmt.Errorf("apps: need %d roots, got %d", needRoots, len(in.Roots))
	}
	for _, r := range in.Roots[:needRoots] {
		if int(r) >= in.Graph.NumVertices() {
			return fmt.Errorf("apps: root %d out of range [0,%d)", r, in.Graph.NumVertices())
		}
	}
	return nil
}
