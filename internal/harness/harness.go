// Package harness regenerates every table and figure of the paper's
// evaluation. Each experiment is a named driver that synthesizes the
// datasets, applies reordering techniques, runs applications with
// warm-up and repeated timing, and prints a paper-style table. Every
// driver walks its cells through one loop (Runner.walk): one dataset at
// a time, each reorder of it made, visited and dropped in turn, so a run
// holds at most a dataset and one relabeled copy; the tables are
// rendered once every cell is in. Nothing is kept between drivers.
//
// Experiments() is the per-experiment index: it maps experiment IDs
// (table1, fig6, ...) to the paper artifacts they regenerate, and
// reprobench -list prints it. EXPERIMENTS.md records the results.
package harness

import (
	"context"
	"fmt"
	"io"
	"math"
	"runtime"
	"time"

	"graphreorder/internal/apps"
	"graphreorder/internal/gen"
	"graphreorder/internal/graph"
	"graphreorder/internal/reorder"
	"graphreorder/internal/rng"
)

// Options configures a harness run.
type Options struct {
	// Scale selects dataset sizes (default Small).
	Scale gen.Scale
	// Trials is how many timed repetitions are averaged after one warm-up
	// execution (the paper uses 10 after 1 warm-up; default 3).
	Trials int
	// MaxIters caps iterative applications (default 10; the paper runs PR
	// and PRD to convergence, which our tolerance settings approximate).
	MaxIters int
	// RootsPerApp is how many roots root-dependent traversals aggregate
	// over (the paper uses 8; default 4).
	RootsPerApp int
	// GorderScale divides Gorder's measured reordering time, mirroring
	// the paper's charitable ÷40 for the single-threaded original
	// implementation (default 40).
	GorderScale float64
	// SkipGorder drops Gorder from technique sweeps. Gorder's greedy
	// ordering is quadratic-ish on power-law graphs; at Large scale it
	// dominates the wall-clock budget, and the paper itself treats its
	// cost as prohibitive.
	SkipGorder bool
	// Workers is the number of goroutines application runs may use:
	// 0 or 1 runs the deterministic sequential engine (the default, so
	// timings and trace-driven experiments are reproducible), -1 means
	// GOMAXPROCS, and any other positive value is used as-is. Trace-driven
	// experiments always run sequentially regardless.
	Workers int
	// Seed drives root selection.
	Seed uint64
	// Out receives the rendered tables (default io.Discard if nil).
	Out io.Writer
}

func (o Options) withDefaults() Options {
	if o.Trials <= 0 {
		o.Trials = 3
	}
	if o.MaxIters <= 0 {
		o.MaxIters = 10
	}
	if o.RootsPerApp <= 0 {
		o.RootsPerApp = 4
	}
	if o.GorderScale <= 0 {
		o.GorderScale = 40
	}
	if o.Seed == 0 {
		o.Seed = 0xD0D0
	}
	if o.Workers < 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	return o
}

// Runner executes experiments. It keeps no dataset or reorder: each
// driver generates what it measures as its walk reaches it.
type Runner struct {
	opts Options
	ctx  context.Context
}

// NewRunner builds a Runner with the given options.
func NewRunner(opts Options) *Runner {
	return &Runner{opts: opts.withDefaults(), ctx: context.Background()}
}

// Context returns the context experiment drivers run under: application
// executions receive it through apps.Input.Ctx, so canceling it aborts
// the in-flight traversal within one round and fails the experiment with
// the context's error. It defaults to context.Background; RunByIDContext
// installs a caller context for the duration of a run.
func (r *Runner) Context() context.Context { return r.ctx }

// Options returns the runner's normalized options.
func (r *Runner) Options() Options { return r.opts }

// rebuildWorkers pins CSR rebuilds to the configured engine: sequential
// unless Options.Workers asked for parallelism, so RebuildTime (Table XI /
// Fig. 10 cost accounting) does not vary with the host's core count.
func (r *Runner) rebuildWorkers() int {
	if r.opts.Workers > 1 {
		return r.opts.Workers
	}
	return 1
}

func (r *Runner) out() io.Writer {
	if r.opts.Out == nil {
		return io.Discard
	}
	return r.opts.Out
}

// Graph generates the named dataset at the runner's scale.
func (r *Runner) Graph(name string) (*graph.Graph, error) {
	cfg, err := gen.Dataset(name, r.opts.Scale)
	if err != nil {
		return nil, err
	}
	g, err := gen.Generate(cfg)
	if err != nil {
		return nil, fmt.Errorf("harness: generating %s: %w", name, err)
	}
	return g, nil
}

// ReorderCost returns the preprocessing time charged to a technique: the
// permutation computation plus the CSR rebuild, with Gorder's share of the
// permutation time divided by GorderScale (the paper's ÷40 convention for
// the single-threaded original code).
func (r *Runner) ReorderCost(res *reorder.Result, tech reorder.Technique) time.Duration {
	t := res.ReorderTime
	if isGorder(tech) {
		t = time.Duration(float64(t) / r.opts.GorderScale)
	}
	return t + res.RebuildTime
}

// evaluatedTechniques returns the Fig. 6 technique set, honoring
// SkipGorder.
func (r *Runner) evaluatedTechniques() []reorder.Technique {
	techs := reorder.Evaluated()
	if !r.opts.SkipGorder {
		return techs
	}
	kept := techs[:0]
	for _, t := range techs {
		if !isGorder(t) {
			kept = append(kept, t)
		}
	}
	return kept
}

func isGorder(t reorder.Technique) bool {
	for _, stage := range reorder.PlanOf(t).Stages() {
		if _, ok := stage.(reorder.Gorder); ok {
			return true
		}
	}
	return false
}

// Roots deterministically picks k root vertices of g with non-zero
// out-degree (BFS-style traversals from isolated roots are vacuous).
func (r *Runner) Roots(g *graph.Graph, k int) []graph.VertexID {
	rr := rng.NewStream(r.opts.Seed, 0x0071)
	roots := make([]graph.VertexID, 0, k)
	for attempts := 0; len(roots) < k && attempts < 100*k+1000; attempts++ {
		v := graph.VertexID(rr.Intn(g.NumVertices()))
		if g.OutDegree(v) > 0 {
			roots = append(roots, v)
		}
	}
	for len(roots) < k { // pathological graphs: fall back to vertex 0
		roots = append(roots, 0)
	}
	return roots
}

// MapRoots maps original-graph roots through a permutation.
func MapRoots(roots []graph.VertexID, perm reorder.Permutation) []graph.VertexID {
	if perm == nil {
		return roots
	}
	out := make([]graph.VertexID, len(roots))
	for i, v := range roots {
		out[i] = perm[v]
	}
	return out
}

// Measurement is an averaged timing result.
type Measurement struct {
	Mean time.Duration
	// CV is the coefficient of variation across trials (the paper reports
	// at most 2.3%).
	CV float64
}

// MeasureApp times spec on g: one warm-up execution, then Trials timed
// executions, each aggregating over the provided roots (root-dependent
// apps run once per RootsPerApp roots; rootless apps run once). Any
// graph backend works — the compress experiment times the same app on
// the plain and compressed representations of one layout.
func (r *Runner) MeasureApp(spec apps.Spec, g graph.View, roots []graph.VertexID) (Measurement, error) {
	runOnce := func() (time.Duration, error) {
		start := time.Now()
		if spec.NumRoots <= 1 {
			n := r.opts.RootsPerApp
			if spec.NumRoots == 0 {
				n = 1
			}
			for i := 0; i < n; i++ {
				in := apps.Input{Ctx: r.ctx, Graph: g, MaxIters: r.opts.MaxIters, Workers: r.opts.Workers}
				if spec.NumRoots > 0 {
					in.Roots = roots[i%len(roots) : i%len(roots)+1]
				}
				if _, err := spec.Run(in); err != nil {
					return 0, err
				}
			}
		} else {
			if _, err := spec.Run(apps.Input{Ctx: r.ctx, Graph: g, Roots: roots, MaxIters: r.opts.MaxIters, Workers: r.opts.Workers}); err != nil {
				return 0, err
			}
		}
		return time.Since(start), nil
	}
	if _, err := runOnce(); err != nil { // warm-up
		return Measurement{}, err
	}
	// Collect garbage left by graph construction/reordering so the GC's
	// background mark work does not get charged to whichever measurement
	// happens to run next.
	runtime.GC()
	times := make([]float64, 0, r.opts.Trials)
	var sum float64
	for i := 0; i < r.opts.Trials; i++ {
		d, err := runOnce()
		if err != nil {
			return Measurement{}, err
		}
		times = append(times, float64(d))
		sum += float64(d)
	}
	mean := sum / float64(len(times))
	var variance float64
	for _, t := range times {
		variance += (t - mean) * (t - mean)
	}
	variance /= float64(len(times))
	cv := 0.0
	if mean > 0 {
		cv = math.Sqrt(variance) / mean
	}
	return Measurement{Mean: time.Duration(mean), CV: cv}, nil
}

// SpeedupPercent converts (baseline, candidate) times into the paper's
// speed-up metric: positive means candidate is faster.
func SpeedupPercent(base, cand time.Duration) float64 {
	if cand <= 0 {
		return 0
	}
	return (float64(base)/float64(cand) - 1) * 100
}

// GeoMeanSpeedup aggregates speed-up percentages the way the paper does:
// geometric mean over the ratios, reported back as a percentage.
func GeoMeanSpeedup(percents []float64) float64 {
	if len(percents) == 0 {
		return 0
	}
	logSum := 0.0
	for _, p := range percents {
		ratio := 1 + p/100
		if ratio <= 0 {
			ratio = 1e-3 // clamp pathological slowdowns
		}
		logSum += math.Log(ratio)
	}
	return (math.Exp(logSum/float64(len(percents))) - 1) * 100
}
