package graphreorder

import (
	"context"
	"fmt"
	"strings"
	"time"

	"graphreorder/internal/apps"
	"graphreorder/internal/graph"
	"graphreorder/internal/ligra"
	"graphreorder/internal/par"
)

// App identifies one of the library's benchmark applications to Run. Apps
// come from the unified registry: the typed handles AppPR, AppPRD,
// AppSSSP, AppBC and AppRadii, the full list via Apps, or name-based
// lookup via AppByName. The zero App is invalid and makes Run fail.
type App struct {
	spec apps.Spec
}

// Name returns the paper's abbreviation for the application (PR, PRD,
// SSSP, BC, Radii).
func (a App) Name() string { return a.spec.Name }

// NeedsRoot reports whether the application requires WithRoot (SSSP, BC).
func (a App) NeedsRoot() bool { return a.spec.NumRoots == 1 }

// NeedsSamples reports whether the application requires WithSamples
// (Radii).
func (a App) NeedsSamples() bool { return a.spec.NumRoots > 1 }

// The application registry: one handle per benchmark application
// (Table VII of the paper).
var (
	// AppPR is pull-based PageRank run to convergence (damping 0.85).
	AppPR = mustApp("PR")
	// AppPRD is incremental PageRank-Delta, every round a dense pull
	// over the active vertices' contributions.
	AppPRD = mustApp("PRD")
	// AppSSSP is frontier-based Bellman-Ford single-source shortest
	// paths; requires a weighted graph and WithRoot.
	AppSSSP = mustApp("SSSP")
	// AppBC is single-source betweenness-centrality dependency
	// accumulation (Brandes); requires WithRoot.
	AppBC = mustApp("BC")
	// AppRadii estimates per-vertex eccentricity with up to 64
	// simultaneous BFS sources; requires WithSamples.
	AppRadii = mustApp("Radii")
)

func mustApp(name string) App {
	spec, err := apps.ByName(name)
	if err != nil {
		panic(err)
	}
	return App{spec: spec}
}

// Apps returns every registered application in the paper's presentation
// order.
func Apps() []App {
	specs := apps.All()
	out := make([]App, len(specs))
	for i, s := range specs {
		out[i] = App{spec: s}
	}
	return out
}

// AppByName resolves an application by its paper name, case-insensitively
// ("PR", "pr", "Radii", ...).
func AppByName(name string) (App, error) {
	for _, a := range Apps() {
		if strings.EqualFold(a.Name(), name) {
			return a, nil
		}
	}
	return App{}, fmt.Errorf("graphreorder: unknown application %q (want PR|PRD|SSSP|BC|Radii)", name)
}

// Tracer observes the memory behaviour of a traversal (see
// internal/ligra.Tracer); pass one to Run with WithTracer. A non-nil
// tracer pins the run to the deterministic sequential engine.
type Tracer = ligra.Tracer

// RoundStats describes one completed traversal round to a WithProgress
// observer.
type RoundStats = apps.RoundStats

// runConfig collects the functional options of a Run call.
type runConfig struct {
	workers   int
	maxIters  int
	tolerance float64
	initial   []float64
	root      VertexID
	hasRoot   bool
	samples   []VertexID
	tracer    Tracer
	progress  func(RoundStats)
}

// RunOption tunes a Run call.
type RunOption func(*runConfig)

// WithWorkers sets the number of worker goroutines the run may use:
// 1 pins the deterministic sequential engine, 0 (the default) means
// GOMAXPROCS. See the determinism contract in the package documentation
// for what each worker count guarantees per application.
func WithWorkers(n int) RunOption {
	return func(c *runConfig) { c.workers = n }
}

// WithMaxIters bounds iterative applications (PR, PRD); 0 (the default)
// means the per-app default (20).
func WithMaxIters(n int) RunOption {
	return func(c *runConfig) { c.maxIters = n }
}

// WithTolerance overrides an application's convergence constant: PR's L1
// convergence threshold (default 1e-7) and PRD's delta-activation epsilon
// (default 0.01). Ignored by SSSP, BC and Radii, which run to frontier
// exhaustion.
func WithTolerance(tol float64) RunOption {
	return func(c *runConfig) { c.tolerance = tol }
}

// WithInitialRanks makes PR start from ranks instead of the uniform
// vector — a warm start from the ranks of a slightly different graph
// over the same vertices converges to the same fixed point (within the
// tolerance) in fewer iterations. ranks must have one entry per vertex,
// or Run fails; it is not modified. Ignored by every application but PR.
func WithInitialRanks(ranks []float64) RunOption {
	return func(c *runConfig) { c.initial = ranks }
}

// WithRoot sets the source vertex of root-dependent applications (SSSP,
// BC). Required by those apps; ignored by the rest.
func WithRoot(v VertexID) RunOption {
	return func(c *runConfig) { c.root = v; c.hasRoot = true }
}

// WithSamples sets the BFS sample sources of Radii (at most 64 are used).
// Required by Radii; ignored by the rest.
func WithSamples(samples []VertexID) RunOption {
	return func(c *runConfig) { c.samples = samples }
}

// WithTracer attaches a memory-access tracer to the run (used by the
// cache simulator). Tracing pins the run to the sequential engine so
// traces stay deterministic.
func WithTracer(t Tracer) RunOption {
	return func(c *runConfig) { c.tracer = t }
}

// WithProgress registers an observer called after every completed
// traversal round with that round's statistics. The callback runs on the
// application goroutine between rounds: it never races with the
// traversal, and a slow callback slows the run.
func WithProgress(fn func(RoundStats)) RunOption {
	return func(c *runConfig) { c.progress = fn }
}

// Result is the structured record of one Run.
type Result struct {
	// App is the name of the application that ran.
	App string
	// Workers is the worker count the run actually used (1 when a tracer
	// forced the sequential engine).
	Workers int
	// Iterations is the number of EdgeMap rounds executed.
	Iterations int
	// EdgesTraversed counts edge examinations across all rounds.
	EdgesTraversed uint64
	// Frontiers records the per-round frontier sizes, in round order
	// (RoundStats.Frontier of each round).
	Frontiers []int
	// Checksum is an ordering-invariant digest of the result vector, used
	// to confirm that reordered executions compute the same answer.
	Checksum float64
	// Wall is the end-to-end Run time, option processing and validation
	// included; Compute is the traversal itself. Their difference is the
	// API's dispatch overhead.
	Wall    time.Duration
	Compute time.Duration

	values any
}

// Values returns the application's raw result vector: []float64 ranks
// (PR, PRD), []int64 distances (SSSP), []float64 dependency scores (BC)
// or []int32 eccentricities (Radii). Prefer the typed accessors.
func (r *Result) Values() any { return r.values }

// Ranks returns the rank vector of a PR or PRD run, nil otherwise.
func (r *Result) Ranks() []float64 {
	if r.App == "PR" || r.App == "PRD" {
		v, _ := r.values.([]float64)
		return v
	}
	return nil
}

// Distances returns the distance vector of an SSSP run (InfDistance
// marks unreachable vertices), nil otherwise.
func (r *Result) Distances() []int64 {
	v, _ := r.values.([]int64)
	return v
}

// Dependencies returns the dependency scores of a BC run, nil otherwise.
func (r *Result) Dependencies() []float64 {
	if r.App == "BC" {
		v, _ := r.values.([]float64)
		return v
	}
	return nil
}

// Eccentricities returns the per-vertex radius estimates of a Radii run
// (-1 marks vertices no sample reached), nil otherwise.
func (r *Result) Eccentricities() []int32 {
	v, _ := r.values.([]int32)
	return v
}

// Run executes app on g under ctx and returns a structured Result. It is
// the single entry point every consumer of the library shares: the same
// call shape serves one-shot CLI runs, the benchmark harness and the
// graphd query layer.
//
// g is any GraphView: the plain *Graph or a compressed graph
// (CompressGraph, OpenCSRZ). Results are bit-identical across backends —
// see the GraphView contract.
//
// Cancellation is cooperative and bounded by one traversal round: when
// ctx is canceled or its deadline passes, the run stops at the next round
// boundary and returns ctx.Err().
// A nil ctx means context.Background().
//
// Tuning goes through functional options (WithWorkers, WithMaxIters,
// WithTolerance, WithInitialRanks, WithRoot, WithSamples, WithTracer, WithProgress). The
// default worker count is GOMAXPROCS; WithWorkers(1) pins the
// deterministic sequential engine.
func Run(ctx context.Context, g GraphView, app App, opts ...RunOption) (*Result, error) {
	start := time.Now()
	if app.spec.Run == nil {
		return nil, fmt.Errorf("graphreorder: Run: invalid (zero) App; use the App registry (AppPR, AppByName, ...)")
	}
	if graph.IsNilView(g) {
		return nil, fmt.Errorf("graphreorder: Run %s: nil graph", app.Name())
	}
	if ctx == nil {
		ctx = context.Background()
	}
	var cfg runConfig
	for _, opt := range opts {
		if opt != nil {
			opt(&cfg)
		}
	}
	in := apps.Input{
		Ctx:          ctx,
		Graph:        g,
		MaxIters:     cfg.maxIters,
		Tolerance:    cfg.tolerance,
		InitialRanks: cfg.initial,
		Workers:      par.Resolve(cfg.workers),
		Tracer:       cfg.tracer,
		Progress:     cfg.progress,
	}
	if cfg.tracer != nil {
		in.Workers = 1 // traces stay deterministic
	}
	switch {
	case app.NeedsSamples():
		if len(cfg.samples) == 0 {
			return nil, fmt.Errorf("graphreorder: Run %s: needs WithSamples", app.Name())
		}
		in.Roots = cfg.samples
	case app.NeedsRoot():
		if !cfg.hasRoot {
			return nil, fmt.Errorf("graphreorder: Run %s: needs WithRoot", app.Name())
		}
		in.Roots = []VertexID{cfg.root}
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	computeStart := time.Now()
	out, err := app.spec.Run(in)
	if err != nil {
		return nil, err
	}
	done := time.Now()
	return &Result{
		App:            app.Name(),
		Workers:        in.Workers,
		Iterations:     out.Iterations,
		EdgesTraversed: out.EdgesTraversed,
		Frontiers:      out.Frontiers,
		Checksum:       out.Checksum,
		Wall:           done.Sub(start),
		Compute:        done.Sub(computeStart),
		values:         out.Values,
	}, nil
}
