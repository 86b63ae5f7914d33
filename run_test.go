package graphreorder

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"
)

// testGraph returns a small weighted dataset every application can run
// on, plus a root with outgoing edges.
func testGraph(t testing.TB) (*Graph, VertexID) {
	t.Helper()
	g, err := GenerateDataset("wl", "tiny")
	if err != nil {
		t.Fatal(err)
	}
	var root VertexID
	for v := 0; v < g.NumVertices(); v++ {
		if g.OutDegree(VertexID(v)) > g.OutDegree(root) {
			root = VertexID(v)
		}
	}
	return g, root
}

func TestAppRegistry(t *testing.T) {
	if got := len(Apps()); got != 5 {
		t.Fatalf("Apps() returned %d apps, want 5", got)
	}
	for _, name := range []string{"PR", "prd", "Sssp", "bc", "RADII"} {
		app, err := AppByName(name)
		if err != nil {
			t.Errorf("AppByName(%q): %v", name, err)
			continue
		}
		if app.Name() == "" {
			t.Errorf("AppByName(%q) returned a nameless app", name)
		}
	}
	if _, err := AppByName("pagerank"); err == nil {
		t.Error("unknown app name accepted")
	}
	if !AppSSSP.NeedsRoot() || !AppBC.NeedsRoot() || AppPR.NeedsRoot() {
		t.Error("NeedsRoot misclassifies apps")
	}
	if !AppRadii.NeedsSamples() || AppSSSP.NeedsSamples() {
		t.Error("NeedsSamples misclassifies apps")
	}
}

func TestRunInputValidation(t *testing.T) {
	g, root := testGraph(t)
	ctx := context.Background()
	if _, err := Run(ctx, g, App{}); err == nil {
		t.Error("zero App accepted")
	}
	if _, err := Run(ctx, nil, AppPR); err == nil {
		t.Error("nil graph accepted")
	}
	if _, err := Run(ctx, g, AppSSSP); err == nil {
		t.Error("SSSP without WithRoot accepted")
	}
	if _, err := Run(ctx, g, AppBC); err == nil {
		t.Error("BC without WithRoot accepted")
	}
	if _, err := Run(ctx, g, AppRadii); err == nil {
		t.Error("Radii without WithSamples accepted")
	}
	// nil context means background.
	if _, err := Run(nil, g, AppSSSP, WithRoot(root)); err != nil { //nolint:staticcheck
		t.Errorf("nil ctx: %v", err)
	}
}

func TestRunResultShape(t *testing.T) {
	g, root := testGraph(t)
	ctx := context.Background()
	samples := []VertexID{root, 0}

	cases := []struct {
		app  App
		opts []RunOption
	}{
		{AppPR, []RunOption{WithMaxIters(5)}},
		{AppPRD, []RunOption{WithMaxIters(5)}},
		{AppSSSP, []RunOption{WithRoot(root)}},
		{AppBC, []RunOption{WithRoot(root)}},
		{AppRadii, []RunOption{WithSamples(samples)}},
	}
	for _, tc := range cases {
		res, err := Run(ctx, g, tc.app, append(tc.opts, WithWorkers(1))...)
		if err != nil {
			t.Fatalf("%s: %v", tc.app.Name(), err)
		}
		if res.App != tc.app.Name() {
			t.Errorf("%s: Result.App = %q", tc.app.Name(), res.App)
		}
		if res.Workers != 1 {
			t.Errorf("%s: Workers = %d, want 1", tc.app.Name(), res.Workers)
		}
		if res.Iterations <= 0 || len(res.Frontiers) != res.Iterations {
			t.Errorf("%s: Iterations=%d Frontiers=%v", tc.app.Name(), res.Iterations, res.Frontiers)
		}
		if res.EdgesTraversed == 0 {
			t.Errorf("%s: no edges traversed", tc.app.Name())
		}
		if res.Wall < res.Compute || res.Compute <= 0 {
			t.Errorf("%s: Wall=%v Compute=%v", tc.app.Name(), res.Wall, res.Compute)
		}
		if res.Values() == nil {
			t.Errorf("%s: nil Values", tc.app.Name())
		}
	}

	// Typed accessors return the right vector for the right app and nil
	// for the rest.
	pr, _ := Run(ctx, g, AppPR, WithWorkers(1))
	if len(pr.Ranks()) != g.NumVertices() || pr.Distances() != nil || pr.Dependencies() != nil || pr.Eccentricities() != nil {
		t.Error("PR accessors wrong")
	}
	sp, _ := Run(ctx, g, AppSSSP, WithRoot(root), WithWorkers(1))
	if len(sp.Distances()) != g.NumVertices() || sp.Ranks() != nil || sp.Distances()[root] != 0 {
		t.Error("SSSP accessors wrong")
	}
	bc, _ := Run(ctx, g, AppBC, WithRoot(root), WithWorkers(1))
	if len(bc.Dependencies()) != g.NumVertices() || bc.Ranks() != nil {
		t.Error("BC accessors wrong")
	}
	ra, _ := Run(ctx, g, AppRadii, WithSamples(samples), WithWorkers(1))
	if len(ra.Eccentricities()) != g.NumVertices() || ra.Eccentricities()[root] != 0 {
		t.Error("Radii accessors wrong")
	}
}

func TestRunProgressObserver(t *testing.T) {
	g, _ := testGraph(t)
	var rounds []RoundStats
	res, err := Run(context.Background(), g, AppPR, WithWorkers(1), WithMaxIters(5),
		WithProgress(func(rs RoundStats) { rounds = append(rounds, rs) }))
	if err != nil {
		t.Fatal(err)
	}
	if len(rounds) != res.Iterations {
		t.Fatalf("progress called %d times, want %d", len(rounds), res.Iterations)
	}
	var edges uint64
	for i, rs := range rounds {
		if rs.Round != i+1 {
			t.Errorf("round %d reported as %d", i+1, rs.Round)
		}
		if rs.Frontier != res.Frontiers[i] {
			t.Errorf("round %d frontier %d != Result.Frontiers %d", i+1, rs.Frontier, res.Frontiers[i])
		}
		edges += rs.Edges
	}
	if edges != res.EdgesTraversed {
		t.Errorf("per-round edges sum %d != EdgesTraversed %d", edges, res.EdgesTraversed)
	}
}

func TestRunTolerance(t *testing.T) {
	g, _ := testGraph(t)
	// A loose tolerance must converge in no more iterations than a tight
	// one.
	loose, err := Run(context.Background(), g, AppPR, WithWorkers(1), WithTolerance(1e-2))
	if err != nil {
		t.Fatal(err)
	}
	tight, err := Run(context.Background(), g, AppPR, WithWorkers(1), WithTolerance(1e-12))
	if err != nil {
		t.Fatal(err)
	}
	if loose.Iterations > tight.Iterations {
		t.Errorf("loose tolerance took %d iters, tight took %d", loose.Iterations, tight.Iterations)
	}
}

// TestRunCancellation is the acceptance test for cooperative
// cancellation: a run on sd/small canceled mid-iteration returns
// ctx.Err() promptly (bounded by one EdgeMap round), leaks no goroutines,
// and leaves the frontier pool reusable.
func TestRunCancellation(t *testing.T) {
	g, err := GenerateDataset("sd", "small")
	if err != nil {
		t.Fatal(err)
	}
	before := runtime.NumGoroutine()

	for _, workers := range []int{1, 4} {
		ctx, cancel := context.WithCancel(context.Background())
		calls := 0
		res, err := Run(ctx, g, AppPR, WithWorkers(workers), WithMaxIters(50), WithTolerance(1e-15),
			WithProgress(func(rs RoundStats) {
				calls++
				if rs.Round == 1 {
					cancel() // mid-run: between round 1 and round 2
				}
			}))
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: err = %v (res=%v), want context.Canceled", workers, err, res)
		}
		// Canceled between rounds: the check at the next round boundary
		// must fire before another round completes.
		if calls != 1 {
			t.Errorf("workers=%d: %d rounds completed after cancellation, want 0", workers, calls-1)
		}
	}

	// A deadline that expires mid-run aborts within one round and
	// reports DeadlineExceeded; measure how promptly Run returns after
	// expiry.
	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	<-ctx.Done()
	start := time.Now()
	if _, err := Run(ctx, g, AppPR, WithWorkers(1), WithMaxIters(50)); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("expired deadline: err = %v", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("Run took %v to notice an already-expired deadline", elapsed)
	}

	// Every app refuses to start under a done context.
	done, cancelDone := context.WithCancel(context.Background())
	cancelDone()
	root := VertexID(0)
	appOpts := map[string][]RunOption{
		"PR":    {},
		"PRD":   {},
		"SSSP":  {WithRoot(root)},
		"BC":    {WithRoot(root)},
		"Radii": {WithSamples([]VertexID{root})},
	}
	for _, app := range Apps() {
		if _, err := Run(done, g, app, appOpts[app.Name()]...); !errors.Is(err, context.Canceled) {
			t.Errorf("%s under done ctx: err = %v", app.Name(), err)
		}
	}

	// No goroutine leaks: worker goroutines are joined per round, so the
	// count settles back to the baseline.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before+2 && time.Now().Before(deadline) {
		runtime.Gosched()
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before+2 {
		t.Errorf("goroutines: %d before, %d after cancellation", before, n)
	}

	// The frontier pool survives cancellation: a full run afterwards
	// (parallel and sequential) produces the same answer as an
	// uncanceled baseline.
	seq, err := Run(context.Background(), g, AppPR, WithWorkers(1), WithMaxIters(10))
	if err != nil {
		t.Fatal(err)
	}
	par, err := Run(context.Background(), g, AppPR, WithWorkers(4), WithMaxIters(10))
	if err != nil {
		t.Fatal(err)
	}
	if seq.Checksum != par.Checksum || seq.Iterations != par.Iterations {
		t.Errorf("post-cancellation runs diverge: %v/%d vs %v/%d",
			seq.Checksum, seq.Iterations, par.Checksum, par.Iterations)
	}
}

// TestRunMidIterationCancelAllApps cancels every application from its
// own progress callback after the first round: apps that have a second
// round to run must return ctx.Err() without completing another round.
func TestRunMidIterationCancelAllApps(t *testing.T) {
	g, root := testGraph(t)
	appOpts := map[string][]RunOption{
		"PR":    {WithMaxIters(10), WithTolerance(1e-15)},
		"PRD":   {WithMaxIters(10), WithTolerance(1e-15)},
		"SSSP":  {WithRoot(root)},
		"BC":    {WithRoot(root)},
		"Radii": {WithSamples([]VertexID{root, 0, 1})},
	}
	for _, app := range Apps() {
		opts := append(appOpts[app.Name()], WithWorkers(2))
		full, err := Run(context.Background(), g, app, opts...)
		if err != nil {
			t.Fatalf("%s: %v", app.Name(), err)
		}
		if full.Iterations < 2 {
			t.Fatalf("%s finished in %d round(s); the mid-run cancel needs at least 2", app.Name(), full.Iterations)
		}
		ctx, cancel := context.WithCancel(context.Background())
		rounds := 0
		_, err = Run(ctx, g, app, append(opts, WithProgress(func(rs RoundStats) {
			rounds++
			if rs.Round == 1 {
				cancel()
			}
		}))...)
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Errorf("%s: mid-run cancel returned %v", app.Name(), err)
		}
		if rounds != 1 {
			t.Errorf("%s: %d round(s) completed after cancellation, want 0", app.Name(), rounds-1)
		}
	}
}

// TestReorderContext covers the phase-grained cancellation of the
// reordering pipeline (what cmd/reorder -timeout wires to).
func TestReorderContext(t *testing.T) {
	g, _ := testGraph(t)
	done, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := ReorderContext(done, g, DBG(), OutDegree); !errors.Is(err, context.Canceled) {
		t.Errorf("canceled reorder: err = %v", err)
	}
	res, err := ReorderContext(context.Background(), g, DBG(), OutDegree)
	if err != nil {
		t.Fatal(err)
	}
	base, err := Reorder(g, DBG(), OutDegree)
	if err != nil {
		t.Fatal(err)
	}
	for v := range base.Perm {
		if base.Perm[v] != res.Perm[v] {
			t.Fatalf("ReorderContext permutation diverges at %d", v)
		}
	}
}
