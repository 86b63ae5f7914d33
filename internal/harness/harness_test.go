package harness

import (
	"bytes"
	"math"
	"runtime"
	"strings"
	"testing"
	"time"
	"weak"

	"graphreorder/internal/apps"
	"graphreorder/internal/gen"
	"graphreorder/internal/graph"
	"graphreorder/internal/reorder"
)

func tinyRunner(buf *bytes.Buffer) *Runner {
	return NewRunner(Options{
		Scale:       gen.Tiny,
		Trials:      1,
		MaxIters:    3,
		RootsPerApp: 1,
		Out:         buf,
	})
}

func TestOptionDefaults(t *testing.T) {
	r := NewRunner(Options{})
	o := r.Options()
	if o.Trials != 3 || o.MaxIters != 10 || o.RootsPerApp != 4 || o.GorderScale != 40 || o.Seed == 0 {
		t.Errorf("defaults wrong: %+v", o)
	}
}

// TestUnknownDatasetRejected holds Graph, and so every walk, to the
// dataset registry.
func TestUnknownDatasetRejected(t *testing.T) {
	r := tinyRunner(&bytes.Buffer{})
	if _, err := r.Graph("bogus"); err == nil {
		t.Error("unknown dataset accepted")
	}
	visited := false
	err := r.walk([]string{"bogus"}, nil, nil, func(layout) error { visited = true; return nil })
	if err == nil || visited {
		t.Errorf("a walk over an unknown dataset visited %v, err %v", visited, err)
	}
}

// TestWalkDropsEachLayout pins the walk's memory bound with weak
// pointers: at every visit, after a collection, the previous dataset's
// graph and each of its reorders are gone, and so is every reorder the
// walk visited before this one, so a run holds at most one dataset and
// one relabeled copy of it.
func TestWalkDropsEachLayout(t *testing.T) {
	r := tinyRunner(&bytes.Buffer{})
	techs := []reorder.Technique{reorder.SortTechnique{}, reorder.HubCluster{}, reorder.NewDBG()}
	kinds := []graph.DegreeKind{graph.OutDegree, graph.InDegree}
	var (
		datasets []weak.Pointer[graph.Graph] // every earlier dataset
		reorders []weak.Pointer[graph.Graph] // every earlier reorder
		visits   int
	)
	err := r.walk([]string{"sd", "mp"}, techs, kinds, func(l layout) error {
		visits++
		runtime.GC()
		for i, w := range reorders {
			if w.Value() != nil {
				t.Errorf("visit %d (%s/%s): reorder %d of the walk is still reachable", visits, l.ds, l.name(), i)
			}
		}
		if l.res == nil {
			for i, w := range datasets {
				if w.Value() != nil {
					t.Errorf("visit %d (%s): dataset %d of the walk is still reachable", visits, l.ds, i)
				}
			}
			datasets = append(datasets, weak.Make(l.g))
			return nil
		}
		reorders = append(reorders, weak.Make(l.res.Graph))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if want := 2 * (1 + len(techs)*len(kinds)); visits != want {
		t.Errorf("the walk made %d visits, want %d", visits, want)
	}
}

func TestReorderCostGorderScaling(t *testing.T) {
	r := NewRunner(Options{GorderScale: 10})
	res := &reorder.Result{ReorderTime: time.Second, RebuildTime: time.Millisecond}
	if got := r.ReorderCost(res, reorder.Gorder{}); got != time.Second/10+time.Millisecond {
		t.Errorf("Gorder cost = %v", got)
	}
	if got := r.ReorderCost(res, reorder.NewDBG()); got != time.Second+time.Millisecond {
		t.Errorf("DBG cost = %v", got)
	}
}

func TestRootsValidAndDeterministic(t *testing.T) {
	r := tinyRunner(&bytes.Buffer{})
	g, err := r.Graph("wl")
	if err != nil {
		t.Fatal(err)
	}
	roots1 := r.Roots(g, 8)
	roots2 := r.Roots(g, 8)
	if len(roots1) != 8 {
		t.Fatalf("got %d roots", len(roots1))
	}
	for i := range roots1 {
		if roots1[i] != roots2[i] {
			t.Fatal("roots not deterministic")
		}
		if g.OutDegree(roots1[i]) == 0 {
			t.Errorf("root %d has no out-edges", roots1[i])
		}
	}
}

func TestSpeedupMath(t *testing.T) {
	if s := SpeedupPercent(2*time.Second, time.Second); s != 100 {
		t.Errorf("2x speedup = %v%%, want 100", s)
	}
	if s := SpeedupPercent(time.Second, 2*time.Second); s != -50 {
		t.Errorf("2x slowdown = %v%%, want -50", s)
	}
	if s := SpeedupPercent(time.Second, 0); s != 0 {
		t.Errorf("zero candidate = %v%%", s)
	}
	if g := GeoMeanSpeedup(nil); g != 0 {
		t.Errorf("empty geomean = %v", g)
	}
	// Geomean of +100% and -50% is 0 (2x * 0.5x = 1x).
	if g := GeoMeanSpeedup([]float64{100, -50}); math.Abs(g) > 1e-9 {
		t.Errorf("geomean(+100,-50) = %v, want 0", g)
	}
}

func TestMeasureAppReportsTime(t *testing.T) {
	r := tinyRunner(&bytes.Buffer{})
	g, err := r.Graph("kr")
	if err != nil {
		t.Fatal(err)
	}
	spec, _ := apps.ByName("PR")
	m, err := r.MeasureApp(spec, g, nil)
	if err != nil {
		t.Fatal(err)
	}
	if m.Mean <= 0 {
		t.Errorf("mean time %v", m.Mean)
	}
	if m.CV < 0 || m.CV > 5 {
		t.Errorf("implausible CV %v", m.CV)
	}
}

func TestTableRendering(t *testing.T) {
	var buf bytes.Buffer
	tb := NewTable("Caption", "col1", "column-two")
	tb.Add("a", "1")
	tb.Addf("b", "%d%%", 42)
	tb.Note("footnote %d", 7)
	tb.Render(&buf)
	out := buf.String()
	for _, want := range []string{"Caption", "col1", "column-two", "42%", "footnote 7"} {
		if !strings.Contains(out, want) {
			t.Errorf("rendered table missing %q:\n%s", want, out)
		}
	}
}

func TestStaticTablesRun(t *testing.T) {
	var buf bytes.Buffer
	r := tinyRunner(&buf)
	for _, id := range []string{"table1", "table2", "table3", "table4", "table5", "table6"} {
		if err := r.RunByID(id); err != nil {
			t.Fatalf("%s: %v", id, err)
		}
	}
	out := buf.String()
	for _, want := range []string{"Table I", "Table II", "Table III", "Table IV", "Table V", "Table VI"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q", want)
		}
	}
}

func TestRunByIDUnknown(t *testing.T) {
	r := tinyRunner(&bytes.Buffer{})
	if err := r.RunByID("figNaN"); err == nil {
		t.Error("unknown experiment accepted")
	}
}

func TestExperimentRegistryComplete(t *testing.T) {
	ids := ExperimentIDs()
	want := []string{
		"table1", "table2", "table3", "table4", "table5", "table6",
		"fig3", "fig5", "table11", "fig6", "fig7", "fig8", "fig9",
		"fig10", "fig11", "table12", "quality", "compress", "ablation-groups",
		"ablation-gorderdbg", "ablation-genorder", "ablation-dynamic",
	}
	if len(ids) != len(want) {
		t.Fatalf("registry has %d experiments, want %d", len(ids), len(want))
	}
	for i := range want {
		if ids[i] != want[i] {
			t.Errorf("ids[%d] = %s, want %s", i, ids[i], want[i])
		}
	}
}

// TestTimingExperimentsSmoke runs each measurement-based experiment at
// Tiny scale just to confirm the full pipeline executes; numbers at this
// scale are noise, shapes are checked elsewhere.
func TestTimingExperimentsSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("harness smoke is slow")
	}
	var buf bytes.Buffer
	r := tinyRunner(&buf)
	for _, id := range []string{"fig3", "table11", "fig7", "fig9", "fig10", "fig11", "table12",
		"quality", "compress", "ablation-groups"} {
		if err := r.RunByID(id); err != nil {
			t.Fatalf("%s: %v", id, err)
		}
	}
	if !strings.Contains(buf.String(), "Fig. 3") {
		t.Error("fig3 output missing")
	}
	if !strings.Contains(buf.String(), "advisor: uni -> original") {
		t.Error("quality experiment did not report the advisor's no-skew verdict")
	}
}

func TestSingleRootSpecRunsOneTraversal(t *testing.T) {
	spec, _ := apps.ByName("SSSP")
	wrapped := singleRootSpec(spec)
	r := tinyRunner(&bytes.Buffer{})
	g, err := r.Graph("wl")
	if err != nil {
		t.Fatal(err)
	}
	roots := r.Roots(g, 4)
	out, err := wrapped.Run(apps.Input{Graph: g, Roots: roots})
	if err != nil {
		t.Fatal(err)
	}
	if out.EdgesTraversed == 0 {
		t.Error("wrapped spec did nothing")
	}
}

func TestMapRoots(t *testing.T) {
	perm := reorder.Permutation{2, 0, 1}
	got := MapRoots([]uint32{0, 2}, perm)
	if got[0] != 2 || got[1] != 1 {
		t.Errorf("MapRoots = %v", got)
	}
	same := MapRoots([]uint32{1}, nil)
	if same[0] != 1 {
		t.Error("nil perm should be identity")
	}
}
