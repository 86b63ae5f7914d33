package server

import (
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"
	"weak"

	"graphreorder/internal/graph"
)

func buildTest(t *testing.T, st *Store, spec BuildSpec) *Snapshot {
	t.Helper()
	snap, err := st.Build(spec)
	if err != nil {
		t.Fatalf("build %q: %v", spec.Name, err)
	}
	return snap
}

func TestStoreBuildPublishActivate(t *testing.T) {
	st := NewStore(1)
	if cur, _ := st.Acquire(); cur != nil {
		t.Fatal("empty store has a current snapshot")
	}

	// First build becomes current automatically.
	a := buildTest(t, st, BuildSpec{Name: "a", Dataset: "uni", Scale: "tiny", Technique: "dbg"})
	cur, release := st.Acquire()
	if cur != a {
		t.Fatal("first snapshot not current")
	}
	release()
	if a.technique != "dbg" || a.perm == nil || len(a.ranks) != a.graph.NumVertices() {
		t.Fatalf("snapshot not fully built: %+v", a.info(true))
	}

	// Second build does not steal current unless asked.
	b := buildTest(t, st, BuildSpec{Name: "b", Dataset: "uni", Scale: "tiny"})
	if cur, release = st.Acquire(); cur != a {
		t.Fatal("current switched without activate")
	}
	release()
	if snap, release := st.AcquireNamed("b"); snap != b {
		t.Fatal("named acquire failed")
	} else {
		release()
	}

	if err := st.Activate("b"); err != nil {
		t.Fatal(err)
	}
	if cur, release = st.Acquire(); cur != b {
		t.Fatal("activate did not swap")
	}
	release()
	if st.Swaps() != 2 { // initial publish + explicit activate
		t.Errorf("swaps = %d, want 2", st.Swaps())
	}
	if err := st.Activate("nope"); err == nil {
		t.Error("activating unknown snapshot succeeded")
	}

	infos := st.List()
	if len(infos) != 2 || !infos[0].Current || infos[0].Name != "b" {
		t.Errorf("list: %+v", infos)
	}
}

func TestStoreRebuildReplacesCurrentInPlace(t *testing.T) {
	st := NewStore(1)
	buildTest(t, st, BuildSpec{Name: "main", Dataset: "uni", Scale: "tiny"})
	v1, release := st.Acquire()
	// v1 still referenced while the same name is rebuilt.
	v2 := buildTest(t, st, BuildSpec{Name: "main", Dataset: "uni", Scale: "tiny", Technique: "dbg"})
	cur, r2 := st.Acquire()
	if cur != v2 {
		t.Fatal("rebuild of the current name did not become current")
	}
	r2()
	if !v1.retired.Load() {
		t.Error("replaced snapshot not retired")
	}
	if st.DrainingCount() != 1 {
		t.Errorf("draining = %d, want 1 (v1 still referenced)", st.DrainingCount())
	}
	release()
	// The last release itself unpins the retired snapshot: it must not
	// wait for the next publish (or DrainingCount's own sweep).
	st.mu.Lock()
	pinned := len(st.draining)
	st.mu.Unlock()
	if pinned != 0 || st.DrainingCount() != 0 {
		t.Errorf("draining = %d after release, want 0", pinned)
	}
}

// TestDrainedSnapshotIsCollected: once the last query on a retired
// snapshot returns, nothing in the store may keep the snapshot alive —
// not even the unused tail of the draining list's backing array.
func TestDrainedSnapshotIsCollected(t *testing.T) {
	st := NewStore(1)
	held := func() weak.Pointer[graph.Graph] {
		buildTest(t, st, BuildSpec{Name: "main", Dataset: "uni", Scale: "tiny"})
		snap, release := st.Acquire()
		defer release()
		buildTest(t, st, BuildSpec{Name: "main", Dataset: "uni", Scale: "tiny", Technique: "dbg"})
		if !snap.retired.Load() || st.DrainingCount() != 1 {
			t.Fatalf("retired %v, draining %d: want the held snapshot draining", snap.retired.Load(), st.DrainingCount())
		}
		return weak.Make(snap.graph.(*graph.Graph))
	}()
	runtime.GC()
	if held.Value() != nil {
		t.Fatal("a drained snapshot's graph is still reachable after its last query returned")
	}
	if st.DrainingCount() != 0 {
		t.Fatalf("draining = %d after release, want 0", st.DrainingCount())
	}
}

func TestStoreDropSemantics(t *testing.T) {
	st := NewStore(1)
	buildTest(t, st, BuildSpec{Name: "a", Dataset: "uni", Scale: "tiny"})
	buildTest(t, st, BuildSpec{Name: "b", Dataset: "uni", Scale: "tiny"})
	if err := st.Drop("a"); err == nil {
		t.Fatal("dropped the current snapshot")
	}
	if err := st.Drop("b"); err != nil {
		t.Fatal(err)
	}
	if snap, _ := st.AcquireNamed("b"); snap != nil {
		t.Fatal("dropped snapshot still acquirable")
	}
	if err := st.Drop("b"); err == nil {
		t.Fatal("double drop succeeded")
	}
}

// TestStoreDropForgetsBuildStatus: a dropped name leaves the build list
// (a cluster member builds one name per epoch and the router drops the
// old ones, so kept statuses would pile up), unless a rebuild of the name
// is still running.
func TestStoreDropForgetsBuildStatus(t *testing.T) {
	st := NewStore(1)
	for _, name := range []string{"a", "b", "c"} {
		buildTest(t, st, BuildSpec{Name: name, Dataset: "uni", Scale: "tiny"})
	}
	st.buildMu.Lock()
	st.builds["c"] = &BuildStatus{Name: "c", Stage: "loading", Started: time.Now()}
	st.buildMu.Unlock()
	for _, name := range []string{"b", "c"} {
		if err := st.Drop(name); err != nil {
			t.Fatal(err)
		}
	}
	var names []string
	for _, b := range st.Builds() {
		names = append(names, b.Name)
	}
	if !slices.Equal(names, []string{"a", "c"}) {
		t.Errorf("builds after dropping b and c (c rebuilding): %v, want [a c]", names)
	}
}

func TestStoreBuildErrors(t *testing.T) {
	st := NewStore(1)
	cases := []BuildSpec{
		{},                                      // no name
		{Name: "x"},                             // no source
		{Name: "x", Dataset: "nope"},            // unknown dataset
		{Name: "x", Dataset: "uni", Scale: "?"}, // bad scale
		{Name: "x", Path: "/nonexistent/file"},  // missing file
		{Name: "x", Dataset: "uni", Scale: "tiny", Technique: "nope"},  // bad technique
		{Name: "x", Dataset: "uni", Scale: "tiny", Degree: "sideways"}, // bad degree
		{Name: "x", Dataset: "uni", Scale: "tiny", Path: "/also/set"},  // both sources
	}
	for i, spec := range cases {
		if _, err := st.Build(spec); err == nil {
			t.Errorf("case %d (%+v): build succeeded", i, spec)
		}
	}
	// Failed named builds surface through the status list.
	found := false
	for _, b := range st.Builds() {
		if b.Name == "x" && b.Stage == "failed" && b.Err != "" {
			found = true
		}
	}
	if !found {
		t.Error("failed build not visible in Builds()")
	}
}

func TestBuildStatusLifecycle(t *testing.T) {
	st := NewStore(1)
	st.BuildAsync(BuildSpec{Name: "bg", Dataset: "uni", Scale: "tiny"})
	st.WaitBuilds()
	builds := st.Builds()
	if len(builds) != 1 {
		t.Fatalf("builds: %+v", builds)
	}
	b := builds[0]
	if b.Stage != "ready" || b.Running || b.Epoch == 0 || b.Finished == "" {
		t.Errorf("build status after completion: %+v", b)
	}
	if !strings.Contains(b.Finished, "T") {
		t.Errorf("finished timestamp not RFC3339: %q", b.Finished)
	}
}
