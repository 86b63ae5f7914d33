package server

import (
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"graphreorder/internal/csrz"
	"graphreorder/internal/gen"
	"graphreorder/internal/graph"
)

// writeCSRZ generates a dataset and writes it as a .csrz container,
// returning the path and the plain graph it encodes.
func writeCSRZ(t *testing.T, dataset string) (string, *graph.Graph) {
	t.Helper()
	g, err := gen.Generate(gen.MustDataset(dataset, gen.Tiny))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), dataset+".csrz")
	if err := csrz.Encode(g).WriteFile(path); err != nil {
		t.Fatal(err)
	}
	return path, g
}

// TestMmapSnapshotRetireClosesAfterDrain walks the drain-before-munmap
// protocol end to end on one snapshot: a mapped .csrz snapshot replaced
// under load must keep serving the in-flight holder, must not be
// unmapped while a reference is out, and must be unmapped by the last
// release — not sooner, not never.
func TestMmapSnapshotRetireClosesAfterDrain(t *testing.T) {
	path, plain := writeCSRZ(t, "uni")
	st := NewStore(1)
	v1, err := st.Build(BuildSpec{Name: "m", Path: path, Technique: "original"})
	if err != nil {
		t.Fatal(err)
	}
	if v1.backend != backendCompressed || v1.cz == nil {
		t.Fatalf("csrz path built backend %q (cz %v), want compressed", v1.backend, v1.cz != nil)
	}
	if !v1.cz.MmapBacked() {
		t.Skip("no mmap on this platform")
	}

	snap, release := st.Acquire()
	if snap != v1 {
		t.Fatal("acquire mismatch")
	}

	// Replace under the same name while the reference is held.
	if _, err := st.Build(BuildSpec{Name: "m", Path: path, Technique: "original"}); err != nil {
		t.Fatal(err)
	}
	if got := st.DrainingCount(); got != 1 {
		t.Fatalf("draining = %d, want 1", got)
	}
	if snap.cz.Closed() {
		t.Fatal("mapping closed while a reference was held")
	}
	// The holder still reads complete adjacency through the mapping.
	if snap.graph.NumVertices() != plain.NumVertices() {
		t.Fatal("held snapshot lost its graph")
	}
	want := plain.OutNeighbors(0)
	got := snap.graph.OutNeighbors(0)
	if len(got) != len(want) {
		t.Fatalf("held snapshot decodes %d neighbors of v0, want %d", len(got), len(want))
	}

	release()
	if !snap.cz.Closed() {
		t.Fatal("last release did not unmap the retired snapshot")
	}
	if got := st.DrainingCount(); got != 0 {
		t.Fatalf("draining = %d after release, want 0", got)
	}
	// Double release stays harmless, and Closed is idempotent.
	release()
	if err := snap.cz.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}

	// The replacement is live and untouched by its predecessor's unmap.
	cur, curRelease := st.Acquire()
	defer curRelease()
	if cur == v1 || cur.cz.Closed() {
		t.Fatal("current snapshot is stale or closed")
	}
	if cur.graph.NumVertices() != plain.NumVertices() {
		t.Fatal("replacement serves wrong graph")
	}
}

// TestAcquireNeverReturnsUnmappedSnapshot races Acquire/release against
// continuous same-name republishes of a mapped snapshot. The acquire
// retry loop must always hand out a serveable reference: no nil views,
// no reads through a closed mapping (-race plus the in-range decode
// below would catch a munmap slipping under a reader), and after the
// churn stops everything retired must drain to zero and be unmapped.
func TestAcquireNeverReturnsUnmappedSnapshot(t *testing.T) {
	path, plain := writeCSRZ(t, "kr")
	st := NewStore(1)
	first, err := st.Build(BuildSpec{Name: "m", Path: path, Technique: "original"})
	if err != nil {
		t.Fatal(err)
	}
	if !first.cz.MmapBacked() {
		t.Skip("no mmap on this platform")
	}
	wantN := plain.NumVertices()
	wantDeg := len(plain.OutNeighbors(0))

	stop := make(chan struct{})
	var wg sync.WaitGroup
	var reads, republishes atomic.Uint64
	var retired []*Snapshot
	for r := 0; r < 6; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				snap, release := st.Acquire()
				if snap == nil {
					t.Error("Acquire returned nil with a published snapshot")
					return
				}
				if snap.graph.NumVertices() != wantN {
					t.Errorf("acquired snapshot has %d vertices, want %d", snap.graph.NumVertices(), wantN)
				}
				if got := snap.graph.OutNeighbors(0); len(got) != wantDeg {
					t.Errorf("acquired snapshot decodes %d neighbors, want %d", len(got), wantDeg)
				}
				release()
				reads.Add(1)
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			snap, err := st.Build(BuildSpec{Name: "m", Path: path, Technique: "original"})
			if err != nil {
				t.Errorf("republish: %v", err)
				return
			}
			retired = append(retired, snap)
			republishes.Add(1)
		}
	}()

	// Let at least three republishes land (builds are slow under -race)
	// before stopping the churn.
	churnDeadline := time.Now().Add(10 * time.Second)
	for republishes.Load() < 3 && time.Now().Before(churnDeadline) {
		time.Sleep(10 * time.Millisecond)
	}
	close(stop)
	wg.Wait()

	if reads.Load() == 0 || republishes.Load() < 2 {
		t.Fatalf("churn too weak: %d reads, %d republishes", reads.Load(), republishes.Load())
	}
	// Everything except the final current must drain and unmap.
	deadline := time.Now().Add(2 * time.Second)
	for st.DrainingCount() > 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if got := st.DrainingCount(); got != 0 {
		t.Fatalf("draining = %d after churn stopped, want 0", got)
	}
	cur, release := st.Acquire()
	defer release()
	for i, snap := range retired[:len(retired)-1] {
		if snap == cur {
			continue
		}
		if !snap.cz.Closed() {
			t.Errorf("retired snapshot %d never unmapped", i)
		}
	}
	if cur.cz.Closed() {
		t.Fatal("current snapshot unmapped")
	}
	t.Logf("%d reads raced %d republishes, all retired mappings closed", reads.Load(), republishes.Load())
}

// TestBuildBackendResolution pins the backend-selection matrix: the
// default for plain inputs is plain, the default for .csrz inputs is
// compressed (zero-copy), an explicit Backend wins over both defaults,
// auto decides by predicted ratio, and junk is rejected. Every spelling of
// "no reordering" publishes without a permutation, and a .csrz input
// under one stays served from its mapping.
func TestBuildBackendResolution(t *testing.T) {
	path, _ := writeCSRZ(t, "uni")
	st := NewStore(1)

	cases := []struct {
		name    string
		spec    BuildSpec
		backend string
		noPerm  bool // serves the as-loaded order: no permutation kept
		mapped  bool // serves the .csrz file's mapping zero-copy
	}{
		{"dataset-default", BuildSpec{Name: "a", Dataset: "uni", Scale: "tiny"}, backendPlain, true, false},
		{"dataset-compressed", BuildSpec{Name: "b", Dataset: "uni", Scale: "tiny", Backend: "compressed"}, backendCompressed, true, false},
		{"csrz-default", BuildSpec{Name: "c", Path: path, Technique: "original"}, backendCompressed, true, true},
		{"csrz-plain", BuildSpec{Name: "d", Path: path, Technique: "original", Backend: "plain"}, backendPlain, true, false},
		{"dataset-dbg", BuildSpec{Name: "e", Dataset: "uni", Scale: "tiny", Technique: "dbg", Backend: "compressed"}, backendCompressed, false, false},
		// uni's tiny predicted ratio is ~2x, above the auto threshold.
		{"dataset-auto", BuildSpec{Name: "f", Dataset: "uni", Scale: "tiny", Backend: "auto"}, backendCompressed, true, false},
		{"dataset-none", BuildSpec{Name: "g", Dataset: "uni", Scale: "tiny", Technique: "none"}, backendPlain, true, false},
		{"dataset-identity", BuildSpec{Name: "h", Dataset: "uni", Scale: "tiny", Technique: "Identity"}, backendPlain, true, false},
		{"csrz-none", BuildSpec{Name: "i", Path: path, Technique: "none"}, backendCompressed, true, true},
	}
	for _, tc := range cases {
		snap, err := st.Build(tc.spec)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if (snap.perm == nil) != tc.noPerm {
			t.Errorf("%s: permutation kept = %v, want %v", tc.name, snap.perm != nil, !tc.noPerm)
		}
		if snap.mmapBacked() != tc.mapped {
			t.Errorf("%s: mmap-backed = %v, want %v", tc.name, snap.mmapBacked(), tc.mapped)
		}
		if snap.backend != tc.backend {
			t.Errorf("%s: backend %q, want %q", tc.name, snap.backend, tc.backend)
		}
		if (snap.cz != nil) != (tc.backend == backendCompressed) {
			t.Errorf("%s: cz presence %v does not match backend %q", tc.name, snap.cz != nil, snap.backend)
		}
		info := snap.info(false)
		if tc.backend == backendCompressed && info.CompressionRatio <= 1 {
			t.Errorf("%s: compressed snapshot reports ratio %v", tc.name, info.CompressionRatio)
		}
		if tc.backend == backendPlain && info.CompressionRatio != 1 {
			t.Errorf("%s: plain snapshot reports ratio %v, want 1", tc.name, info.CompressionRatio)
		}
	}

	if _, err := st.Build(BuildSpec{Name: "x", Dataset: "uni", Scale: "tiny", Backend: "bogus"}); err == nil {
		t.Error("bogus backend accepted")
	}
	// The backend is spelled in Backend only: a compress stage is an
	// unknown technique, not a plain snapshot published under that name.
	if _, err := st.Build(BuildSpec{Name: "y", Dataset: "uni", Scale: "tiny", Technique: "sort|compress"}); err == nil {
		t.Error("a compress stage accepted")
	}
}
