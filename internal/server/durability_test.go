package server

import (
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"testing"
	"time"

	"graphreorder/internal/faultinject"
	"graphreorder/internal/graph"
	"graphreorder/internal/wal"
)

// durableServer builds one durable mutable snapshot named "live" whose
// WAL/checkpoint files live in a test temp dir.
func durableServer(t *testing.T, checkpointEvery int) (*Server, string) {
	t.Helper()
	dir := t.TempDir()
	s := New(Config{Workers: 1, QueryTimeout: 30 * time.Second})
	t.Cleanup(func() { s.store.CloseLive() })
	if err := s.store.SetDurability(Durability{
		Dir: dir, Fsync: wal.SyncAlways, CheckpointEvery: checkpointEvery,
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.store.Build(BuildSpec{
		Name: "live", Dataset: "uni", Scale: "tiny", Technique: "original", Mutable: true,
	}); err != nil {
		t.Fatal(err)
	}
	return s, dir
}

func mutate(t *testing.T, h http.Handler, updates []MutateUpdate) MutateResult {
	t.Helper()
	var res MutateResult
	code, body := postJSON(t, h, "/v1/snapshots/live/edges", MutateRequest{Updates: updates}, &res)
	if code != http.StatusOK {
		t.Fatalf("mutate: %d %s", code, body)
	}
	return res
}

// TestCrashRecovery is the heart of the durability contract: writes are
// acknowledged, the pipeline "crashes" (WAL abandoned, no final
// checkpoint), and a rebuild recovers every acknowledged batch with an
// epoch counter past every issued receipt.
func TestCrashRecovery(t *testing.T) {
	s, _ := durableServer(t, 100) // checkpoint far away: recovery must replay the WAL
	h := s.Handler()

	var last MutateResult
	for i := 0; i < 5; i++ {
		last = mutate(t, h, []MutateUpdate{
			{Src: 0, Dst: 1, Weight: uint32(i + 1)},
			{Src: 1, Dst: 2, Weight: uint32(i + 1)},
		})
	}
	var before SnapshotInfo
	if code := get(t, h, "/v1/snapshots/live", &before); code != http.StatusOK {
		t.Fatal("info failed")
	}

	if !s.store.CrashLive("live") {
		t.Fatal("CrashLive found no pipeline")
	}
	// The published snapshot still serves reads after the crash.
	var during SnapshotInfo
	if code := get(t, h, "/v1/snapshots/live", &during); code != http.StatusOK {
		t.Fatal("reads lost during outage")
	}
	// Writes are refused while the pipeline is down.
	code, _ := postJSON(t, h, "/v1/snapshots/live/edges", MutateRequest{
		Updates: []MutateUpdate{{Src: 0, Dst: 1}},
	}, nil)
	if code != http.StatusServiceUnavailable {
		t.Fatalf("write during outage: %d, want 503", code)
	}

	// Restart: same spec, same store (the store recovers because the
	// name is no longer live).
	snap, err := s.store.Build(BuildSpec{
		Name: "live", Dataset: "uni", Scale: "tiny", Technique: "original", Mutable: true,
	})
	if err != nil {
		t.Fatalf("recovery build: %v", err)
	}
	if snap.graph.NumEdges() != before.Edges {
		t.Fatalf("recovered %d edges, want %d (acknowledged writes lost)",
			snap.graph.NumEdges(), before.Edges)
	}
	if snap.epoch <= last.Epoch {
		t.Fatalf("recovered epoch %d not past last receipt %d", snap.epoch, last.Epoch)
	}
	ws := s.store.WALStatsReport()
	if ws.Recoveries != 1 {
		t.Fatalf("recoveries = %d, want 1", ws.Recoveries)
	}
	// The new pipeline continues the mutation history where it ended.
	res := mutate(t, h, []MutateUpdate{{Src: 2, Dst: 3, Weight: 9}})
	if res.Batch != 6 {
		t.Fatalf("post-recovery batch = %d, want 6", res.Batch)
	}
	if res.Edges != before.Edges+1 {
		t.Fatalf("post-recovery edges = %d, want %d", res.Edges, before.Edges+1)
	}
}

// TestRecoveryReplaysRemovalLikeLive: a removal of a duplicate (src, dst)
// that recovery replays from the WAL onto a checkpoint must take the
// instance the live graph took. The checkpoint stores the CSR, whose
// lists are sorted by (neighbor, weight), so the arrival order of the
// duplicates is gone after a crash; the recovered edges and SSSP
// distances must equal the acknowledged pre-crash state all the same.
// Every second publish checkpoints: the duplicates reach a checkpoint and
// the removal after them is acknowledged from the WAL alone.
func TestRecoveryReplaysRemovalLikeLive(t *testing.T) {
	s, _ := durableServer(t, 2)
	h := s.Handler()
	spec := BuildSpec{Name: "live", Dataset: "uni", Scale: "tiny", Technique: "original", Mutable: true}

	var info SnapshotInfo
	if code := get(t, h, "/v1/snapshots/live", &info); code != http.StatusOK {
		t.Fatal("info failed")
	}
	// Two fresh vertices a -> b, so the duplicates are the only a -> b path.
	a, b := graph.VertexID(info.Vertices), graph.VertexID(info.Vertices+1)
	var grown MutateResult
	code, body := postJSON(t, h, "/v1/snapshots/live/edges", MutateRequest{AddVertices: 2, Updates: []MutateUpdate{
		{Src: a, Dst: b, Weight: 9}, {Src: a, Dst: b, Weight: 5},
	}}, &grown)
	if code != http.StatusOK || grown.FirstNewVertex != a {
		t.Fatalf("grow: %d %s", code, body)
	}
	mutate(t, h, []MutateUpdate{{Src: 0, Dst: 1, Weight: 3}})            // the checkpoint holds a -> b twice
	last := mutate(t, h, []MutateUpdate{{Src: a, Dst: b, Remove: true}}) // in the WAL alone

	type state struct {
		edges []graph.Edge
		dist  SSSPTargetResult
	}
	read := func(when string) state {
		t.Helper()
		snap, release := s.store.AcquireNamed("live")
		if snap == nil {
			t.Fatalf("%s: no snapshot", when)
		}
		defer release()
		st := state{edges: snap.graph.(*graph.Graph).Edges()}
		url := fmt.Sprintf("/v1/query/sssp?snapshot=live&src=%d&target=%d", a, b)
		if code := get(t, h, url, &st.dist); code != http.StatusOK {
			t.Fatalf("%s: sssp %d", when, code)
		}
		return st
	}
	before := read("before the crash")
	if !before.dist.Reachable {
		t.Fatalf("a -> b unreachable before the crash: %+v", before.dist)
	}

	if !s.store.CrashLive("live") {
		t.Fatal("CrashLive found no pipeline")
	}
	if _, err := s.store.Build(spec); err != nil {
		t.Fatalf("recovery build: %v", err)
	}
	if ws := s.store.WALStatsReport(); ws.ReplayedBatches == 0 {
		t.Fatal("recovery replayed nothing: the removal was checkpointed, not replayed")
	}
	after := read("after recovery")
	if !slices.Equal(after.edges, before.edges) {
		t.Errorf("recovered edge list differs from the acknowledged one (%d vs %d edges)", len(after.edges), len(before.edges))
	}
	if after.dist.Distance != before.dist.Distance || after.dist.Reachable != before.dist.Reachable {
		t.Errorf("a -> b distance %d after recovery, %d before the crash (receipt epoch %d)",
			after.dist.Distance, before.dist.Distance, last.Epoch)
	}
}

// TestGracefulShutdownCheckpoints proves the SIGTERM path: a clean stop
// folds pending WAL records into a final checkpoint, so the restart
// recovers without replaying anything.
func TestGracefulShutdownCheckpoints(t *testing.T) {
	s, dir := durableServer(t, 100)
	h := s.Handler()
	before := mutate(t, h, []MutateUpdate{{Src: 0, Dst: 1, Weight: 7}, {Src: 3, Dst: 0, Weight: 2}})

	s.store.CloseLive() // the graceful path CloseLive → shutdown → finalize

	walFile := filepath.Join(dir, "live.wal")
	if fi, err := os.Stat(walFile); err != nil || fi.Size() != 0 {
		t.Fatalf("WAL not truncated by graceful shutdown: %v / %d bytes", err, fi.Size())
	}

	snap, err := s.store.Build(BuildSpec{
		Name: "live", Dataset: "uni", Scale: "tiny", Technique: "original", Mutable: true,
	})
	if err != nil {
		t.Fatalf("restart build: %v", err)
	}
	if snap.graph.NumEdges() != before.Edges {
		t.Fatalf("restart lost edges: %d, want %d", snap.graph.NumEdges(), before.Edges)
	}
	if snap.epoch <= before.Epoch {
		t.Fatalf("restart epoch %d not past receipt %d", snap.epoch, before.Epoch)
	}
}

// TestPublishFailureRollsBack arms the live.publish fault point and
// asserts the refresher rolls back to the last-good state instead of
// wedging: the failed batch is gone from memory and WAL, and the next
// write succeeds with the same sequence number the failed one used.
func TestPublishFailureRollsBack(t *testing.T) {
	s, _ := durableServer(t, 1)
	h := s.Handler()
	good := mutate(t, h, []MutateUpdate{{Src: 0, Dst: 1, Weight: 5}})

	faultinject.Enable("live.publish", faultinject.Fault{})
	t.Cleanup(faultinject.Reset)
	code, body := postJSON(t, h, "/v1/snapshots/live/edges", MutateRequest{
		Updates: []MutateUpdate{{Src: 1, Dst: 2, Weight: 5}},
	}, nil)
	if code != http.StatusInternalServerError {
		t.Fatalf("injected publish failure: %d %s, want 500", code, body)
	}

	res := mutate(t, h, []MutateUpdate{{Src: 2, Dst: 3, Weight: 5}})
	if res.Batch != good.Batch+1 {
		t.Fatalf("rollback did not rewind history: batch %d, want %d", res.Batch, good.Batch+1)
	}
	if res.Edges != good.Edges+1 {
		t.Fatalf("rolled-back edge leaked: %d edges, want %d", res.Edges, good.Edges+1)
	}
	if res.Epoch <= good.Epoch {
		t.Fatalf("epoch did not advance: %d", res.Epoch)
	}
}

// TestDropDeletesDurableState: dropping a snapshot must delete its
// files, so rebuilding the name starts fresh instead of resurrecting it.
func TestDropDeletesDurableState(t *testing.T) {
	s, dir := durableServer(t, 1)
	h := s.Handler()
	mutate(t, h, []MutateUpdate{{Src: 0, Dst: 1, Weight: 5}})

	// Drop needs the name to not be current: build a second snapshot.
	if _, err := s.store.Build(BuildSpec{
		Name: "other", Dataset: "uni", Scale: "tiny", Activate: true,
	}); err != nil {
		t.Fatal(err)
	}
	if err := s.store.Drop("live"); err != nil {
		t.Fatal(err)
	}
	for _, f := range []string{"live.wal", "live.ckpt"} {
		if _, err := os.Stat(filepath.Join(dir, f)); !errors.Is(err, os.ErrNotExist) {
			t.Fatalf("%s survived Drop: %v", f, err)
		}
	}
	snap, err := s.store.Build(BuildSpec{
		Name: "live", Dataset: "uni", Scale: "tiny", Technique: "original", Mutable: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := snap.graph.NumEdges(); got != snapEdgeCount(t, s, "other") {
		t.Fatalf("rebuilt-after-drop snapshot has %d edges, want the fresh dataset's count", got)
	}
}

func snapEdgeCount(t *testing.T, s *Server, name string) int {
	t.Helper()
	info, ok := s.store.Info(name)
	if !ok {
		t.Fatalf("missing snapshot %q", name)
	}
	return info.Edges
}

// TestTornWALWriteFailsClosed: a torn WAL write (injected) must fail
// the request — never acknowledge a batch the log did not take.
func TestTornWALWriteFailsClosed(t *testing.T) {
	s, _ := durableServer(t, 100)
	h := s.Handler()
	good := mutate(t, h, []MutateUpdate{{Src: 0, Dst: 1, Weight: 5}})

	faultinject.Enable("wal.torn", faultinject.Fault{Value: 3})
	t.Cleanup(faultinject.Reset)
	code, _ := postJSON(t, h, "/v1/snapshots/live/edges", MutateRequest{
		Updates: []MutateUpdate{{Src: 1, Dst: 2, Weight: 5}},
	}, nil)
	if code != http.StatusInternalServerError {
		t.Fatalf("torn write acked: %d, want 500", code)
	}

	// The crash-then-recover path still lands on the acknowledged prefix.
	s.store.CrashLive("live")
	snap, err := s.store.Build(BuildSpec{
		Name: "live", Dataset: "uni", Scale: "tiny", Technique: "original", Mutable: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if snap.graph.NumEdges() != good.Edges {
		t.Fatalf("recovered %d edges, want acknowledged prefix %d", snap.graph.NumEdges(), good.Edges)
	}
}

// TestWALMetricsSurface sanity-checks the /metrics WAL counters.
func TestWALMetricsSurface(t *testing.T) {
	s, _ := durableServer(t, 1)
	h := s.Handler()
	mutate(t, h, []MutateUpdate{{Src: 0, Dst: 1, Weight: 5}})
	var m MetricsReport
	get(t, h, "/metrics", &m)
	if m.WAL.Checkpoints == 0 || m.WAL.Recoveries != 0 || m.WAL != s.store.WALStatsReport() {
		t.Fatalf("WAL counters: %+v", m.WAL)
	}
}
