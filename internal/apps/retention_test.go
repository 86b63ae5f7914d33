package apps

import (
	"runtime"
	"runtime/metrics"
	"testing"

	"graphreorder/internal/gen"
	"graphreorder/internal/graph"
)

// TestRunsLeaveNoFrontierStorage: a run's frontiers, and the scratch they
// pass from round to round, belong to the run and are garbage once it
// returns — nothing process-wide keeps their arrays live across a
// collection. Twenty SSSPs from distinct sources at two workers on
// sd/small, keeping only their checksums, must leave the live heap after
// one collection within a few tens of KiB of where it started; a frontier
// pool that survives a collection holds several times that.
func TestRunsLeaveNoFrontierStorage(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; heap byte counts only hold without -race")
	}
	g, err := gen.Generate(gen.MustDataset("sd", gen.Small))
	if err != nil {
		t.Fatal(err)
	}
	n := g.NumVertices()
	sssp := func(root graph.VertexID) float64 {
		out, err := runSSSP(Input{Graph: g, Roots: []graph.VertexID{root}, Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		return out.Checksum
	}
	sample := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	live := func() int64 {
		metrics.Read(sample)
		return int64(sample[0].Value.Uint64())
	}
	sssp(0) // whatever a first run initializes once is not a run's
	runtime.GC()
	runtime.GC()
	before := live()
	sums := make([]float64, 0, 20)
	for i := 0; i < 20; i++ {
		sums = append(sums, sssp(graph.VertexID(i*n/20)))
	}
	runtime.GC()
	grown := live() - before
	runtime.KeepAlive(g)
	const bound = 64 << 10
	t.Logf("n=%d: live heap grew %d B over 20 runs (checksums %v…)", n, grown, sums[:2])
	if grown > bound {
		t.Errorf("20 SSSP runs left the live heap %d B larger after a collection, want at most %d B: something outside the runs keeps their frontiers", grown, bound)
	}
}
