package cluster

import (
	"context"
	"runtime"
	"testing"
	"time"
	"weak"
)

// TestStartLocalDropsShardGraphs: once the layout is written, nothing a
// running cluster holds reaches the partition's shard subgraphs — the
// members load their own copies from the layout, so the partition's are
// garbage the moment start-up returns.
func TestStartLocalDropsShardGraphs(t *testing.T) {
	g := genGraph(t, "sd", "tiny")
	opt := LocalOptions{Shards: 2, Replicas: 1, Technique: "auto", Workers: 1, Dir: t.TempDir()}
	res, err := Partition(g, Options{Shards: opt.Shards, Workers: opt.Workers})
	if err != nil {
		t.Fatal(err)
	}
	shard := weak.Make(res.Graphs[0])
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	cl, err := startLocal(ctx, g, res, opt)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Close)
	runtime.GC()
	if shard.Value() != nil {
		t.Fatal("a shard subgraph of the partition is still reachable from the running cluster")
	}
	if cl.Placement.NumVertices != g.NumVertices() || cl.Router.placement != cl.Placement {
		t.Fatalf("placement not kept: %d vertices, router shares it: %v",
			cl.Placement.NumVertices, cl.Router.placement == cl.Placement)
	}
}
