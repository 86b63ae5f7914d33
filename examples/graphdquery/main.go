// Example graphdquery starts a graphd server in-process, builds three
// snapshots of the same graph (original order, DBG-reordered, and
// advisor-chosen via "technique": "auto"), queries them over real HTTP,
// hot-swaps between them, and prints each ordering's quality metrics —
// a compact tour of the serving API.
//
// Run with: go run ./examples/graphdquery
package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"time"

	"graphreorder/internal/server"
)

func main() {
	srv := server.New(server.Config{})
	// Snapshot 1: the social-network stand-in, served in original order.
	if _, err := srv.Store().Build(server.BuildSpec{
		Name: "social", Dataset: "lj", Scale: "tiny", Technique: "original", Activate: true,
	}); err != nil {
		fail(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	fmt.Printf("graphd serving at %s\n\n", ts.URL)

	// A client-side timeout cancels the request context; graphd passes
	// that context straight through to the execution engine, so a slow
	// traversal would be aborted within one round — not orphaned.
	client := &http.Client{Timeout: 30 * time.Second}
	show := func(what, path string) {
		resp, err := client.Get(ts.URL + path)
		if err != nil {
			fail(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		fmt.Printf("GET %s  (%s)\n  %s\n", path, what, bytes.TrimSpace(body))
	}

	show("out-neighbors of a hub", "/v1/query/neighbors?v=0&limit=8")
	show("total degree", "/v1/query/degree?v=0&kind=total")
	show("precomputed PageRank", "/v1/query/rank?v=0")
	show("top-5 by PageRank", "/v1/query/topk?k=5")
	show("single-source shortest paths", "/v1/query/sssp?src=0&target=42")
	show("radii estimate from 16 BFS samples", "/v1/query/radii?samples=16&seed=7")

	// Build a DBG-reordered snapshot of the same graph and hot-swap to it.
	spec, _ := json.Marshal(server.BuildSpec{
		Name: "social-dbg", Dataset: "lj", Scale: "tiny", Technique: "dbg", Activate: true,
	})
	resp, err := http.Post(ts.URL+"/v1/snapshots", "application/json", bytes.NewReader(spec))
	if err != nil {
		fail(err)
	}
	resp.Body.Close()
	srv.Store().WaitBuilds() // in production you would poll /v1/snapshots/builds
	fmt.Println()
	show("snapshots after the hot swap", "/v1/snapshots")
	show("same query, reordered snapshot", "/v1/query/topk?k=5")
	show("serving metrics", "/metrics")

	// Let the skew-gated advisor pick the ordering: "auto" measures the
	// graph's degree skew and hot-vertex packing at build time and picks
	// a hub-packing pipeline (or leaves a low-skew graph untouched). The
	// snapshot status records the verdict and the layout's quality.
	spec, _ = json.Marshal(server.BuildSpec{
		Name: "social-auto", Dataset: "lj", Scale: "tiny", Technique: "auto", Activate: true,
	})
	if resp, err = http.Post(ts.URL+"/v1/snapshots", "application/json", bytes.NewReader(spec)); err != nil {
		fail(err)
	}
	resp.Body.Close()
	srv.Store().WaitBuilds()
	fmt.Println()
	info, ok := srv.Store().Info("social-auto")
	if !ok {
		fail(fmt.Errorf("auto snapshot did not publish"))
	}
	fmt.Printf("auto snapshot: advisor chose %q (%s)\n", info.Advised, info.AdviceReason)
	fmt.Printf("  quality: packing %.2f of ideal %.2f (util %.0f%%), %d hot vertices, hub working set %d B\n",
		info.Quality.PackingFactor, info.Quality.Ideal, 100*info.Quality.Utilization,
		info.Quality.HotVertices, info.Quality.HubWorkingSetBytes)
	show("advisor-built snapshot status", "/v1/snapshots/social-auto")
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "graphdquery:", err)
	os.Exit(1)
}
