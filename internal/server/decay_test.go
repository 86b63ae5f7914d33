package server

import (
	"net/http"
	"testing"
	"time"

	"graphreorder/internal/graph"
	"graphreorder/internal/reorder"
	"graphreorder/internal/rng"
)

// writeLive posts one batch to the mutable snapshot "live" and returns
// its receipt.
func writeLive(t *testing.T, h http.Handler, req MutateRequest) MutateResult {
	t.Helper()
	var res MutateResult
	if code, body := postJSON(t, h, "/v1/snapshots/live/edges", req, &res); code != http.StatusOK {
		t.Fatalf("write: %d %s", code, body)
	}
	return res
}

// outsideFresh reports whether snap's hub working set is more than
// packingDecay larger than a fresh DBG order's on the same degrees
// (reorder.Resolve's order, measured by EvaluatePacking), with both
// sizes for the failure message.
func outsideFresh(snap *Snapshot) (bool, int64, int64) {
	g := snap.graph
	perm, _, _ := reorder.Resolve(reorder.NewDBG(), g.Degrees(graph.OutDegree), g.NumEdges())
	fresh := reorder.EvaluatePacking(g, graph.OutDegree, perm).HubWorkingSetBytes
	served := snap.quality.HubWorkingSetBytes
	return float64(served)*(1-packingDecay) > float64(fresh), served, fresh
}

// TestDecayGateModel holds a live DBG snapshot's refreshes to their
// model on sd/tiny and uni/tiny under a seeded write mix like the
// serving benchmark's (four random insertions a batch, every fourth
// batch also removing the latest one): after every publish the served
// hub working set is within packingDecay of a fresh DBG order's on the
// same degrees, or the next publish refreshes — and, since a fresh DBG
// order packs the hot set fully, a publish refreshes only then. Then a
// batch that makes sixteen cold vertices hot, each in a cache block of
// its own, leaves the served order outside the bound and the next
// publish refreshes it back. The gate must fire, and not on every batch.
func TestDecayGateModel(t *testing.T) {
	for _, ds := range []string{"sd", "uni"} {
		t.Run(ds, func(t *testing.T) {
			s := New(Config{Workers: 1, QueryTimeout: 30 * time.Second})
			t.Cleanup(s.store.CloseLive)
			snap, err := s.store.Build(BuildSpec{Name: "live", Dataset: ds, Scale: "tiny", Technique: "dbg", Mutable: true})
			if err != nil {
				t.Fatal(err)
			}
			h := s.Handler()
			n := snap.graph.NumVertices()
			r := rng.New(11)
			due, refreshes, batches := false, 0, 0
			publish := func(req MutateRequest) {
				t.Helper()
				res := writeLive(t, h, req)
				batches++
				if res.Refreshed != due {
					t.Fatalf("batch %d: refreshed=%v, but the snapshot before it was outside the bound: %v", batches, res.Refreshed, due)
				}
				if res.Refreshed {
					refreshes++
				}
				var served, fresh int64
				due, served, fresh = outsideFresh(s.store.Current())
				if due && res.Refreshed {
					t.Fatalf("batch %d: a refreshed order's hub working set is %d B, a fresh DBG order's %d B", batches, served, fresh)
				}
			}

			var own []MutateUpdate
			for b := 0; b < 200; b++ {
				var batch []MutateUpdate
				if b%4 == 3 {
					e := own[len(own)-1]
					own = own[:len(own)-1]
					batch = append(batch, MutateUpdate{Src: e.Src, Dst: e.Dst, Remove: true})
				}
				for i := 0; i < 4; i++ {
					u := MutateUpdate{Src: graph.VertexID(r.Intn(n)), Dst: graph.VertexID(r.Intn(n)), Weight: uint32(1 + r.Intn(8))}
					batch = append(batch, u)
					own = append(own, u)
				}
				publish(MutateRequest{Updates: batch})
			}
			t.Logf("%s/tiny: %d refreshes in %d batches of the write mix", ds, refreshes, batches)

			// The sixteen vertices at the end of every eighth block of the
			// served order are cold; twice the average degree makes each hot.
			cur := s.store.Current()
			inv, k := cur.invPerm(), 2*int(cur.graph.AvgDegree())+2
			var move []MutateUpdate
			for j := 0; j < 16; j++ {
				pos := n - 1 - 8*reorder.VerticesPerCacheBlock*j
				if float64(cur.graph.OutDegree(graph.VertexID(pos))) >= cur.graph.AvgDegree() {
					t.Fatalf("position %d, near the end of the order, holds a hot vertex", pos)
				}
				v := inv[pos]
				for i := 0; i < k; i++ {
					move = append(move, MutateUpdate{Src: v, Dst: graph.VertexID(r.Intn(n)), Weight: 1})
				}
			}
			publish(MutateRequest{Updates: move})
			if !due {
				t.Fatal("a batch that moved 16 cold vertices into the hot set left the served order within the bound")
			}
			before := refreshes
			publish(MutateRequest{Updates: []MutateUpdate{{Src: 0, Dst: 1, Weight: 1}}})
			if refreshes != before+1 {
				t.Fatal("the publish after the hot set moved did not refresh")
			}
			if refreshes == 0 || refreshes == batches {
				t.Fatalf("the gate fired on %d of %d batches, want some but not all", refreshes, batches)
			}
		})
	}
}

// TestLiveAutoVerdictChangeRefreshes: an "auto" snapshot refreshes in
// the publish whose batch changes the advisor's verdict on the live
// degrees, not only once its packing decays. uni/tiny is advised the
// identity; a batch giving 96 vertices (six of every eight in the first
// sixteen blocks) a thousand out-edges each concentrates 62% of the edges
// on 3% of the vertices, with a 1.33x packing headroom, so the advisor
// now says dbg. The served packing has not decayed (the gate reads the
// snapshot before the batch), so only the verdict can trigger the
// refresh. The next write keeps the verdict and patches.
func TestLiveAutoVerdictChangeRefreshes(t *testing.T) {
	s := New(Config{Workers: 1, QueryTimeout: 30 * time.Second})
	t.Cleanup(s.store.CloseLive)
	snap, err := s.store.Build(BuildSpec{Name: "live", Dataset: "uni", Scale: "tiny", Technique: "auto", Mutable: true})
	if err != nil {
		t.Fatal(err)
	}
	if snap.advised != "original" {
		t.Fatalf("uni/tiny advised %q, want original", snap.advised)
	}
	h := s.Handler()
	var hubs []MutateUpdate
	for v := 0; len(hubs) < 96*1000; v++ {
		if v%8 >= 6 {
			continue
		}
		for i := 0; i < 1000; i++ {
			hubs = append(hubs, MutateUpdate{Src: graph.VertexID(v), Dst: graph.VertexID((v*7919 + i*31) % snap.graph.NumVertices())})
		}
	}
	res := writeLive(t, h, MutateRequest{Updates: hubs})
	if !res.Refreshed {
		t.Fatal("the batch that changed the advisor's verdict did not refresh")
	}
	if cur := s.store.Current(); cur.advised != "dbg" {
		t.Fatalf("after the hub batch the snapshot is advised %q (%s), want dbg", cur.advised, cur.adviceReason)
	}
	if res := writeLive(t, h, MutateRequest{Updates: []MutateUpdate{{Src: 1, Dst: 2, Weight: 1}}}); res.Refreshed {
		t.Error("a write that keeps the verdict refreshed")
	}
}

// TestDecayGateOnlyRefreshesOrdersThatPack: the identity and a plan that
// reads structure (here a random order) are not chosen for hot-vertex
// packing, so a decayed packing does not refresh them; a DBG order is
// refreshed. On uni/tiny, a batch giving 64 vertices, one per cache block,
// a thousand out-edges each lifts the average degree past every other
// vertex's, so the hot set becomes those 64 scattered hubs and every
// order's packing utilization falls far below what the build published.
// The next write refreshes the DBG order only.
func TestDecayGateOnlyRefreshesOrdersThatPack(t *testing.T) {
	for tech, want := range map[string]bool{"dbg": true, "original": false, "random": false} {
		t.Run(tech, func(t *testing.T) {
			s := New(Config{Workers: 1, QueryTimeout: 30 * time.Second})
			t.Cleanup(s.store.CloseLive)
			snap, err := s.store.Build(BuildSpec{Name: "live", Dataset: "uni", Scale: "tiny", Technique: tech, Mutable: true})
			if err != nil {
				t.Fatal(err)
			}
			h := s.Handler()
			var hubs []MutateUpdate
			for j := 0; j < 64; j++ {
				v := graph.VertexID(j * reorder.VerticesPerCacheBlock)
				for i := 0; i < 1000; i++ {
					hubs = append(hubs, MutateUpdate{Src: v, Dst: graph.VertexID((j*7919 + i*31) % snap.graph.NumVertices())})
				}
			}
			writeLive(t, h, MutateRequest{Updates: hubs})
			built, served := snap.quality.PackingUtilization, s.store.Current().quality.PackingUtilization
			if served >= (1-packingDecay)*built {
				t.Fatalf("the hub batch left the packing utilization at %.3f of the build's %.3f", served, built)
			}
			if res := writeLive(t, h, MutateRequest{Updates: []MutateUpdate{{Src: 1, Dst: 2, Weight: 1}}}); res.Refreshed != want {
				t.Errorf("the write after the packing decayed (%.3f -> %.3f): refreshed=%v, want %v", built, served, res.Refreshed, want)
			}
		})
	}
}

// TestDecayCheckReusesItsDegrees: an "auto" snapshot's decay check
// re-advises from the live degrees on every publish, into a buffer the
// live graph keeps: once that is sized, the check allocates no more than
// the advisor itself does. Allocating the degrees afresh cost a V-sized
// array a publish (216 KiB on sd/small).
func TestDecayCheckReusesItsDegrees(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's own allocations are counted")
	}
	s := New(Config{Workers: 1, QueryTimeout: 30 * time.Second})
	t.Cleanup(s.store.CloseLive)
	if _, err := s.store.Build(BuildSpec{Name: "live", Dataset: "uni", Scale: "tiny", Technique: "auto", Mutable: true}); err != nil {
		t.Fatal(err)
	}
	lg := s.store.Live("live")
	if lg.reord.Advice == nil {
		t.Fatal("an auto snapshot holds no verdict to re-advise")
	}
	lg.decayed() // sizes the buffer
	check := testing.AllocsPerRun(20, func() { lg.decayed() })
	advise := testing.AllocsPerRun(20, func() { reorder.AdviseDegrees(lg.degs, lg.dyn.NumEdges()) })
	t.Logf("the decay check allocates %.0f times, the advisor %.0f", check, advise)
	if check > advise {
		t.Errorf("the decay check allocates %.0f times a run, more than the advisor's %.0f", check, advise)
	}
}
