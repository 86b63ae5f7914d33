package graph_test

import (
	"bytes"
	"slices"
	"testing"

	"graphreorder/internal/csrz"
	"graphreorder/internal/gen"
	"graphreorder/internal/graph"
	"graphreorder/internal/rng"
)

// TestInListsIgnoreWeights pins that an in-list is a function of the
// out-lists' neighbors alone: sd/tiny built with its weights and with them
// stripped has the same in-CSR — every list, in its stored order — after
// each path that lays one out: the sorted and unsorted build, a relabel,
// a patch (in original and in relabeled order), the binary round trip and
// the compressed round trip. A pull sees only in-neighbor IDs, so this is
// what lets the graph keep its weights on the out-CSR alone.
func TestInListsIgnoreWeights(t *testing.T) {
	sd, err := gen.Generate(gen.MustDataset("sd", gen.Tiny))
	if err != nil {
		t.Fatal(err)
	}
	n := sd.NumVertices()
	weighted := sd.Edges()
	r := rng.NewStream(31, 1)
	for i := len(weighted) - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		weighted[i], weighted[j] = weighted[j], weighted[i]
	}
	stripped := slices.Clone(weighted)
	for i := range stripped {
		stripped[i].Weight = 0
	}

	build := func(edges []graph.Edge, w, sorted bool, workers int) *graph.Graph {
		g, err := graph.BuildWith(edges, graph.BuildOptions{NumVertices: n, Weighted: w, SortNeighbors: sorted, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	same := func(tag string, a, b *graph.Graph) {
		t.Helper()
		if !a.Weighted() || b.Weighted() {
			t.Fatalf("%s: weighted = %v/%v, want true/false", tag, a.Weighted(), b.Weighted())
		}
		if !slices.Equal(a.InIndex(), b.InIndex()) || !slices.Equal(a.InEdgeArray(), b.InEdgeArray()) {
			t.Fatalf("%s: the in-CSR depends on the weights", tag)
		}
	}

	for _, sorted := range []bool{true, false} {
		for _, workers := range []int{1, 2} {
			same("build", build(weighted, true, sorted, workers), build(stripped, false, sorted, workers))
		}
	}
	wg, sg := build(weighted, true, true, 1), build(stripped, false, true, 1)

	perm := make([]graph.VertexID, n)
	for v := range perm {
		perm[v] = graph.VertexID(v)
	}
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		perm[i], perm[j] = perm[j], perm[i]
	}
	rank := make([]graph.VertexID, n+2)
	for v, id := range perm {
		rank[id] = graph.VertexID(v)
	}
	rank[n], rank[n+1] = graph.VertexID(n), graph.VertexID(n+1)
	var wRel, sRel *graph.Graph
	for _, workers := range []int{1, 2} {
		if wRel, err = wg.RelabelWorkers(perm, workers); err != nil {
			t.Fatal(err)
		}
		if sRel, err = sg.RelabelWorkers(perm, workers); err != nil {
			t.Fatal(err)
		}
		same("relabel", wRel, sRel)
	}

	// A mixed batch: every 97th edge instance removed, as many inserted
	// (parallel to a stored edge, between fresh pairs and onto the two
	// vertices the patch adds), the stripped batch the same edits at
	// weight 0.
	var wEdits []graph.EdgeEdit
	for i := 0; i < len(weighted); i += 97 {
		e := weighted[i]
		wEdits = append(wEdits,
			graph.EdgeEdit{Src: e.Src, Dst: e.Dst, Weight: e.Weight, Remove: true},
			graph.EdgeEdit{Src: e.Dst, Dst: e.Src, Weight: uint32(1 + r.Intn(63))},
			graph.EdgeEdit{Src: graph.VertexID(r.Intn(n + 2)), Dst: graph.VertexID(r.Intn(n + 2)), Weight: uint32(1 + r.Intn(63))})
	}
	sEdits := slices.Clone(wEdits)
	for i := range sEdits {
		sEdits[i].Weight = 0
	}
	moved := func(edits []graph.EdgeEdit) []graph.EdgeEdit {
		out := slices.Clone(edits)
		for i, ed := range out {
			if int(ed.Src) < n {
				out[i].Src = perm[ed.Src]
			}
			if int(ed.Dst) < n {
				out[i].Dst = perm[ed.Dst]
			}
		}
		return out
	}
	for _, tc := range []struct {
		tag    string
		w, s   *graph.Graph
		we, se []graph.EdgeEdit
		rank   []graph.VertexID
	}{
		{"patch", wg, sg, wEdits, sEdits, nil},
		{"patch (relabeled)", wRel, sRel, moved(wEdits), moved(sEdits), rank},
	} {
		wp, err := tc.w.Patch(tc.we, n+2, tc.rank)
		if err != nil {
			t.Fatal(err)
		}
		sp, err := tc.s.Patch(tc.se, n+2, tc.rank)
		if err != nil {
			t.Fatal(err)
		}
		same(tc.tag, wp, sp)
	}

	roundTrip := func(g *graph.Graph) *graph.Graph {
		var buf bytes.Buffer
		if err := graph.WriteBinary(&buf, g); err != nil {
			t.Fatal(err)
		}
		h, err := graph.ReadBinary(&buf)
		if err != nil {
			t.Fatal(err)
		}
		return h
	}
	same("ReadBinary", roundTrip(wg), roundTrip(sg))
	same("ReadBinary (relabeled)", roundTrip(wRel), roundTrip(sRel))

	decode := func(g *graph.Graph) *graph.Graph {
		h, err := csrz.Encode(g).Decode()
		if err != nil {
			t.Fatal(err)
		}
		return h
	}
	same("csrz", decode(wg), decode(sg))
	same("csrz (relabeled)", decode(wRel), decode(sRel))
}
