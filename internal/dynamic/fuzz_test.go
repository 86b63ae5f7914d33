package dynamic

import (
	"bytes"
	"fmt"
	"testing"

	"graphreorder/internal/graph"
	"graphreorder/internal/reorder"
)

// FuzzApplyMatchesModel runs a schedule decoded from the input on a Graph
// and on the multiset model: batches of inserts and removals over a few
// vertices and weights (so buckets hold many instances, some of equal
// weight), batches that grow the vertex space or fail part way, marks,
// rollbacks and bare growth, on a weighted or an unweighted graph, under
// an edit-log retention of 1 to 8 edits so folds and trims come often. After every step the two must agree on
// errors, counts, degrees and the weight the next removal of each bucket
// takes; on a snapshot step View() — taken first, so a refresh patches
// the pending edits straight into its new order — must equal BuildWith of
// the model's multiset relabeled, Snapshot() that rebuild, array for
// array, and the graph must hold that view as its one CSR.
func FuzzApplyMatchesModel(f *testing.F) {
	// Three vertices, no edges, an 8-edit retention: one bucket gets
	// weights 1, 3 and 2 in one batch, loses one instance (the 3), and is
	// snapshotted; then a mark, a batch that grows two vertices and wires
	// them, a snapshot, a rollback that shrinks the space, a snapshot.
	f.Add([]byte{
		1, 0, 7,
		0, 0, 2, 0x00, 0, 1, 0x10, 0, 1, 0x08, 0, 1,
		0, 0, 0, 0x01, 0, 1,
		7,
		4,
		0, 2, 1, 0x00, 3, 4, 0x10, 4, 3,
		7, 5, 7,
	})
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func() int {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return int(b)
		}
		n := 2 + next()%5
		var initial []graph.Edge
		for i := next() % 8; i > 0; i-- {
			initial = append(initial, graph.Edge{
				Src: graph.VertexID(next() % n), Dst: graph.VertexID(next() % n), Weight: uint32(1 + next()%3)})
		}
		b := next() // the retention, and whether the graph is weighted
		g, err := graph.BuildWith(initial, graph.BuildOptions{NumVertices: n, Weighted: b&8 == 0, SortNeighbors: true})
		if err != nil {
			t.Fatal(err)
		}
		d, r := FromGraph(g), refFromGraph(g)
		d.logRetain = 1 + b%8
		rr := NewReorderer(reorder.NewDBG(), graph.OutDegree, Policy{Every: 3})
		var (
			mark      Mark
			modelMark *refGraph
		)
		for step := 0; len(data) > 0 && step < 64; step++ {
			name := fmt.Sprintf("step %d", step)
			snapshot := false
			switch op := next() % 8; {
			case op < 4:
				grow := next() % 3
				present := r.edges()
				var batch []Update
				for i := 1 + next()%6; i > 0; i-- {
					b, src, dst := next(), next(), next()
					u := Update{Remove: b&1 != 0, Edge: graph.Edge{
						Src: graph.VertexID(src % (r.n + grow)), Dst: graph.VertexID(dst % (r.n + grow)),
						Weight: uint32(1 + (b>>3)%3)}}
					switch {
					case b == 0xff: // a source just outside the grown space
						u.Edge.Src = graph.VertexID(r.n + grow)
					case u.Remove && b&6 != 6 && len(present) > 0:
						// Most removals name a bucket present before the
						// batch; the rest name any bucket and mostly fail.
						u.Edge = present[(src*7+dst)%len(present)]
					}
					batch = append(batch, u)
				}
				_, gotErr := d.ApplyGrow(grow, batch)
				wantErr := r.applyGrow(grow, batch)
				if (gotErr == nil) != (wantErr == nil) {
					t.Fatalf("%s: error %v, model %v", name, gotErr, wantErr)
				}
			case op == 4:
				mark, modelMark = d.Mark(), r.clone()
			case op == 5 && modelMark != nil:
				if err := d.RollbackTo(mark); err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				r = modelMark.clone()
			case op == 6:
				k := 1 + next()%2
				d.AddVertices(k)
				r.grow(k)
			default:
				snapshot = true
			}
			if !snapshot {
				checkAgainstModel(t, name, d, r, false)
				continue
			}
			// The view first, so a refresh it makes patches the pending
			// edits into its new order, then the snapshot, which relabels
			// that view back.
			view, perm, err := rr.View(d)
			if err != nil {
				t.Fatal(err)
			}
			checkAgainstModel(t, name, d, r, true)
			want, err := r.snapshot(t).RelabelWorkers(perm, 1)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(csrBytes(t, view), csrBytes(t, want)) {
				t.Fatalf("%s: view differs from the model's snapshot relabeled", name)
			}
			if d.csr != view {
				t.Fatalf("%s: the graph does not hold the view it served as its CSR", name)
			}
		}
		checkAgainstModel(t, "end", d, r, true)
	})
}
