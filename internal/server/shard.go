package server

// Shard mode: the pieces that let one graphd process serve as a member
// of a cluster behind a scatter-gather router (internal/cluster).
//
//   - ?ids=orig keeps a query's whole exchange in original (as-loaded)
//     vertex-ID space. Each shard reorders its own subgraph — the paper
//     tie-in: a shard's skew differs from the global graph's, so each
//     runs its own advisor — which makes wire IDs shard-relative by
//     default and therefore meaningless to merge. Original IDs are the
//     one coordinate system all shards and the single-node baseline
//     share.
//   - POST /v1/shard/relax is one hop of distributed SSSP: the router
//     owns the distance vector and frontier, shards relax the frontier
//     edges they hold and return candidate distances. Both directions
//     carry one binary RelaxFrame (relaxframe.go has the layout) in
//     original-ID space. The ID-space rule: IDs are translated only at
//     the boundary — perm[v] once per frontier vertex coming in, inv[u]
//     once per candidate going out — and every per-edge access in
//     between stays in the snapshot's own (reordered) space, so the
//     candidate writes land where the reordering packed the hot
//     vertices. The stateless contract: a call reads nothing but its
//     frame and the pinned snapshot and leaves nothing behind, so any
//     member of a shard can answer any round of any query.

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/bits"
	"net/http"
	"net/url"
	"sync"

	"graphreorder/internal/graph"
	"graphreorder/internal/reorder"
)

// idSpace is a query's vertex-ID coordinate system. The zero value is
// the default current (snapshot-relative) space with no translation;
// orig selects original-ID space, translating inputs through the
// snapshot's permutation and outputs through its inverse.
type idSpace struct {
	snap *Snapshot
	orig bool
}

// idSpaceFor parses ?ids= for a query against snap.
func idSpaceFor(q url.Values, snap *Snapshot) (idSpace, error) {
	switch ids := q.Get("ids"); ids {
	case "", "current":
		return idSpace{snap: snap}, nil
	case "orig", "original":
		return idSpace{snap: snap, orig: true}, nil
	default:
		return idSpace{}, fmt.Errorf("bad ids %q (want current|orig)", ids)
	}
}

// in translates a wire vertex ID into the snapshot's current space.
// Permutations are bijections over [0, n), so a range-checked wire ID
// is valid in either space.
func (sp idSpace) in(v graph.VertexID) graph.VertexID {
	if sp.orig && sp.snap.perm != nil {
		return sp.snap.perm[v]
	}
	return v
}

// out translates a current-space vertex ID back into the wire space.
func (sp idSpace) out(v graph.VertexID) graph.VertexID {
	if sp.orig {
		if inv := sp.snap.invPerm(); inv != nil {
			return inv[v]
		}
	}
	return v
}

// key is the cache-key suffix separating orig-space results from
// current-space ones where the payload differs (top-k holds wire IDs).
func (sp idSpace) key() string {
	if sp.orig {
		return "|orig"
	}
	return ""
}

// relaxScratch is the working state of one relax call. Calls borrow it
// from relaxPool, so a shard's steady state allocates nothing per hop;
// what a call dirties it cleans again before returning, which is all
// that survives between calls.
type relaxScratch struct {
	// cand[u] is the smallest candidate distance found for snapshot-space
	// vertex u, RelaxInf in every slot between calls.
	cand []int64
	// emit is a bitset over original IDs, all zero between calls: the
	// vertices holding a candidate, so a word sweep yields them ascending.
	emit []uint64
	adj  graph.AdjBuffer

	body     bytes.Buffer // request bytes
	in, out  RelaxFrame
	outBytes []byte
}

var relaxPool = sync.Pool{New: func() any { return new(relaxScratch) }}

// relax scans the out-edges of the frontier in sc.in on g and fills
// sc.out with the minimal candidate distance per destination, ascending
// by original ID. perm (original to snapshot space) and inv (its
// inverse) are nil when g is in original order.
func (sc *relaxScratch) relax(g graph.View, perm, inv reorder.Permutation) {
	in, out := &sc.in, &sc.out
	n := g.NumVertices()
	if old := len(sc.cand); old < n {
		sc.cand = append(sc.cand, make([]int64, n-old)...)
		for i := old; i < n; i++ {
			sc.cand[i] = RelaxInf
		}
		sc.emit = append(sc.emit, make([]uint64, (n+63)/64-len(sc.emit))...)
	}
	cand := sc.cand[:n]
	sc.adj.Rebind(g)
	out.Relaxed = 0
	for i, v := range in.IDs {
		if perm != nil {
			v = perm[v]
		}
		d := in.Dists[i]
		nbrs, ws := sc.adj.Out(g, v), g.OutWeightList(v)
		out.Relaxed += uint64(len(nbrs))
		relax := func(nb graph.VertexID, w uint32) {
			nd := d + int64(w)
			if c := cand[nb]; nd < c {
				if c == RelaxInf { // first candidate for nb: mark it for the sweep
					o := nb
					if inv != nil {
						o = inv[nb]
					}
					sc.emit[o>>6] |= 1 << (o & 63)
				}
				cand[nb] = nd
			}
		}
		// The weights are read in place, after one switch on their width.
		b := ws.Bytes
		switch ws.Width {
		case 1:
			b = b[:len(nbrs)]
			for j, nb := range nbrs {
				relax(nb, uint32(b[j]))
			}
		case 2:
			b = b[:2*len(nbrs)]
			for j, nb := range nbrs {
				relax(nb, uint32(binary.LittleEndian.Uint16(b[2*j:])))
			}
		default:
			b = b[:4*len(nbrs)]
			for j, nb := range nbrs {
				relax(nb, binary.LittleEndian.Uint32(b[4*j:]))
			}
		}
	}
	out.IDs, out.Dists = out.IDs[:0], out.Dists[:0]
	for w, word := range sc.emit[:(n+63)/64] {
		if word == 0 {
			continue
		}
		sc.emit[w] = 0
		for ; word != 0; word &= word - 1 {
			o := graph.VertexID(w<<6 + bits.TrailingZeros64(word))
			u := o
			if perm != nil {
				u = perm[o]
			}
			out.IDs = append(out.IDs, o)
			out.Dists = append(out.Dists, cand[u])
			cand[u] = RelaxInf
		}
	}
}

// handleShardRelax relaxes the out-edges of the posted frontier against
// this shard's subgraph. Runs inline (no heavy-path admission): one hop
// is a bounded scan of frontier adjacency, and the router's scatter-
// gather loop needs every shard's answer every round — shedding a hop
// would stall the whole traversal.
func (s *Server) handleShardRelax(w http.ResponseWriter, r *http.Request) {
	snap, release := s.snapshotFor(w, r.URL.Query())
	if snap == nil {
		return
	}
	defer release()
	if !snap.graph.Weighted() {
		writeError(w, http.StatusBadRequest, "snapshot %q is unweighted; relax needs edge weights", snap.name)
		return
	}
	sc := relaxPool.Get().(*relaxScratch)
	err := sc.hop(w, r, snap)
	// Not deferred: a panic half-way through relax must not hand the pool
	// a scratch whose candidate slots were never reset.
	relaxPool.Put(sc)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
	}
}

// hop answers one relax call on snap: it reads and validates the request
// frame, relaxes, and writes the response frame. An error means nothing
// was written and the request is at fault.
func (sc *relaxScratch) hop(w http.ResponseWriter, r *http.Request, snap *Snapshot) error {
	sc.body.Reset()
	if _, err := sc.body.ReadFrom(http.MaxBytesReader(w, r.Body, int64(maxRelaxFrameBytes))); err != nil {
		return fmt.Errorf("reading relax frame: %w", err)
	}
	if err := sc.in.Decode(sc.body.Bytes(), snap.graph.NumVertices()); err != nil {
		return err
	}
	sc.relax(snap.graph, snap.perm, snap.invPerm())
	if len(sc.out.IDs) > maxRelaxFrontier {
		return fmt.Errorf("relax produced %d candidates (max %d per frame)", len(sc.out.IDs), maxRelaxFrontier)
	}
	sc.outBytes = sc.out.AppendTo(sc.outBytes[:0])
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Write(sc.outBytes)
	return nil
}
