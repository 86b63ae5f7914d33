package main

import (
	"encoding/binary"
	"hash"
	"hash/fnv"
	"strconv"

	"graphreorder/internal/rng"
)

// Point-read kinds, in mix order.
const (
	kindNeighbors = iota
	kindDegree
	kindRank
	kindTopK
	numKinds
)

var kindNames = [numKinds]string{"neighbors", "degree", "rank", "topk"}

// httpMix is the point-read mix of the serving workloads (neighbors
// limit=32 / degree / rank / topk); libMix is the same without topk, for
// the library path, where top-k is not a point read.
var (
	httpMix = [numKinds]int{60, 15, 15, 10}
	libMix  = [numKinds]int{70, 15, 15, 0}
)

// verifyEvery makes every 100th point read a verification read.
const verifyEvery = 100

// pointOp is one point read. For a verification read V indexes the
// workload's verification set instead of naming a vertex.
type pointOp struct {
	Kind   uint8
	Verify bool
	V      uint32
}

// genPointOps draws count point reads over n vertices: kinds by mix,
// vertices Zipf(1.1) so that traffic concentrates on few (after DBG:
// high-degree) vertices. verifySet > 0 turns every 100th read into a
// neighbors/degree read of a verification vertex.
func genPointOps(seed, stream uint64, n, count int, mix [numKinds]int, verifySet int) []pointOp {
	r := rng.NewStream(seed, stream)
	total := 0
	for _, w := range mix {
		total += w
	}
	ops := make([]pointOp, count)
	for i := range ops {
		pick := r.Intn(total)
		kind := 0
		for pick >= mix[kind] {
			pick -= mix[kind]
			kind++
		}
		ops[i] = pointOp{Kind: uint8(kind), V: uint32(r.Zipf(n, 1.1))}
		if verifySet > 0 && i%verifyEvery == verifyEvery-1 {
			j := i / verifyEvery
			ops[i] = pointOp{Kind: uint8(j % 2), Verify: true, V: uint32(j % verifySet)}
		}
	}
	return ops
}

// path renders the request path of a point read of vertex v.
func (op pointOp) path(v uint32) string {
	id := strconv.FormatUint(uint64(v), 10)
	switch op.Kind {
	case kindNeighbors:
		return "/v1/query/neighbors?v=" + id + "&limit=32"
	case kindDegree:
		return "/v1/query/degree?v=" + id + "&kind=total"
	case kindRank:
		return "/v1/query/rank?v=" + id
	default:
		return "/v1/query/topk?k=10"
	}
}

// coldSources returns count distinct vertices: each is an SSSP source
// used once, so neither a result cache nor single-flight can answer.
func coldSources(seed uint64, n, count int) []uint32 {
	perm := rng.NewStream(seed, 1<<20).Perm(n)
	if count > n {
		count = n
	}
	return perm[:count]
}

// mutation is one edge update of a write batch, in original vertex IDs.
type mutation struct {
	Src    uint32 `json:"src"`
	Dst    uint32 `json:"dst"`
	Weight uint32 `json:"weight,omitempty"`
	Remove bool   `json:"remove,omitempty"`
}

// genBatches draws count write batches of `inserts` insertions; every 4th
// batch also removes the most recent own insertion not yet removed.
func genBatches(seed uint64, n, count, inserts int) [][]mutation {
	r := rng.NewStream(seed, 1<<21)
	var live []mutation
	out := make([][]mutation, count)
	for b := range out {
		batch := make([]mutation, 0, inserts+1)
		if b%4 == 3 && len(live) > 0 {
			e := live[len(live)-1]
			live = live[:len(live)-1]
			batch = append(batch, mutation{Src: e.Src, Dst: e.Dst, Remove: true})
		}
		for i := 0; i < inserts; i++ {
			m := mutation{Src: uint32(r.Intn(n)), Dst: uint32(r.Intn(n)), Weight: uint32(1 + r.Intn(8))}
			batch = append(batch, m)
			live = append(live, m)
		}
		out[b] = batch
	}
	return out
}

// opHasher folds every generated input into one number, so two runs can
// show they did the same work.
type opHasher struct {
	h hash.Hash64
	b [4]byte
}

func newOpHasher() *opHasher { return &opHasher{h: fnv.New64a()} }

func (h *opHasher) u32(v uint32) {
	binary.LittleEndian.PutUint32(h.b[:], v)
	h.h.Write(h.b[:])
}

func (h *opHasher) points(ops []pointOp) {
	for _, op := range ops {
		flag := uint32(op.Kind)
		if op.Verify {
			flag |= 1 << 8
		}
		h.u32(flag)
		h.u32(op.V)
	}
}

func (h *opHasher) vertices(vs []uint32) {
	for _, v := range vs {
		h.u32(v)
	}
}

func (h *opHasher) batches(bs [][]mutation) {
	for _, b := range bs {
		h.u32(uint32(len(b)))
		for _, m := range b {
			h.u32(m.Src)
			h.u32(m.Dst)
			h.u32(m.Weight)
			if m.Remove {
				h.u32(1)
			} else {
				h.u32(0)
			}
		}
	}
}

func (h *opHasher) sum() uint64 { return h.h.Sum64() }
