package server

import (
	"errors"
	"fmt"
	"net/http"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"graphreorder/internal/dynamic"
	"graphreorder/internal/faultinject"
	"graphreorder/internal/graph"
	"graphreorder/internal/obs"
	"graphreorder/internal/reorder"
	"graphreorder/internal/stats"
)

// The dynamic-serving layer. A snapshot built with BuildSpec.Mutable
// keeps its graph alive as a dynamic.Graph, which holds the served
// layout as its one CSR, owned by a
// liveGraph: a single refresher goroutine that is the only writer. Edge
// mutations arrive over POST /v1/snapshots/{name}/edges, are serialized
// through the liveGraph's queue, applied atomically batch by batch, and
// then published as a brand-new immutable Snapshot (fresh epoch), made by
// the publishStages a snapshot build runs, through the store's atomic
// hot-swap path — so the read side keeps its lock-free acquire/drain
// discipline untouched, readers never block on writers and can never
// observe a half-applied batch, and the epoch-keyed result cache
// invalidates itself on every publish.
//
// Per the paper's §VIII-B, the refresher reuses an ordering until it has
// decayed (liveGraph.decayed) or the vertex space changed; every publish
// in between patches the previous epoch's CSR
// with the batch (dynamic.Reorderer.View) and warm-starts PageRank from
// the previous epoch's ranks, so its cost is O(V) for the view's index
// plus work proportional to the lists the batch edits: the patched CSR
// shares the previous epoch's edge and weight arrays. What it publishes
// is still a brand-new snapshot: no byte a published snapshot reads is
// ever written again.

const (
	// maxMutateUpdates bounds one request's batch size.
	maxMutateUpdates = 1 << 17
	// maxMutateBodyBytes bounds a mutation body, so an oversized batch is
	// refused (413) before it is decoded in full: 128 bytes for each of
	// maxMutateUpdates updates — the longest compact one,
	// {"src":4294967295,"dst":4294967295,"weight":4294967295,"remove":false},
	// is 71 with its comma, the rest is room for indentation — plus 1 KiB
	// for the envelope. 16 MiB.
	maxMutateBodyBytes = maxMutateUpdates*128 + 1<<10
	// maxBuildSpecBytes bounds a build spec body: a handful of names and
	// paths.
	maxBuildSpecBytes = 64 << 10
	// maxAddVertices bounds one request's vertex growth.
	maxAddVertices = 1 << 20
	// liveQueueDepth bounds queued write batches per live graph; beyond
	// it writers are rejected with 503 instead of piling up unbounded.
	liveQueueDepth = 64
	// maxCoalescedBatches bounds how many queued batches the refresher
	// folds into a single publish (one relabel + one rank precompute
	// amortized over all of them).
	maxCoalescedBatches = 16
	// packingDecay is the fraction of the last refresh's packing
	// utilization the served layout may lose before a publish re-reorders.
	// One crossing of the hot threshold (m/n passing 20) costs sd/small's
	// DBG order 4.55% (a 42,240 B hub working set against a fresh order's
	// 40,320 B), which then holds for 400 batches: 5% lets it pass without
	// an O(E) relabel, and still refreshes uni/tiny, whose threshold sweeps
	// through half the vertices, 9 times in 300 random batches (2%: 20).
	packingDecay = 0.05
)

var (
	errLiveClosed     = errors.New("server: snapshot's mutation pipeline is shut down")
	errWriteQueueFull = errors.New("server overloaded: write queue full")
)

// MutateRequest is the JSON body of POST /v1/snapshots/{name}/edges.
type MutateRequest struct {
	// AddVertices grows the vertex space before the updates are applied,
	// so updates may reference the new IDs (first new ID = old vertex
	// count).
	AddVertices int `json:"add_vertices,omitempty"`
	// Updates is the edge batch, applied atomically and in order.
	Updates []MutateUpdate `json:"updates"`
}

// MutateUpdate is one edge insertion or removal. Vertex IDs are in the
// snapshot's original (as-loaded) order — the stable space mutations and
// /resolve share; query responses stay in the published serving order.
type MutateUpdate struct {
	Src    graph.VertexID `json:"src"`
	Dst    graph.VertexID `json:"dst"`
	Weight uint32         `json:"weight,omitempty"`
	Remove bool           `json:"remove,omitempty"`
}

// MutateResult is the receipt for one applied batch: by the time the
// client sees it, a snapshot containing the batch is published under
// Epoch, and every later read that reports this epoch (or a newer one)
// reflects the batch.
type MutateResult struct {
	Snapshot string `json:"snapshot"`
	Epoch    uint64 `json:"epoch"`
	// Batch is this batch's sequence number (1-based) in the snapshot's
	// mutation history.
	Batch int `json:"batch"`
	// Vertices and Edges describe the snapshot published under Epoch —
	// which contains this batch and possibly later batches coalesced
	// into the same publish.
	Vertices int `json:"vertices"`
	Edges    int `json:"edges"`
	Applied  int `json:"applied"`
	// FirstNewVertex is the first ID added by AddVertices (when > 0).
	FirstNewVertex graph.VertexID `json:"first_new_vertex,omitempty"`
	AddedVertices  int            `json:"added_vertices,omitempty"`
	// Refreshed reports whether this publish recomputed the ordering
	// (decayed, or the vertex space changed) rather than patching the
	// held CSR under the current permutation.
	Refreshed bool    `json:"refreshed"`
	ApplyMs   float64 `json:"apply_ms"`
	PublishMs float64 `json:"publish_ms"`
}

type mutateReq struct {
	updates     []dynamic.Update
	addVertices int
	enqueued    time.Time
	trace       *obs.Trace       // the request's trace (nil-safe): the publish stages land on it
	reply       chan mutateReply // buffered(1): the refresher never blocks on it
}

type mutateReply struct {
	res    MutateResult
	err    error
	status int
}

// liveGraph is one mutable snapshot's write pipeline. All fields below
// queue are touched only by the refresher goroutine after start.
type liveGraph struct {
	// publishSpec is what every epoch publishes under; its backend is
	// resolved (plain or compressed, never auto: the build resolved that
	// once).
	publishSpec
	store *Store

	dyn   *dynamic.Graph
	reord *dynamic.Reorderer

	// dur is the durable (WAL + checkpoint) state, nil when durability
	// is off. mark is the last successfully published state of dyn, the
	// target a failed publish rolls back to (by undoing the edit log — no
	// copy of the graph is held for it).
	dur  *durableLog
	mark dynamic.Mark

	// lastRanks and lastPerm are the ranks and permutation of the last
	// published snapshot: the next precompute's warm start. Nil after a
	// rollback, which makes the next precompute start cold.
	lastRanks []float64
	lastPerm  reorder.Permutation

	// degreeBased is set for a plan of one degree-based technique;
	// packedAt and served are the packing utilizations published by the
	// last refresh (or the build) and by the last publish.
	degreeBased      bool
	packedAt, served float64
	// degs is decayed's degree buffer, refilled on every check.
	degs []uint32

	// crashed marks a simulated crash (CrashLive): the refresher then
	// abandons its WAL without flushing and skips the final checkpoint,
	// exactly like a kill, so recovery must work from durable state.
	crashed atomic.Bool

	queue chan *mutateReq
	stop  chan struct{}
	wg    sync.WaitGroup
	// closeMu makes shutdown airtight: enqueue sends under RLock, and
	// stopLive flips closed under Lock before the final drain — so a
	// write can never slip into the queue after the drain and hang
	// waiting for a reply that will not come.
	closeMu sync.RWMutex
	closed  bool
}

// newLiveGraph wires the mutation pipeline for a freshly built snapshot:
// ps is the build's publish spec, base the graph in original order,
// reordered the plain relabeled graph the build produced (the published
// snapshot may serve a compressed encoding of it), snap the published
// snapshot, order its view stage. The Reorderer is seeded with the
// build's ordering and advice so the first write does not redo them, and
// the dynamic graph adopts reordered as its CSR in place of base, which
// nothing holds once the build ends.
func newLiveGraph(st *Store, ps publishSpec, base, reordered *graph.Graph, snap *Snapshot, order *buildOrder, recovered *recoveredState) *liveGraph {
	lg := &liveGraph{
		publishSpec: ps,
		store:       st,
		dyn:         dynamic.FromGraph(base),
		reord:       dynamic.NewReorderer(order.plan, ps.kind, dynamic.Policy{}),
		queue:       make(chan *mutateReq, liveQueueDepth),
		stop:        make(chan struct{}),
	}
	// Publishes run on the single refresher goroutine; their CSR rebuilds
	// (refresh and relabel alike) may use the store's engine workers.
	lg.reord.Workers, lg.reord.Advice = st.workers, order.rec
	perm := snap.perm
	if perm == nil {
		perm = reorder.Identity(base.NumVertices())
	}
	lg.reord.Seed(lg.dyn, reordered, perm)
	if recovered != nil {
		// The base graph already contains recovered.batches WAL batches;
		// resume the mutation history there so new WAL records continue
		// the sequence the on-disk log ended with.
		lg.dyn.RestoreBatches(int(recovered.batches))
	}
	lg.dur = st.openDurableLog(lg.name, lg.dyn, lg.source, recovered == nil)
	lg.mark = lg.dyn.Mark()
	lg.lastRanks, lg.lastPerm = snap.ranks, perm
	if stages := order.plan.Stages(); len(stages) == 1 {
		_, lg.degreeBased = stages[0].(reorder.DegreeBased)
	}
	lg.packedAt, lg.served = snap.quality.PackingUtilization, snap.quality.PackingUtilization
	lg.wg.Add(1)
	go lg.loop()
	return lg
}

// enqueue hands a write to the refresher, never blocking: a full queue
// is overload and the caller is told so.
func (lg *liveGraph) enqueue(req *mutateReq) error {
	lg.closeMu.RLock()
	defer lg.closeMu.RUnlock()
	if lg.closed {
		return errLiveClosed
	}
	select {
	case lg.queue <- req:
		return nil
	default:
		return errWriteQueueFull
	}
}

// loop is the refresher: the single goroutine that mutates the dynamic
// graph and publishes snapshots.
func (lg *liveGraph) loop() {
	defer lg.wg.Done()
	for {
		select {
		case <-lg.stop:
			lg.drain()
			if lg.dur != nil {
				if lg.crashed.Load() {
					lg.dur.abandon()
				} else {
					// Graceful stop: fold pending WAL records into a
					// final checkpoint so a clean restart never replays.
					lg.dur.finalize(lg.store, lg.dyn, lg.source)
				}
			}
			return
		case req := <-lg.queue:
			reqs := []*mutateReq{req}
			// Coalesce queued writers into one publish: each batch is
			// applied (and validated) individually, but they share one
			// relabel/reorder and one rank precompute.
			for len(reqs) < maxCoalescedBatches {
				select {
				case r := <-lg.queue:
					reqs = append(reqs, r)
				default:
					goto collected
				}
			}
		collected:
			lg.process(reqs)
		}
	}
}

// drain rejects whatever is still queued at shutdown.
func (lg *liveGraph) drain() {
	for {
		select {
		case req := <-lg.queue:
			req.reply <- mutateReply{err: errLiveClosed, status: http.StatusServiceUnavailable}
		default:
			return
		}
	}
}

func (lg *liveGraph) process(reqs []*mutateReq) {
	type appliedReq struct {
		req *mutateReq
		res MutateResult
	}
	ok := make([]appliedReq, 0, len(reqs))
	traces := make([]*obs.Trace, 0, len(reqs))
	for _, req := range reqs {
		start := time.Now()
		// WAL first: the batch must be on the log before it can touch the
		// in-memory graph, so no applied state is ever unlogged. A failed
		// apply rewinds the log to keep the two in lockstep.
		var preOff int64
		if lg.dur != nil {
			seq := uint64(lg.dyn.Batches()) + 1
			off, err := lg.dur.log.AppendBatch(seq, req.addVertices, req.updates)
			if err != nil {
				lg.store.writes.failed.Add(1)
				req.reply <- mutateReply{err: fmt.Errorf("write-ahead log: %w", err),
					status: http.StatusInternalServerError}
				continue
			}
			preOff = off
		}
		first, err := lg.dyn.ApplyGrow(req.addVertices, req.updates)
		if err != nil {
			if lg.dur != nil {
				lg.dur.log.Rewind(preOff)
			}
			lg.store.writes.failed.Add(1)
			req.reply <- mutateReply{err: err, status: http.StatusBadRequest}
			continue
		}
		res := MutateResult{
			Snapshot:      lg.name,
			Batch:         lg.dyn.Batches(),
			Applied:       len(req.updates),
			AddedVertices: req.addVertices,
			ApplyMs:       msSince(start),
		}
		if req.addVertices > 0 {
			res.FirstNewVertex = first
		}
		lg.store.writes.stage("apply").Observe(time.Since(start))
		req.trace.Observe("apply", start)
		ok = append(ok, appliedReq{req, res})
		traces = append(traces, req.trace)
	}
	if len(ok) == 0 {
		return
	}
	pubStart := time.Now()
	snap, refreshed, err := lg.publish(traces)
	pubMs := msSince(pubStart)
	if err != nil {
		// Publishing failed (snapshot build or precompute): roll the
		// dynamic graph — and the WAL — back to the last successfully
		// published state, so the refresher stays healthy and the failed
		// batches neither linger unacknowledged in memory nor replay
		// after a crash.
		lg.store.logger.Warn("publish failed, rolled back",
			"snapshot", lg.name, "batches", len(ok), "err", err)
		lg.rollback()
		for _, a := range ok {
			lg.store.writes.failed.Add(1)
			a.req.reply <- mutateReply{err: err, status: http.StatusInternalServerError}
		}
		return
	}
	if lg.dur != nil {
		if err := lg.dur.commit(lg.store, snap.epoch, lg.dyn, lg.source); err != nil {
			// The publish is visible but its durability is unknown: the
			// receipts' guarantee cannot be issued. The graph stays as
			// published (readers may already see it); clients treat the
			// error like any other unacknowledged write.
			for _, a := range ok {
				lg.store.writes.failed.Add(1)
				a.req.reply <- mutateReply{err: fmt.Errorf("write-ahead log: %w", err),
					status: http.StatusInternalServerError}
			}
			lg.noteGood()
			return
		}
	}
	lg.noteGood()
	if refreshed {
		lg.store.logger.Info("ordering refreshed",
			"snapshot", lg.name, "epoch", snap.epoch,
			"vertices", snap.graph.NumVertices(), "edges", snap.graph.NumEdges(),
			"publish_ms", pubMs)
	}
	for _, a := range ok {
		a.res.Epoch = snap.epoch
		a.res.Vertices = snap.graph.NumVertices()
		a.res.Edges = snap.graph.NumEdges()
		a.res.Refreshed = refreshed
		a.res.PublishMs = pubMs
		lg.store.writes.batches.Add(1)
		lg.store.writes.updates.Add(uint64(a.res.Applied))
		lg.store.writes.lat.Observe(time.Since(a.req.enqueued))
		a.req.reply <- mutateReply{res: a.res}
	}
}

// rollback restores the dynamic graph to the last successfully
// published (and durably committed) state after a failed publish, and
// rewinds the WAL to match. The graph keeps its permutation: the undo is
// on the edit log like any other edit, and if the vertex space rolled
// back past it the next View detects the change and forces a refresh.
func (lg *liveGraph) rollback() {
	if err := lg.dyn.RollbackTo(lg.mark); err != nil {
		// The mark pins its log, so this is a bug, not a condition.
		lg.store.logger.Error("rollback failed, failed batches stay applied", "snapshot", lg.name, "err", err)
		return
	}
	lg.mark = lg.dyn.Mark()
	lg.lastRanks, lg.lastPerm = nil, nil
	if lg.dur != nil {
		lg.dur.log.Rewind(lg.dur.lastGoodOff)
	}
}

// noteGood records the just-published state as the rollback target.
func (lg *liveGraph) noteGood() {
	lg.mark = lg.dyn.Mark()
	if lg.dur != nil {
		lg.dur.lastGoodOff = lg.dur.log.Offset()
	}
}

// publishStageNames are the values of graphd_publish_stage_seconds'
// stage label and the span names a traced write shows: "apply" once per
// batch, then publishStages in order — the view span tagged with the path
// the Reorderer took (patch the held view with the batch, or refresh the
// ordering) — where "swap" spans assembling the snapshot and publishing
// it.
var publishStageNames = [...]string{
	"apply", "view.patch", "view.refresh", "precompute", "encode", "swap"}

// publish materializes the current dynamic state as an immutable
// snapshot through publishStages and hot-swaps it into the store under a
// fresh epoch. Every stage is a span on the traces of the writes it
// carries and a sample of graphd_publish_stage_seconds.
func (lg *liveGraph) publish(traces []*obs.Trace) (*Snapshot, bool, error) {
	// The "live.publish" point lets robustness tests force a publish
	// failure and observe the rollback path.
	if err := faultinject.Fire("live.publish"); err != nil {
		return nil, false, err
	}
	observe := func(span string, start time.Time) {
		lg.store.writes.stage(span).Observe(time.Since(start))
		for _, tr := range traces {
			tr.Observe(span, start)
		}
	}
	var swapStart time.Time
	p := &publishJob{publishSpec: lg.publishSpec, store: lg.store, view: lg.view, traces: traces,
		end: func(stage, tag string, start time.Time) {
			switch {
			case stage == "assemble":
				swapStart = start // the swap span ends once the snapshot is published
			case tag != "":
				observe(stage+"."+tag, start)
			default:
				observe(stage, start)
			}
		}}
	refreshes := lg.reord.Refreshes
	snap, err := p.run()
	if err != nil {
		return nil, false, err
	}
	if !lg.store.publish(snap, false) {
		// The name is being dropped out from under us: the batch cannot
		// be acknowledged as visible.
		return nil, false, errLiveClosed
	}
	refreshed := lg.reord.Refreshes > refreshes
	lg.lastRanks, lg.lastPerm = snap.ranks, snap.perm
	lg.served = snap.quality.PackingUtilization
	lg.store.writes.publishes.Add(1)
	if refreshed {
		lg.packedAt = lg.served
		lg.store.writes.refreshes.Add(1)
	}
	observe("swap", swapStart)
	return snap, refreshed, nil
}

// view is a live publish's view stage: the Reorderer's view of the
// dynamic graph under the stale permutation (the previous view patched
// with the batch), or under a refreshed ordering. A refresh of an "auto"
// snapshot re-advises from the maintained degrees, so its recorded
// verdict follows the evolving degree distribution. The precompute
// starts from the last published ranks.
func (lg *liveGraph) view(p *publishJob) (string, error) {
	start := time.Now()
	r := lg.reord
	tag := "patch"
	if r.Due(lg.dyn) || lg.decayed() {
		tag = "refresh"
		if err := r.Refresh(lg.dyn); err != nil {
			return "", err
		}
	}
	g, perm, err := r.View(lg.dyn)
	if err != nil {
		return "", err
	}
	p.g, p.snap.perm, p.warm = g, perm, lg.warmStart(perm)
	if rec := r.Advice; rec != nil {
		p.snap.advised, p.snap.adviceReason = rec.Spec, rec.Reason
	}
	if tag == "refresh" {
		p.snap.reorderTime = time.Since(start)
	} else {
		p.snap.rebuildTime = time.Since(start)
	}
	return tag, nil
}

// decayed reports whether the ordering stopped earning its reuse: it
// packs hot vertices (a degree-based technique's, or an "auto" dbg) and the
// served packing, which assemble measured, fell more than packingDecay
// below the last refresh's; or the advisor now gives an "auto" snapshot
// another verdict (an O(V) pass a publish, 0.3 ms on sd/small, over a
// degree buffer the live graph keeps). The
// identity and plans that read structure wait for Due: packing is not
// what they order by, and their refresh is the costly one.
func (lg *liveGraph) decayed() bool {
	rec := lg.reord.Advice
	packs := lg.degreeBased || rec != nil && rec.Reorder()
	if packs && lg.served < (1-packingDecay)*lg.packedAt {
		return true
	}
	if rec == nil {
		return false
	}
	n := lg.dyn.NumVertices()
	lg.degs = slices.Grow(lg.degs[:0], n)[:n]
	for v := range lg.degs {
		id, d := graph.VertexID(v), uint32(0)
		if lg.kind != graph.InDegree {
			d += uint32(lg.dyn.OutDegree(id))
		}
		if lg.kind != graph.OutDegree {
			d += uint32(lg.dyn.InDegree(id))
		}
		lg.degs[v] = d
	}
	return reorder.AdviseDegrees(lg.degs, lg.dyn.NumEdges()).Spec != rec.Spec
}

// warmStart returns the last published ranks in the ID space of perm, or
// nil (a cold start) when there are none or the vertex space changed.
func (lg *liveGraph) warmStart(perm reorder.Permutation) []float64 {
	if len(lg.lastRanks) != len(perm) || len(perm) == 0 {
		return nil
	}
	if &perm[0] == &lg.lastPerm[0] {
		return lg.lastRanks // stale path: same permutation, same IDs
	}
	ranks := make([]float64, len(perm))
	for v, id := range perm {
		ranks[id] = lg.lastRanks[lg.lastPerm[v]]
	}
	return ranks
}

func msSince(t time.Time) float64 {
	return float64(time.Since(t).Microseconds()) / 1000
}

// Live returns the mutation pipeline of a mutable snapshot, or nil.
func (st *Store) Live(name string) *liveGraph {
	st.liveMu.Lock()
	defer st.liveMu.Unlock()
	return st.live[name]
}

// shutdown retires the pipeline: no new writes are accepted, the
// refresher finishes what it already dequeued and exits, and
// queued-but-unprocessed writes are rejected. Idempotent. Must not be
// called with st.mu held (the refresher may be mid-publish, which takes
// st.mu).
func (lg *liveGraph) shutdown() {
	lg.closeMu.Lock()
	alreadyClosed := lg.closed
	lg.closed = true
	lg.closeMu.Unlock()
	if !alreadyClosed {
		close(lg.stop)
	}
	lg.wg.Wait()
	// The refresher is gone and closed is set, so nothing can enqueue
	// anymore: this drain is final.
	lg.drain()
}

// registerLive installs a freshly built snapshot's mutation pipeline,
// retiring any previous pipeline still registered under the name (two
// racing rebuilds must not leak the loser's refresher).
func (st *Store) registerLive(lg *liveGraph) {
	st.liveMu.Lock()
	old := st.live[lg.name]
	st.live[lg.name] = lg
	st.liveMu.Unlock()
	if old != nil {
		old.shutdown()
	}
}

// CrashLive simulates a crash of a mutable snapshot's write pipeline:
// the refresher is stopped abruptly — queued writes get 503, the WAL is
// abandoned without a flush, no final checkpoint is written — leaving
// exactly the durable state a kill would. The published snapshot keeps
// serving reads. A subsequent Build of the same name recovers from
// checkpoint + WAL, which is how chaos testing proves recovery works.
// Reports whether the name had a live pipeline.
func (st *Store) CrashLive(name string) bool {
	st.liveMu.Lock()
	lg := st.live[name]
	delete(st.live, name)
	st.liveMu.Unlock()
	if lg == nil {
		return false
	}
	lg.crashed.Store(true)
	lg.shutdown()
	return true
}

// stopLive retires a snapshot's mutation pipeline. Safe to call for
// non-live names.
func (st *Store) stopLive(name string) {
	st.liveMu.Lock()
	lg := st.live[name]
	delete(st.live, name)
	st.liveMu.Unlock()
	if lg != nil {
		lg.shutdown()
	}
}

// CloseLive stops every mutation pipeline (used at server shutdown).
func (st *Store) CloseLive() {
	st.liveMu.Lock()
	names := make([]string, 0, len(st.live))
	for name := range st.live {
		names = append(names, name)
	}
	st.liveMu.Unlock()
	sort.Strings(names)
	for _, name := range names {
		st.stopLive(name)
	}
}

// writeStats aggregates the dynamic-update pipeline across all live
// graphs of a store.
type writeStats struct {
	batches   atomic.Uint64
	updates   atomic.Uint64
	failed    atomic.Uint64
	publishes atomic.Uint64
	refreshes atomic.Uint64
	lat       stats.LatencyHist
	stages    [len(publishStageNames)]stats.LatencyHist
}

// stage returns the histogram of one publish stage.
func (w *writeStats) stage(name string) *stats.LatencyHist {
	for i, n := range publishStageNames {
		if n == name {
			return &w.stages[i]
		}
	}
	panic("server: unknown publish stage " + name)
}

// WriteStats reports the dynamic-update pipeline's counters for /metrics.
type WriteStats struct {
	// Batches counts successfully applied (and published) write batches.
	Batches uint64 `json:"batches"`
	// Updates counts individual edge updates inside those batches.
	Updates uint64 `json:"updates"`
	// Failed counts rejected batches (validation or publish errors).
	Failed uint64 `json:"failed"`
	// Publishes counts snapshots published by refreshers; Refreshes of
	// them recomputed the ordering, and the rest patched the held CSR
	// under the current permutation.
	Publishes uint64 `json:"publishes"`
	Refreshes uint64 `json:"refreshes"`
	// Write latency (enqueue to published receipt), microseconds.
	P50Us float64 `json:"p50_us"`
	P99Us float64 `json:"p99_us"`
}

func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1000 }

func (st *Store) writeStatsReport() WriteStats {
	lat := st.writes.lat.Snapshot()
	return WriteStats{
		Batches:   st.writes.batches.Load(),
		Updates:   st.writes.updates.Load(),
		Failed:    st.writes.failed.Load(),
		Publishes: st.writes.publishes.Load(),
		Refreshes: st.writes.refreshes.Load(),
		P50Us:     us(lat.P50),
		P99Us:     us(lat.P99),
	}
}
