package server

import (
	"errors"
	"fmt"
	"log/slog"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"graphreorder/internal/csrz"
	"graphreorder/internal/gen"
	"graphreorder/internal/graph"
	"graphreorder/internal/reorder"
)

// Snapshot backends: the adjacency representation a snapshot serves from.
const (
	backendPlain      = "plain"      // dual-CSR uint32 arrays
	backendCompressed = "compressed" // csrz delta+varint byte streams
	backendAuto       = "auto"       // compressed iff the layout predicts it pays
)

// autoCompressMinRatio is the "auto" backend's gate: compress when the
// layout's predicted out-direction compression ratio clears it. Below
// this the space win does not buy back the decode overhead on the query
// path.
const autoCompressMinRatio = 1.4

// Snapshot is one immutable, named serving unit: a graph in a particular
// vertex order together with results precomputed at build time. Queries
// acquire a snapshot once, at entry, and use only that snapshot for the
// whole request, so a concurrent hot-swap can never hand a request half
// of one graph and half of another.
type Snapshot struct {
	epoch     uint64
	name      string
	graph     graph.View
	technique string
	degree    graph.DegreeKind
	perm      reorder.Permutation // nil when serving the original order
	source    string
	live      bool // published by a mutable snapshot's refresher pipeline

	// The published layout's packing report (EvaluatePacking), plus — for
	// "auto" builds — what the advisor chose and why.
	quality      reorder.QualityReport
	advised      string
	adviceReason string

	// Precomputed at build time, immutable afterwards.
	ranks     []float64
	rankIters int
	rankSum   float64 // ordering-invariant checksum of ranks

	// Shard mode (cluster serving): ranks were loaded from a rank file
	// computed on the full graph rather than recomputed on this shard's
	// subgraph, and owned marks the vertices this shard is the rank/topk
	// authority for (current ID space; nil on non-shard snapshots).
	externalRanks bool
	owned         []bool

	// inv is the lazily computed current->original inverse of perm, for
	// queries served in original-ID space (?ids=orig).
	invOnce sync.Once
	inv     reorder.Permutation

	built          time.Time
	loadTime       time.Duration
	reorderTime    time.Duration
	rebuildTime    time.Duration
	precomputeTime time.Duration

	// backend is the serving representation ("plain" or "compressed");
	// cz is the compressed graph when backend is compressed (it and
	// s.graph are then the same object). The byte fields record the
	// published representation's space accounting, filled once by
	// finishBackend before publish.
	backend          string
	cz               *csrz.Graph
	residentAdjBytes int64
	plainAdjBytes    int64
	onDiskBytes      int64
	ratio            float64

	store   *Store       // set by publish, before readers can see the snapshot
	refs    atomic.Int64 // queries currently using this snapshot
	retired atomic.Bool  // removed from the table; draining until refs hit 0
	// closeOnce guards the munmap of an OpenFile-loaded compressed
	// snapshot: exactly one of the retire/release/sweep paths runs it,
	// and only once the snapshot is retired with no readers left.
	closeOnce sync.Once
}

// finishBackend fills the snapshot's backend label and space accounting
// from its representation. Must be called once, before publish.
func (s *Snapshot) finishBackend() {
	if s.cz != nil {
		cs := s.cz.Stats()
		s.backend = backendCompressed
		s.residentAdjBytes = cs.CompressedAdjBytes
		s.plainAdjBytes = cs.PlainAdjBytes
		s.onDiskBytes = cs.OnDiskBytes
		s.ratio = cs.Ratio
		return
	}
	s.backend = backendPlain
	s.plainAdjBytes = int64(s.graph.NumEdges()) * 4 * 2
	s.residentAdjBytes = s.plainAdjBytes
	s.ratio = 1
}

// mmapBacked reports whether the snapshot's arrays live in a file
// mapping that retirement will eventually unmap — the one case Acquire
// must never hand out once the snapshot is retired.
func (s *Snapshot) mmapBacked() bool { return s.cz != nil && s.cz.MmapBacked() }

// maybeClose releases the mapping behind an mmap-backed snapshot once it
// is both retired and unreferenced. Every path that can be the last to
// observe that state calls it (retire with no readers, the final
// release, the drain sweep); the Once makes the munmap happen exactly
// once, and heap-backed snapshots make it a no-op.
func (s *Snapshot) maybeClose() {
	if s.cz == nil || !s.retired.Load() || s.refs.Load() != 0 {
		return
	}
	s.closeOnce.Do(func() { s.cz.Close() })
}

// WriteCSRZ exports the snapshot's graph (in its published order) as a
// .csrz container — the file a later BuildSpec.Path loads back through
// the codec's zero-copy mapping. A plain-backend snapshot is encoded on
// the fly; a compressed one writes its existing representation.
func (s *Snapshot) WriteCSRZ(path string) error {
	cz := s.cz
	if cz == nil {
		pg, ok := s.graph.(*graph.Graph)
		if !ok {
			return fmt.Errorf("server: snapshot %q has no encodable graph", s.name)
		}
		cz = csrz.Encode(pg)
	}
	return cz.WriteFile(path)
}

// Epoch returns the snapshot's unique, monotonically increasing ID.
func (s *Snapshot) Epoch() uint64 { return s.epoch }

// Name returns the snapshot's name.
func (s *Snapshot) Name() string { return s.name }

// Graph returns the snapshot's (immutable) graph view — plain dual-CSR
// or compressed, depending on the backend the snapshot was built with.
func (s *Snapshot) Graph() graph.View { return s.graph }

// invPerm returns the current->original inverse of the snapshot's
// permutation, computed once on first use and cached (the snapshot is
// immutable, so the inverse is too). Nil when the snapshot serves the
// original order — wire IDs then *are* original IDs.
func (s *Snapshot) invPerm() reorder.Permutation {
	if s.perm == nil {
		return nil
	}
	s.invOnce.Do(func() {
		inv := make(reorder.Permutation, len(s.perm))
		for o, c := range s.perm {
			inv[c] = graph.VertexID(o)
		}
		s.inv = inv
	})
	return s.inv
}

// SnapshotInfo is the JSON description of a snapshot for admin endpoints.
type SnapshotInfo struct {
	Name      string `json:"name"`
	Epoch     uint64 `json:"epoch"`
	Current   bool   `json:"current"`
	Vertices  int    `json:"vertices"`
	Edges     int    `json:"edges"`
	Weighted  bool   `json:"weighted"`
	Technique string `json:"technique"`
	Degree    string `json:"degree"`
	Source    string `json:"source"`
	Mutable   bool   `json:"mutable,omitempty"`
	// Backend is the serving representation ("plain" or "compressed");
	// the byte fields compare it against the plain 4-bytes-per-edge
	// adjacency. OnDiskBytes is the .csrz file size when the snapshot is
	// served straight from a mapping, 0 otherwise; CompressionRatio is
	// plain over resident adjacency bytes (1.0 on the plain backend).
	Backend          string  `json:"backend"`
	ResidentAdjBytes int64   `json:"resident_adj_bytes"`
	PlainAdjBytes    int64   `json:"plain_adj_bytes"`
	OnDiskBytes      int64   `json:"on_disk_bytes,omitempty"`
	CompressionRatio float64 `json:"compression_ratio"`
	Built            string  `json:"built"`
	// LoadMs is reading or generating the graph, ReorderMs choosing its
	// order (reorder.Resolve, the advisor's verdict included for "auto",
	// or the plan's permutation of the graph) and RebuildMs relabeling
	// the CSR into it. A build from a file whose plan is one degree-based
	// technique or "auto" (on out-degrees, immutable) relabels as it
	// reads: the relabel is inside LoadMs and RebuildMs is 0.
	LoadMs       float64 `json:"load_ms"`
	ReorderMs    float64 `json:"reorder_ms"`
	RebuildMs    float64 `json:"rebuild_ms"`
	PrecomputeMs float64 `json:"precompute_ms"`
	RankIters    int     `json:"rank_iters"`
	// Advised is the technique the skew-gated advisor picked when the
	// snapshot was built with technique "auto"; AdviceReason explains the
	// verdict.
	Advised      string `json:"advised,omitempty"`
	AdviceReason string `json:"advice_reason,omitempty"`
	// Quality reports the published layout's ordering quality: the
	// paper's packing factor and hub working set. Present on every
	// snapshot, whatever its technique, so orderings are comparable from
	// the admin API alone.
	Quality QualityInfo `json:"quality"`
	// RankChecksum is the ordering-invariant sum of all PageRank values:
	// snapshots of the same graph under different orderings must agree on
	// it (up to float summation order), which makes torn or mismatched
	// snapshots visible from the outside.
	RankChecksum  float64 `json:"rank_checksum"`
	ActiveQueries int64   `json:"active_queries"`
}

// QualityInfo is the JSON view of a layout's ordering-quality report.
type QualityInfo struct {
	// PackingFactor is the mean number of hot vertices per cache block
	// holding at least one (the paper's Table II metric); Ideal is the
	// contiguous-layout ceiling and Utilization their ratio.
	PackingFactor float64 `json:"packing_factor"`
	Ideal         float64 `json:"ideal_packing_factor"`
	Utilization   float64 `json:"packing_utilization"`
	// HubWorkingSetBytes is the cache footprint of blocks holding hot
	// vertices under this layout.
	HubWorkingSetBytes int64 `json:"hub_working_set_bytes"`
	HotVertices        int   `json:"hot_vertices"`
}

func qualityInfo(q reorder.QualityReport) QualityInfo {
	return QualityInfo{
		PackingFactor:      q.PackingFactor,
		Ideal:              q.IdealPackingFactor,
		Utilization:        q.PackingUtilization,
		HubWorkingSetBytes: q.HubWorkingSetBytes,
		HotVertices:        q.HotVertices,
	}
}

func (s *Snapshot) info(current bool) SnapshotInfo {
	return SnapshotInfo{
		Name:             s.name,
		Epoch:            s.epoch,
		Current:          current,
		Vertices:         s.graph.NumVertices(),
		Edges:            s.graph.NumEdges(),
		Weighted:         s.graph.Weighted(),
		Technique:        s.technique,
		Degree:           s.degree.String(),
		Source:           s.source,
		Mutable:          s.live,
		Backend:          s.backend,
		ResidentAdjBytes: s.residentAdjBytes,
		PlainAdjBytes:    s.plainAdjBytes,
		OnDiskBytes:      s.onDiskBytes,
		CompressionRatio: s.ratio,

		Built:         s.built.UTC().Format(time.RFC3339),
		LoadMs:        float64(s.loadTime.Microseconds()) / 1000,
		ReorderMs:     float64(s.reorderTime.Microseconds()) / 1000,
		RebuildMs:     float64(s.rebuildTime.Microseconds()) / 1000,
		PrecomputeMs:  float64(s.precomputeTime.Microseconds()) / 1000,
		RankIters:     s.rankIters,
		Advised:       s.advised,
		AdviceReason:  s.adviceReason,
		Quality:       qualityInfo(s.quality),
		RankChecksum:  s.rankSum,
		ActiveQueries: s.refs.Load(),
	}
}

// snapTable is the immutable value behind the store's atomic pointer.
// Hot-swapping publishes a fresh table; readers load the pointer once and
// see a consistent view with no locks on the query path.
type snapTable struct {
	current *Snapshot
	byName  map[string]*Snapshot
}

// Store holds named snapshots and the designated current one. Reads are a
// single atomic pointer load; all mutation happens under mu and publishes
// a copied table.
type Store struct {
	workers int

	tab    atomic.Pointer[snapTable]
	mu     sync.Mutex // serializes writers (publish/activate/drop)
	nextID atomic.Uint64
	swaps  atomic.Uint64

	draining []*Snapshot // retired with queries still in flight; mu-guarded
	// dropping holds names mid-Drop: removed from the table but whose
	// mutation pipeline may still be finishing a publish, which must be
	// discarded rather than resurrect the name. mu-guarded.
	dropping map[string]struct{}

	// Dynamic-update pipelines for mutable snapshots (see live.go).
	liveMu sync.Mutex
	live   map[string]*liveGraph
	writes writeStats

	// durable is the crash-safety configuration for mutable snapshots
	// (see durability.go); nil when durability is off.
	durable *durability

	// logger receives the store's structured logs (refresher publishes,
	// durability recovery); never nil after NewStore.
	logger *slog.Logger

	buildMu sync.Mutex
	builds  map[string]*BuildStatus
	buildWG sync.WaitGroup
}

// NewStore creates an empty store whose build pipelines use the given
// engine worker count (<= 0 means GOMAXPROCS). A mutable snapshot
// re-reorders once its served packing has decayed (see live.go).
func NewStore(workers int) *Store {
	st := &Store{
		workers:  workers,
		builds:   make(map[string]*BuildStatus),
		dropping: make(map[string]struct{}),
		live:     make(map[string]*liveGraph),
		logger:   slog.New(slog.DiscardHandler),
	}
	st.tab.Store(&snapTable{byName: map[string]*Snapshot{}})
	return st
}

// SetLogger directs the store's structured logs (nil discards them).
func (st *Store) SetLogger(l *slog.Logger) {
	if l == nil {
		l = slog.New(slog.DiscardHandler)
	}
	st.logger = l
}

// Acquire returns the current snapshot with its refcount taken, plus the
// release function, or (nil, nil) when nothing is published yet. It never
// blocks: a concurrent swap just means this query finishes on the
// snapshot it started with.
func (st *Store) Acquire() (*Snapshot, func()) {
	return st.acquire(func() *Snapshot { return st.tab.Load().current })
}

// AcquireNamed is Acquire for an explicitly named snapshot.
func (st *Store) AcquireNamed(name string) (*Snapshot, func()) {
	return st.acquire(func() *Snapshot { return st.tab.Load().byName[name] })
}

// acquireRetries bounds the mmap back-off loop in acquire. Publish
// installs a replacement table before retiring the old snapshot, so one
// reload normally suffices; the bound only guards against pathological
// swap storms.
const acquireRetries = 8

func (st *Store) acquire(load func() *Snapshot) (*Snapshot, func()) {
	for range acquireRetries {
		s := load()
		if s == nil {
			return nil, nil
		}
		release := s.retain()
		// Close the retire/acquire race: a Drop or replace may have
		// retired s after we loaded the table but before the retain, and
		// the retirer may have seen refs==0 — the seq-cst ordering of
		// (Add refs; load retired) here against (store retired; load
		// refs) there guarantees at least one side sees the other.
		if !s.retired.Load() {
			return s, release
		}
		if !s.mmapBacked() {
			// Heap-backed snapshots stay valid for as long as anyone
			// holds them: just make sure the drain tracking knows about
			// us (registerDraining deduplicates if the retirer already
			// did).
			st.registerDraining(s)
			return s, release
		}
		// Mmap-backed and retired: the retirer may already have seen
		// refs==0 and unmapped the arrays, and we cannot distinguish
		// that from a close still pending. Back off — the release may
		// itself trigger the close — and retry against a fresh table.
		release()
	}
	return nil, nil
}

// registerDraining adds a retired-but-referenced snapshot to the
// draining list if it is not already tracked.
func (st *Store) registerDraining(s *Snapshot) {
	st.mu.Lock()
	defer st.mu.Unlock()
	for _, d := range st.draining {
		if d == s {
			return
		}
	}
	st.draining = append(st.draining, s)
}

// retain takes an additional reference on the snapshot, for computations
// that outlive the acquiring request (e.g. a singleflight leader whose
// waiters have all timed out). The returned release is idempotent. The
// last release of a retired snapshot also runs its close step — see
// maybeClose — and takes it off the store's draining list, which would
// otherwise pin the whole dead snapshot until the next publish.
func (s *Snapshot) retain() func() {
	s.refs.Add(1)
	var once sync.Once
	return func() {
		once.Do(func() {
			if s.refs.Add(-1) == 0 && s.retired.Load() {
				s.maybeClose()
				if st := s.store; st != nil {
					st.mu.Lock()
					st.sweepDrainedLocked()
					st.mu.Unlock()
				}
			}
		})
	}
}

// Current returns the current snapshot without taking a reference (for
// introspection only; queries must use Acquire).
func (st *Store) Current() *Snapshot { return st.tab.Load().current }

// List describes all published snapshots, current first.
func (st *Store) List() []SnapshotInfo {
	tab := st.tab.Load()
	out := make([]SnapshotInfo, 0, len(tab.byName))
	if tab.current != nil {
		out = append(out, tab.current.info(true))
	}
	names := make([]string, 0, len(tab.byName))
	for name, s := range tab.byName {
		if s != tab.current {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	for _, name := range names {
		out = append(out, tab.byName[name].info(false))
	}
	return out
}

// Info returns the description of one named snapshot.
func (st *Store) Info(name string) (SnapshotInfo, bool) {
	tab := st.tab.Load()
	s, ok := tab.byName[name]
	if !ok {
		return SnapshotInfo{}, false
	}
	return s.info(s == tab.current), true
}

// Activate hot-swaps the current snapshot to the named one. Queries in
// flight on the previous snapshot drain naturally; new queries see the
// new table from their very next atomic load.
func (st *Store) Activate(name string) error {
	st.mu.Lock()
	defer st.mu.Unlock()
	old := st.tab.Load()
	s, ok := old.byName[name]
	if !ok {
		return fmt.Errorf("server: unknown snapshot %q", name)
	}
	if old.current == s {
		return nil
	}
	st.tab.Store(&snapTable{current: s, byName: old.byName})
	st.swaps.Add(1)
	return nil
}

// Drop removes a named snapshot from the table, then stops its mutation
// pipeline if it is live. The current snapshot cannot be dropped. If
// queries are still running on it, the snapshot moves to the draining
// list until the last one releases it. The name's build status goes
// with it, unless a rebuild of the name is still running.
//
// The check-and-remove happens atomically under mu *before* any side
// effect, so a Drop that loses a race (e.g. against an Activate of the
// same name) fails cleanly without having killed the pipeline. The
// pipeline is stopped only afterwards — stopLive cannot run under mu
// because the refresher may be mid-publish, which takes mu — and the
// dropping tombstone makes such an in-flight publish discard its
// snapshot instead of resurrecting the dropped name.
func (st *Store) Drop(name string) error {
	st.mu.Lock()
	old := st.tab.Load()
	s, ok := old.byName[name]
	if !ok {
		st.mu.Unlock()
		return fmt.Errorf("server: unknown snapshot %q", name)
	}
	if s == old.current {
		st.mu.Unlock()
		return errDropCurrent
	}
	byName := make(map[string]*Snapshot, len(old.byName))
	for k, v := range old.byName {
		if k != name {
			byName[k] = v
		}
	}
	st.tab.Store(&snapTable{current: old.current, byName: byName})
	s.retired.Store(true)
	if s.refs.Load() > 0 {
		st.draining = append(st.draining, s)
	} else {
		s.maybeClose()
	}
	st.sweepDrainedLocked()
	st.dropping[name] = struct{}{}
	st.mu.Unlock()

	st.stopLive(name)
	// Dropping is explicit deletion: its durable state must not be
	// resurrected by a later build of the same name.
	st.removeDurable(name)
	st.mu.Lock()
	delete(st.dropping, name)
	st.mu.Unlock()
	st.buildMu.Lock()
	if b := st.builds[name]; b != nil && !b.infoView().Running {
		delete(st.builds, name)
	}
	st.buildMu.Unlock()
	return nil
}

// DrainingCount reports how many retired snapshots still have queries in
// flight.
func (st *Store) DrainingCount() int {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.sweepDrainedLocked()
	return len(st.draining)
}

func (st *Store) sweepDrainedLocked() {
	kept := st.draining[:0]
	for _, s := range st.draining {
		if s.refs.Load() > 0 {
			kept = append(kept, s)
		} else {
			s.maybeClose()
		}
	}
	// The dropped tail still points at drained snapshots: clear it, or
	// the backing array keeps them alive until an append overwrites it.
	clear(st.draining[len(kept):])
	st.draining = kept
}

// Swaps reports how many hot-swaps have been performed.
func (st *Store) Swaps() uint64 { return st.swaps.Load() }

// BuildSpec describes one snapshot build request. Exactly one of Dataset
// (a built-in generator name, with Scale) or Path (a graph file in either
// supported format) must be set.
type BuildSpec struct {
	// Name keys the snapshot in the store; rebuilding an existing name
	// publishes a replacement (under a fresh epoch).
	Name string `json:"name"`
	// Dataset/Scale select a built-in synthetic dataset.
	Dataset string `json:"dataset,omitempty"`
	Scale   string `json:"scale,omitempty"`
	// Path loads a graph file (text edge list or binary, sniffed).
	Path string `json:"path,omitempty"`
	// Technique is a reordering spec ("dbg", "sort", "dbg|gorder", ...);
	// empty, "original", "none" or "identity" serves the graph as loaded.
	Technique string `json:"technique,omitempty"`
	// Backend selects the serving representation: "plain" (dual-CSR
	// uint32 arrays), "compressed" (csrz delta+varint adjacency —
	// bit-identical results, a fraction of the resident bytes), or
	// "auto" (compressed when the layout's predicted compression ratio
	// clears the gate). Empty means plain, except that a .csrz Path
	// defaults to compressed — and serves the file's mapping zero-copy
	// when no reordering or mutation forces a decode.
	Backend string `json:"backend,omitempty"`
	// Degree is the degree kind used for reordering: "in" or "out".
	// The default, "out", serves the PageRank precompute, a pull: a pull
	// reads prop[src], so its hot vertices are those with high
	// out-degree (§VI-C).
	Degree string `json:"degree,omitempty"`
	// MaxIters bounds the PageRank precompute (0 = default).
	MaxIters int `json:"max_iters,omitempty"`
	// Activate makes the snapshot current as soon as it is published.
	Activate bool `json:"activate,omitempty"`
	// Mutable keeps the graph's pre-reorder form alive behind a write
	// pipeline: the snapshot then accepts POST /v1/snapshots/{name}/edges
	// batches and republishes itself (fresh epoch) after every batch,
	// re-reordering once its packing has decayed (see live.go).
	Mutable bool `json:"mutable,omitempty"`
	// RanksPath loads precomputed PageRank from a rank file (written by
	// the cluster partitioner, see WriteRankFile) instead of recomputing
	// it on this graph. This is shard mode: the file carries *global*
	// ranks for this shard's vertices in original-ID space, plus the
	// owned-vertex set the shard is the rank/top-k authority for — a
	// shard's local subgraph would yield different ranks than the full
	// graph, so merged cluster answers must come from one global compute.
	// Incompatible with Mutable (a write would invalidate the file).
	RanksPath string `json:"ranks_path,omitempty"`
}

// BuildStatus tracks one build pipeline for the admin API.
type BuildStatus struct {
	mu   sync.Mutex
	Name string
	// Stage is "loading", then the name of the publish stage running
	// ("view", "precompute", "encode", "assemble"), then
	// "ready" or "failed".
	Stage    string
	Err      string
	Started  time.Time
	Finished time.Time
	Epoch    uint64
}

// BuildStatusInfo is the JSON view of a BuildStatus.
type BuildStatusInfo struct {
	Name     string  `json:"name"`
	Stage    string  `json:"stage"`
	Err      string  `json:"error,omitempty"`
	Epoch    uint64  `json:"epoch,omitempty"`
	Seconds  float64 `json:"seconds"`
	Running  bool    `json:"running"`
	Finished string  `json:"finished,omitempty"`
}

func (b *BuildStatus) setStage(stage string) {
	b.mu.Lock()
	b.Stage = stage
	b.mu.Unlock()
}

func (b *BuildStatus) finish(epoch uint64, err error) {
	b.mu.Lock()
	b.Finished = time.Now()
	if err != nil {
		b.Stage = "failed"
		b.Err = err.Error()
	} else {
		b.Stage = "ready"
		b.Epoch = epoch
	}
	b.mu.Unlock()
}

func (b *BuildStatus) infoView() BuildStatusInfo {
	b.mu.Lock()
	defer b.mu.Unlock()
	v := BuildStatusInfo{
		Name:    b.Name,
		Stage:   b.Stage,
		Err:     b.Err,
		Epoch:   b.Epoch,
		Running: b.Finished.IsZero(),
	}
	if b.Finished.IsZero() {
		v.Seconds = time.Since(b.Started).Seconds()
	} else {
		v.Seconds = b.Finished.Sub(b.Started).Seconds()
		v.Finished = b.Finished.UTC().Format(time.RFC3339)
	}
	return v
}

// Builds lists the status of all build pipelines ever started.
func (st *Store) Builds() []BuildStatusInfo {
	st.buildMu.Lock()
	defer st.buildMu.Unlock()
	names := make([]string, 0, len(st.builds))
	for name := range st.builds {
		names = append(names, name)
	}
	sort.Strings(names)
	out := make([]BuildStatusInfo, 0, len(st.builds))
	for _, name := range names {
		out = append(out, st.builds[name].infoView())
	}
	return out
}

// Build runs the full pipeline synchronously: load or generate, then
// publishStages, then publish. It returns the published snapshot.
func (st *Store) Build(spec BuildSpec) (*Snapshot, error) {
	status := &BuildStatus{Name: spec.Name, Stage: "loading", Started: time.Now()}
	st.buildMu.Lock()
	st.builds[spec.Name] = status
	st.buildMu.Unlock()
	snap, err := st.build(spec, status)
	if err != nil {
		status.finish(0, err)
		return nil, err
	}
	status.finish(snap.epoch, nil)
	return snap, nil
}

// BuildAsync starts Build on a background goroutine; progress is visible
// via Builds(). WaitBuilds blocks until all background builds finish.
func (st *Store) BuildAsync(spec BuildSpec) {
	st.buildWG.Add(1)
	go func() {
		defer st.buildWG.Done()
		st.Build(spec)
	}()
}

// WaitBuilds blocks until every background build has finished.
func (st *Store) WaitBuilds() { st.buildWG.Wait() }

func (st *Store) build(spec BuildSpec, status *BuildStatus) (*Snapshot, error) {
	if spec.Name == "" {
		return nil, errors.New("server: build spec needs a name")
	}
	if spec.RanksPath != "" && spec.Mutable {
		return nil, errors.New("server: ranks_path snapshots must be immutable")
	}
	kind := graph.OutDegree
	switch spec.Degree {
	case "", "out":
	case "in":
		kind = graph.InDegree
	default:
		return nil, fmt.Errorf("server: bad degree %q (want in|out)", spec.Degree)
	}
	order, err := newBuildOrder(spec.Technique)
	if err != nil {
		return nil, err
	}

	// Stage 0: recovery. A mutable name that is not currently live but
	// left durable state behind (crash, restart) resumes from its last
	// checkpoint + WAL instead of reloading the spec's source — that is
	// the crash-safety contract: acknowledged batches survive. A rebuild
	// of a *live* name is an explicit operator request for a fresh
	// build, so it skips recovery.
	var recovered *recoveredState
	if spec.Mutable && st.durable != nil && st.Live(spec.Name) == nil {
		recovered = st.recoverDurable(spec.Name)
	}

	// Stage 1: load or generate.
	start := time.Now()
	var (
		g      *graph.Graph
		source string
	)
	if recovered != nil {
		st.bumpEpochFloor(recovered.epochFloor)
		return st.buildFrom(spec, status, recovered.base, nil, order, recovered.source, kind, time.Since(start), recovered)
	}
	switch {
	case spec.Dataset != "" && spec.Path != "":
		return nil, errors.New("server: build spec sets both dataset and path")
	case spec.Dataset != "":
		scale := spec.Scale
		if scale == "" {
			scale = "small"
		}
		var s gen.Scale
		if s, err = gen.ParseScale(scale); err != nil {
			return nil, err
		}
		var cfg gen.Config
		if cfg, err = gen.Dataset(spec.Dataset, s); err != nil {
			return nil, err
		}
		if g, err = gen.Generate(cfg); err != nil {
			return nil, err
		}
		source = "dataset:" + spec.Dataset + "/" + scale
	case spec.Path != "":
		// A .csrz file (sniffed by magic) loads through the codec's
		// zero-copy mapping; everything else goes through the text/binary
		// auto-reader (a file too short for the magic is not csrz; that
		// reader reports the real error).
		isCZ, err := csrz.SniffFile(spec.Path)
		if err != nil {
			return nil, err
		}
		if isCZ {
			cz, err := csrz.OpenFile(spec.Path)
			if err != nil {
				return nil, err
			}
			return st.buildFrom(spec, status, nil, cz, order, "file:"+spec.Path, kind, time.Since(start), nil)
		}
		var f *os.File
		if f, err = os.Open(spec.Path); err != nil {
			return nil, err
		}
		// The loader hands the chooser the file's out-degrees; a mutable
		// build's dynamic graph starts from the as-loaded graph.
		var choose graph.OrderChooser
		if !spec.Mutable && kind == graph.OutDegree {
			choose = order.choose
		}
		g, _, err = graph.ReadAutoOrdered(f, choose)
		f.Close()
		if err != nil {
			return nil, err
		}
		return st.buildFrom(spec, status, g, nil, order, "file:"+spec.Path, kind, time.Since(start)-order.took, nil)
	default:
		return nil, errors.New("server: build spec needs dataset or path")
	}
	return st.buildFrom(spec, status, g, nil, order, source, kind, time.Since(start), nil)
}

// buildOrder is a build's view stage: it puts the loaded graph in the
// order the spec's plan resolves to (reorder.Resolve, from the degrees
// alone, the advisor's verdict included for "auto") and records that
// order. A load from a file asks it first, through choose: the loader
// then writes each edge straight into its relabeled slot, so only the
// served CSR is ever allocated, and the view stage records what the load
// chose. A plan that reads more than degrees, or a graph loaded in its
// source's order, is relabeled in the view stage.
type buildOrder struct {
	plan   *reorder.Plan
	loaded bool                    // the load chose the order and relabeled
	perm   reorder.Permutation     // nil keeps the loaded order
	rec    *reorder.Recommendation // the advisor's verdict, for "auto"
	took   time.Duration           // spent choosing the order
}

// newBuildOrder parses a BuildSpec.Technique into a build's order.
func newBuildOrder(technique string) (*buildOrder, error) {
	plan, err := reorder.ParsePlan(techniqueName(technique))
	if err != nil {
		return nil, err
	}
	return &buildOrder{plan: plan}, nil
}

// choose is a load's graph.OrderChooser: the order resolved from the
// file's out-degrees, or nil (the file's order) when the plan reads more
// than degrees.
func (o *buildOrder) choose(degs []uint32, m int) ([]graph.VertexID, error) {
	start := time.Now()
	perm, rec, ok := reorder.Resolve(o.plan, degs, m)
	if !ok {
		return nil, nil
	}
	o.loaded, o.perm, o.rec, o.took = true, perm, rec, time.Since(start)
	return perm, nil
}

// view resolves the order of a graph the load did not order and relabels
// it; the identity plan passes the graph through as loaded, a .csrz
// mapping included. It then records the order, the advice and the time
// spent choosing (for a load that relabeled, its rebuild time stays 0).
func (o *buildOrder) view(p *publishJob) (string, error) {
	if !o.loaded && len(o.plan.Stages()) > 0 {
		start := time.Now()
		perm, rec, ok := reorder.Resolve(o.plan, p.g.Degrees(p.kind), p.g.NumEdges())
		if !ok {
			var err error
			if perm, err = o.plan.PermuteWorkers(p.g, p.kind, p.store.workers); err != nil {
				return "", fmt.Errorf("reorder: %s: %w", o.plan.Name(), err)
			}
		}
		o.perm, o.rec, o.took = perm, rec, time.Since(start)
		if perm != nil {
			start = time.Now()
			g, err := p.g.RelabelWorkers(perm, p.store.workers)
			if err != nil {
				return "", fmt.Errorf("reorder: %s: relabel: %w", o.plan.Name(), err)
			}
			p.g, p.snap.rebuildTime = g, time.Since(start)
		}
	}
	p.snap.perm, p.snap.reorderTime = o.perm, o.took
	if o.rec != nil {
		p.snap.advised, p.snap.adviceReason = o.rec.Spec, o.rec.Reason
	}
	return "", nil
}

// techniqueName normalizes a BuildSpec.Technique like the registry does,
// so "Auto"/"DBG" hit the same paths (and display the same) as their
// lowercase spellings; the empty spec is "original".
func techniqueName(technique string) string {
	if name := strings.ToLower(strings.TrimSpace(technique)); name != "" {
		return name
	}
	return "original"
}

// resolveBackend normalizes a BuildSpec.Backend, defaulting by input
// form: plain for plain inputs, compressed when the graph arrived as a
// .csrz file.
func resolveBackend(spec string, fromCSRZ bool) (string, error) {
	b := strings.ToLower(strings.TrimSpace(spec))
	switch b {
	case "":
		if fromCSRZ {
			return backendCompressed, nil
		}
		return backendPlain, nil
	case backendPlain, backendCompressed, backendAuto:
		return b, nil
	}
	return "", fmt.Errorf("server: bad backend %q (want plain|compressed|auto)", spec)
}

// buildFrom runs publishStages on an already loaded (or recovered) graph
// and publishes the result. Exactly one of g (plain) and cz (a .csrz load,
// possibly mmap-backed) is non-nil on entry; cz passes through zero-copy
// when nothing forces the plain form. order is the build's view stage,
// which may already have ordered g as it was loaded.
func (st *Store) buildFrom(spec BuildSpec, status *BuildStatus, g *graph.Graph, cz *csrz.Graph, order *buildOrder,
	source string, kind graph.DegreeKind, loadTime time.Duration, recovered *recoveredState) (*Snapshot, error) {
	p := &publishJob{store: st, begin: status.setStage, g: g, cz: cz, view: order.view}
	// Any early error must release a load-time mapping; once the snapshot
	// publishes, its retire path owns the close instead.
	published := false
	defer func() {
		if !published && p.cz != nil {
			p.cz.Close()
		}
	}()

	backend, err := resolveBackend(spec.Backend, cz != nil)
	if err != nil {
		return nil, err
	}
	p.publishSpec = publishSpec{name: spec.Name, techName: techniqueName(spec.Technique), kind: kind, source: source,
		live: spec.Mutable, maxIters: spec.MaxIters, backend: backend, ranksPath: spec.RanksPath}

	// A .csrz load serves its mapped arrays directly only when nothing
	// needs the plain form: reordering, the advisor, a mutation pipeline
	// and the plain backend all decode first.
	if cz != nil && (len(order.plan.Stages()) > 0 || spec.Mutable || backend == backendPlain) {
		if err := p.decode(); err != nil {
			return nil, err
		}
	}
	// base keeps the as-loaded order alive for the mutation pipeline.
	base := p.g
	snap, err := p.run()
	if err != nil {
		return nil, err
	}
	snap.loadTime = loadTime
	// Retire the name's previous mutation pipeline only now that the
	// rebuild is certain to publish: a spec or load failure above leaves
	// the old incarnation fully writable. stopLive waits for the old
	// refresher to exit, so a publish it had in flight lands before —
	// never after — the rebuilt snapshot's.
	st.stopLive(spec.Name)
	if !st.publish(snap, spec.Activate) {
		// A concurrent Drop owns the name; do not resurrect it. The
		// deferred close releases a mapping-backed build.
		return nil, fmt.Errorf("server: snapshot %q was dropped during the build", spec.Name)
	}
	published = true
	if spec.Mutable {
		st.registerLive(newLiveGraph(st, p.publishSpec, base, p.g, snap, order, recovered))
	}
	return snap, nil
}

// publish inserts snap into the table, optionally making it current,
// and reports whether it did. A replaced same-name snapshot drains if it
// still has queries in flight. Publishing a name that is mid-Drop is
// refused (false): the dropper already removed it from the table and a
// late refresher publish must not resurrect it.
func (st *Store) publish(snap *Snapshot, activate bool) bool {
	snap.store = st
	st.mu.Lock()
	defer st.mu.Unlock()
	if _, mid := st.dropping[snap.name]; mid {
		return false
	}
	old := st.tab.Load()
	byName := make(map[string]*Snapshot, len(old.byName)+1)
	for k, v := range old.byName {
		byName[k] = v
	}
	replaced := byName[snap.name]
	byName[snap.name] = snap
	current := old.current
	if activate || current == nil || current == replaced {
		if current != snap {
			st.swaps.Add(1)
		}
		current = snap
	}
	st.tab.Store(&snapTable{current: current, byName: byName})
	if replaced != nil && replaced != snap {
		replaced.retired.Store(true)
		if replaced.refs.Load() > 0 {
			st.draining = append(st.draining, replaced)
		} else {
			replaced.maybeClose()
		}
	}
	st.sweepDrainedLocked()
	return true
}
