package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"net/url"
	"runtime"
	"strconv"
	"time"

	"graphreorder/internal/dynamic"
	"graphreorder/internal/faultinject"
	"graphreorder/internal/graph"
	"graphreorder/internal/obs"
)

// Config tunes a Server. The zero value serves with GOMAXPROCS engine
// workers, 2*GOMAXPROCS heavy-query slots, a 15s query timeout and a
// 1024-entry result cache.
type Config struct {
	// Workers is the engine worker count used by traversals and snapshot
	// builds (<= 0 means GOMAXPROCS).
	Workers int
	// MaxConcurrent bounds traversal-heavy queries in flight (<= 0 means
	// 2*GOMAXPROCS).
	MaxConcurrent int
	// QueryTimeout bounds a heavy query end to end — queue time and the
	// traversal itself; 0 means 15s. The deadline is derived from the
	// request's own context and passed straight through to the execution
	// engine (graphreorder.Run), so expiry or a client disconnect aborts
	// the traversal cooperatively within one round and frees its pool
	// slot immediately.
	QueryTimeout time.Duration
	// CacheBytes is the byte budget of the LRU result cache, charged what
	// an entry keeps resident (the SSSP distance vectors of target queries
	// dominate, bit-packed at the width their largest distance needs); 0
	// means 256 MiB.
	CacheBytes int64
	// AllowPathLoads permits POST /v1/snapshots specs that read graph
	// files from the server's filesystem.
	AllowPathLoads bool
	// TraceSample is the fraction of requests promoted to the detailed
	// trace tier (per-round traversal stats, structured request logs);
	// every request still gets cheap span timing. 0 means 0.05; negative
	// disables tracing entirely. ?debug=trace forces one request into the
	// detailed tier regardless of the rate (unless tracing is disabled).
	TraceSample float64
	// SlowThreshold is the total-latency bar above which a finished trace
	// is recorded in the /debug/slow ring (server-fault responses are
	// recorded regardless). 0 means 250ms; negative disables the ring.
	SlowThreshold time.Duration
	// Pprof registers net/http/pprof handlers under /debug/pprof/ on the
	// server's own mux. Off by default: profiling endpoints expose stack
	// traces and should be opted into.
	Pprof bool
	// Logger receives structured request, refresher and durability logs;
	// nil discards them.
	Logger *slog.Logger
	// Version is the build identifier reported by /healthz.
	Version string
}

func (c Config) withDefaults() Config {
	if c.MaxConcurrent <= 0 {
		c.MaxConcurrent = 2 * runtime.GOMAXPROCS(0)
	}
	if c.QueryTimeout <= 0 {
		c.QueryTimeout = 15 * time.Second
	}
	if c.CacheBytes <= 0 {
		c.CacheBytes = 256 << 20
	}
	if c.TraceSample == 0 {
		c.TraceSample = 0.05
	}
	if c.SlowThreshold == 0 {
		c.SlowThreshold = 250 * time.Millisecond
	}
	if c.Logger == nil {
		c.Logger = slog.New(slog.DiscardHandler)
	}
	return c
}

// Server is the graphd HTTP service. Create with New, expose via
// Handler, stop with Shutdown.
type Server struct {
	cfg     Config
	store   *Store
	cache   *ResultCache
	flight  *FlightGroup
	pool    *workPool
	metrics *obs.MetricsSet
	shed    shedCounters
	sampler *obs.Sampler
	slow    *obs.SlowRing
	logger  *slog.Logger
	started time.Time
}

// New creates a Server with an empty snapshot store.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	store := NewStore(cfg.Workers)
	store.SetLogger(cfg.Logger)
	return &Server{
		cfg:     cfg,
		store:   store,
		cache:   NewResultCache(cfg.CacheBytes),
		flight:  NewFlightGroup(),
		pool:    newWorkPool(cfg.MaxConcurrent),
		metrics: obs.NewMetricsSet(),
		sampler: obs.NewSampler(cfg.TraceSample),
		slow:    obs.NewSlowRing(0),
		logger:  cfg.Logger,
		started: time.Now(),
	}
}

// Store exposes the snapshot store (for bootstrapping and tests).
func (s *Server) Store() *Store { return s.store }

// Shutdown stops the mutation pipelines of live snapshots (finishing
// any batch already dequeued, rejecting the rest) and waits for
// background snapshot builds to finish, up to the context deadline. The
// HTTP listener itself is the caller's to drain (http.Server.Shutdown);
// this covers the server's own goroutines.
func (s *Server) Shutdown(ctx context.Context) error {
	done := make(chan struct{})
	go func() {
		// Builds first: a mutable build finishing mid-shutdown registers
		// its pipeline, which CloseLive must then stop — the other order
		// would leak that pipeline's refresher.
		s.store.WaitBuilds()
		s.store.CloseLive()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Handler returns the routing table.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	// The request front door is obs.Instrument, shared with the cluster
	// router. A negative TraceSample switches span timing off, not just
	// the detailed tier.
	in := &obs.Instrument{
		Metrics:       s.metrics,
		NoTrace:       s.cfg.TraceSample < 0,
		Sampler:       s.sampler,
		Slow:          s.slow,
		SlowThreshold: s.cfg.SlowThreshold,
		Logger:        s.logger,
	}
	route := func(pattern, name string, h http.HandlerFunc) {
		mux.HandleFunc(pattern, in.Wrap(name, h))
	}
	route("GET /healthz", "healthz", s.handleHealthz)
	route("GET /metrics", "metrics", s.handleMetrics)
	route("GET /debug/slow", "debug.slow", s.handleSlow)
	if s.cfg.Pprof {
		// Registered on the server's own mux (not DefaultServeMux), gated
		// behind the flag: profiling endpoints are operator tooling.
		mux.HandleFunc("GET /debug/pprof/", pprof.Index)
		mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	}
	route("GET /v1/snapshots", "snapshots.list", s.handleSnapshotList)
	route("POST /v1/snapshots", "snapshots.build", s.handleSnapshotBuild)
	route("GET /v1/snapshots/builds", "snapshots.builds", s.handleSnapshotBuilds)
	route("GET /v1/snapshots/{name}", "snapshots.get", s.handleSnapshotGet)
	route("GET /v1/snapshots/{name}/resolve", "snapshots.resolve", s.handleSnapshotResolve)
	route("POST /v1/snapshots/{name}/activate", "snapshots.activate", s.handleSnapshotActivate)
	route("POST /v1/snapshots/{name}/edges", "snapshots.mutate", s.handleMutate)
	route("DELETE /v1/snapshots/{name}", "snapshots.drop", s.handleSnapshotDrop)
	route("GET /v1/query/neighbors", "query.neighbors", s.handleNeighbors)
	route("GET /v1/query/degree", "query.degree", s.handleDegree)
	route("GET /v1/query/rank", "query.rank", s.handleRank)
	route("GET /v1/query/topk", "query.topk", s.handleTopK)
	route("GET /v1/query/sssp", "query.sssp", s.handleSSSP)
	route("GET /v1/query/radii", "query.radii", s.handleRadii)
	route("POST /v1/shard/relax", "shard.relax", s.handleShardRelax)
	return mux
}

type errorBody struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, errorBody{Error: fmt.Sprintf(format, args...)})
}

// snapshotFor resolves the snapshot a query runs on: ?snapshot=name pins
// one, otherwise the current snapshot is used. The returned release
// function is non-nil iff the snapshot is.
func (s *Server) snapshotFor(w http.ResponseWriter, q url.Values) (*Snapshot, func()) {
	var snap *Snapshot
	var release func()
	if name := q.Get("snapshot"); name != "" {
		snap, release = s.store.AcquireNamed(name)
		if snap == nil {
			writeError(w, http.StatusNotFound, "unknown snapshot %q", name)
			return nil, nil
		}
	} else {
		snap, release = s.store.Acquire()
		if snap == nil {
			writeError(w, http.StatusServiceUnavailable, "no snapshot published yet")
			return nil, nil
		}
	}
	return snap, release
}

// VertexParam parses the vertex-ID query parameter key and checks it
// against a vertex count of n. Node and router handlers share it.
func VertexParam(q url.Values, key string, n int) (graph.VertexID, error) {
	raw := q.Get(key)
	if raw == "" {
		return 0, fmt.Errorf("missing required parameter %q", key)
	}
	v, err := strconv.ParseUint(raw, 10, 32)
	if err != nil {
		return 0, fmt.Errorf("bad %s: %v", key, err)
	}
	if int(v) >= n {
		return 0, fmt.Errorf("%s=%d out of range [0,%d)", key, v, n)
	}
	return graph.VertexID(v), nil
}

func intParam(q url.Values, key string, def int) (int, error) {
	raw := q.Get(key)
	if raw == "" {
		return def, nil
	}
	v, err := strconv.Atoi(raw)
	if err != nil {
		return 0, fmt.Errorf("bad %s: %v", key, err)
	}
	return v, nil
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	snap, release := s.store.Acquire()
	ready := snap != nil
	if release != nil {
		release()
	}
	status := http.StatusOK
	if !ready {
		status = http.StatusServiceUnavailable
	}
	writeJSON(w, status, map[string]any{
		"ok":             ready,
		"version":        s.cfg.Version,
		"go_version":     runtime.Version(),
		"uptime_seconds": time.Since(s.started).Seconds(),
		"snapshots":      len(s.store.tab.Load().byName),
	})
}

// metricsReport assembles the full metrics state; the JSON and
// Prometheus exposition paths render the same report.
func (s *Server) metricsReport() MetricsReport {
	tab := s.store.tab.Load()
	routes := make(map[string]RouteStats)
	for name, rs := range s.metrics.Report() {
		routes[name] = RouteStats{RouteStats: rs, Shed: s.shed.get(name)}
	}
	return MetricsReport{
		UptimeSeconds: time.Since(s.started).Seconds(),
		Routes:        routes,
		Cache: CacheStats{
			Entries:     s.cache.Len(),
			Bytes:       s.cache.Bytes(),
			Hits:        s.cache.hits.Load(),
			Misses:      s.cache.misses.Load(),
			Coalesced:   s.flight.coalesced.Load(),
			StaleServes: s.cache.staleHits.Load(),
		},
		Pool:      PoolStats{Capacity: s.pool.capacity()},
		Snapshots: snapshotStatsFor(tab, s.store),
		Writes:    s.store.writeStatsReport(),
		WAL:       s.store.WALStatsReport(),
		Runtime:   RuntimeStats{Goroutines: runtime.NumGoroutine()},
	}
}

// handleMetrics negotiates the exposition format: Prometheus text when
// the scraper asks for it (Accept: text/plain or ?format=prometheus),
// the JSON report otherwise. Both render the same report.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	rep := s.metricsReport()
	if obs.WantsPrometheus(r) {
		obs.WriteFamilies(w, scrape{&rep, s.metrics, &s.store.writes}, nodeFamilies)
		return
	}
	writeJSON(w, http.StatusOK, rep)
}

// handleSlow serves the slow-query ring: the most recent traces that
// crossed the slow threshold (or failed with a server fault), newest
// first — graphd's built-in answer to "what was slow just now" with no
// external collector in the loop.
func (s *Server) handleSlow(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{
		"threshold_ms": float64(s.cfg.SlowThreshold.Microseconds()) / 1000,
		"total":        s.slow.Total(),
		"traces":       s.slow.Snapshot(),
	})
}

func (s *Server) handleSnapshotList(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"snapshots": s.store.List()})
}

func (s *Server) handleSnapshotGet(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	info, ok := s.store.Info(name)
	if !ok {
		writeError(w, http.StatusNotFound, "unknown snapshot %q", name)
		return
	}
	writeJSON(w, http.StatusOK, info)
}

// handleSnapshotResolve translates a vertex ID from the graph's
// original (as-loaded) order to the snapshot's serving order. Vertex IDs
// in query responses are snapshot-relative — reordering is physical
// relabeling — so a client holding pre-reorder IDs resolves them here
// before querying.
func (s *Server) handleSnapshotResolve(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	snap, release := s.store.AcquireNamed(name)
	if snap == nil {
		writeError(w, http.StatusNotFound, "unknown snapshot %q", name)
		return
	}
	defer release()
	v, err := VertexParam(r.URL.Query(), "v", snap.graph.NumVertices())
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	current := v
	if snap.perm != nil {
		current = snap.perm[v]
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"snapshot": snap.name,
		"epoch":    snap.epoch,
		"original": v,
		"current":  current,
	})
}

// decodeBody decodes r's JSON body into v, reading at most limit bytes:
// a longer body is answered 413, a malformed one 400. It reports whether
// v holds the body.
func decodeBody(w http.ResponseWriter, r *http.Request, limit int64, what string, v any) bool {
	err := json.NewDecoder(http.MaxBytesReader(w, r.Body, limit)).Decode(v)
	var tooLarge *http.MaxBytesError
	switch {
	case errors.As(err, &tooLarge):
		writeError(w, http.StatusRequestEntityTooLarge, "%s over %d bytes", what, limit)
	case err != nil:
		writeError(w, http.StatusBadRequest, "bad %s: %v", what, err)
	default:
		return true
	}
	return false
}

func (s *Server) handleSnapshotBuild(w http.ResponseWriter, r *http.Request) {
	var spec BuildSpec
	if !decodeBody(w, r, maxBuildSpecBytes, "build spec", &spec) {
		return
	}
	if (spec.Path != "" || spec.RanksPath != "") && !s.cfg.AllowPathLoads {
		writeError(w, http.StatusForbidden, "path loads are disabled on this server")
		return
	}
	if spec.Name == "" {
		writeError(w, http.StatusBadRequest, "build spec needs a name")
		return
	}
	s.store.BuildAsync(spec)
	writeJSON(w, http.StatusAccepted, map[string]any{"name": spec.Name, "status": "building"})
}

func (s *Server) handleSnapshotBuilds(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"builds": s.store.Builds()})
}

func (s *Server) handleSnapshotActivate(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	if err := s.store.Activate(name); err != nil {
		writeError(w, http.StatusNotFound, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"current": name})
}

func (s *Server) handleSnapshotDrop(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	if err := s.store.Drop(name); err != nil {
		status := http.StatusNotFound
		if errors.Is(err, errDropCurrent) {
			status = http.StatusConflict
		}
		writeError(w, status, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"dropped": name})
}

// handleMutate is the write path: one atomic batch of edge updates
// (plus optional vertex growth) against a mutable snapshot. The request
// is serialized through the snapshot's mutation queue and acknowledged
// only once a snapshot containing the batch is published — the receipt's
// epoch is the read-your-writes token.
func (s *Server) handleMutate(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	var body MutateRequest
	if !decodeBody(w, r, maxMutateBodyBytes, "mutation body", &body) {
		return
	}
	switch {
	case len(body.Updates) == 0 && body.AddVertices == 0:
		writeError(w, http.StatusBadRequest, "empty mutation: need updates or add_vertices")
		return
	case len(body.Updates) > maxMutateUpdates:
		writeError(w, http.StatusBadRequest, "batch too large: %d updates (max %d)", len(body.Updates), maxMutateUpdates)
		return
	case body.AddVertices < 0 || body.AddVertices > maxAddVertices:
		writeError(w, http.StatusBadRequest, "bad add_vertices %d (want 0..%d)", body.AddVertices, maxAddVertices)
		return
	}
	lg := s.store.Live(name)
	if lg == nil {
		info, ok := s.store.Info(name)
		switch {
		case !ok:
			writeError(w, http.StatusNotFound, "unknown snapshot %q", name)
		case info.Mutable:
			// Published by a mutation pipeline that has since shut down.
			writeError(w, http.StatusServiceUnavailable, "%v", errLiveClosed)
		default:
			writeError(w, http.StatusConflict, "snapshot %q is immutable; build it with \"mutable\": true", name)
		}
		return
	}
	updates := make([]dynamic.Update, len(body.Updates))
	for i, u := range body.Updates {
		updates[i] = dynamic.Update{Remove: u.Remove, Edge: graph.Edge{Src: u.Src, Dst: u.Dst, Weight: u.Weight}}
	}
	req := &mutateReq{
		updates:     updates,
		addVertices: body.AddVertices,
		enqueued:    time.Now(),
		trace:       obs.FromContext(r.Context()),
		reply:       make(chan mutateReply, 1),
	}
	if err := lg.enqueue(req); err != nil {
		writeError(w, http.StatusServiceUnavailable, "%v", err)
		return
	}
	select {
	case rep := <-req.reply:
		if rep.err != nil {
			writeError(w, rep.status, "%v", rep.err)
			return
		}
		writeJSON(w, http.StatusOK, rep.res)
	case <-r.Context().Done():
		// The batch may still apply and publish; the client just stopped
		// waiting for its receipt.
		writeError(w, http.StatusGatewayTimeout, "%v", r.Context().Err())
	}
}

func (s *Server) handleNeighbors(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	snap, release := s.snapshotFor(w, q)
	if snap == nil {
		return
	}
	defer release()
	sp, err := idSpaceFor(q, snap)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	v, err := VertexParam(q, "v", snap.graph.NumVertices())
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	limit, err := intParam(q, "limit", 0)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	res, err := queryNeighbors(sp, v, q.Get("dir"), limit)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, res)
}

func (s *Server) handleDegree(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	snap, release := s.snapshotFor(w, q)
	if snap == nil {
		return
	}
	defer release()
	sp, err := idSpaceFor(q, snap)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	v, err := VertexParam(q, "v", snap.graph.NumVertices())
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	res, err := queryDegree(snap, sp.in(v), q.Get("kind"))
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	res.Vertex = v
	writeJSON(w, http.StatusOK, res)
}

func (s *Server) handleRank(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	snap, release := s.snapshotFor(w, q)
	if snap == nil {
		return
	}
	defer release()
	sp, err := idSpaceFor(q, snap)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	v, err := VertexParam(q, "v", snap.graph.NumVertices())
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	res := queryRank(snap, sp.in(v))
	res.Vertex = v
	writeJSON(w, http.StatusOK, res)
}

func (s *Server) handleTopK(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	snap, release := s.snapshotFor(w, q)
	if snap == nil {
		return
	}
	defer release()
	sp, err := idSpaceFor(q, snap)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	k, err := intParam(q, "k", 10)
	if err != nil || k < 1 || k > 10000 {
		writeError(w, http.StatusBadRequest, "bad k (want 1..10000)")
		return
	}
	// The payload holds wire IDs (and orig mode changes tie order), so
	// the two spaces cache separately.
	out, err := s.runHeavy(r.Context(), snap, "query.topk", fmt.Sprintf("topk|%d%s", k, sp.key()),
		func(context.Context) (any, int64, error) {
			top := topKRanksIn(sp, snap.ranks, snap.owned, k)
			return top, int64(len(top)) * 16, nil
		})
	if err != nil {
		writeHeavyError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, TopKResult{QueryMeta: out.meta, K: k, Top: out.val.([]RankedVertex)})
}

func (s *Server) handleSSSP(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	snap, release := s.snapshotFor(w, q)
	if snap == nil {
		return
	}
	defer release()
	if !snap.graph.Weighted() {
		writeError(w, http.StatusBadRequest, "snapshot %q is unweighted; SSSP needs edge weights", snap.name)
		return
	}
	sp, err := idSpaceFor(q, snap)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	n := snap.graph.NumVertices()
	src, err := VertexParam(q, "src", n)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	var target graph.VertexID
	hasTarget := q.Get("target") != ""
	if hasTarget {
		if target, err = VertexParam(q, "target", n); err != nil {
			writeError(w, http.StatusBadRequest, "%v", err)
			return
		}
	}
	// The traversal and its cached distance vector are in the current
	// space of the snapshot that computed them, whatever the wire space.
	// The entry is keyed by the source's original ID, which a refresh does
	// not move, so both wire spaces share it and a stale serve from an
	// older epoch answers for the vertex named; the target is found through
	// the producing snapshot's permutation. A query without a target
	// caches only the summary its reply reads, and is also answered from a
	// vector, of its epoch or as the stale fallback.
	origSpace := idSpace{snap: snap, orig: true}
	cur := sp.in(src)
	orig := origSpace.out(cur)
	kind := fmt.Sprintf("sssp|%d", orig)
	var also []string
	if !hasTarget {
		kind, also = fmt.Sprintf("ssspsum|%d", orig), []string{kind}
	}
	out, err := s.runHeavy(r.Context(), snap, "query.sssp", kind, func(ctx context.Context) (any, int64, error) {
		dist, rounds, err := computeSSSP(ctx, snap, cur, s.cfg.Workers)
		if err != nil {
			return nil, 0, err
		}
		if !hasTarget {
			return SummarizeSSSP(dist, rounds), SSSPSummaryBytes, nil
		}
		d := NewSSSPDistances(dist, rounds)
		return ssspEntry{SSSPDistances: d, perm: snap.perm}, d.Dist.Bytes(), nil
	}, also...)
	if err != nil {
		writeHeavyError(w, err)
		return
	}
	d, isVector := out.val.(ssspEntry)
	sum := d.SSSPSummary
	if !isVector {
		sum = out.val.(SSSPSummary)
	}
	summary := sum.Summary(out.meta, src)
	if !hasTarget {
		writeJSON(w, http.StatusOK, summary)
		return
	}
	res := SSSPTargetResult{SSSPResult: summary, Target: target}
	res.Distance, res.Reachable = d.Dist.At(d.index(origSpace.out(sp.in(target))))
	writeJSON(w, http.StatusOK, res)
}

func (s *Server) handleRadii(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	snap, release := s.snapshotFor(w, q)
	if snap == nil {
		return
	}
	defer release()
	if snap.graph.NumVertices() == 0 {
		writeError(w, http.StatusBadRequest, "snapshot %q is empty", snap.name)
		return
	}
	samples, err := intParam(q, "samples", 64)
	if err != nil || samples < 1 || samples > 64 {
		writeError(w, http.StatusBadRequest, "bad samples (want 1..64)")
		return
	}
	seed, err := intParam(q, "seed", 1)
	if err != nil || seed < 0 {
		writeError(w, http.StatusBadRequest, "bad seed")
		return
	}
	out, err := s.runHeavy(r.Context(), snap, "query.radii", fmt.Sprintf("radii|%d|%d", samples, seed),
		func(ctx context.Context) (any, int64, error) {
			res, err := computeRadii(ctx, snap, samples, uint64(seed), s.cfg.Workers)
			if err != nil {
				return nil, 0, err
			}
			return res, 128, nil
		})
	if err != nil {
		writeHeavyError(w, err)
		return
	}
	res := out.val.(radiiResult)
	res.QueryMeta = out.meta
	writeJSON(w, http.StatusOK, res)
}

// heavyOutcome is what the heavy-query path hands back to a handler:
// the payload plus the metadata of the snapshot that actually produced
// it — for a stale (degraded) serve that is an older epoch's snapshot,
// with meta.Stale set.
type heavyOutcome struct {
	val  any
	meta QueryMeta
}

// runHeavy is the serving path for traversal queries: result cache, then
// deadline-aware shedding, then singleflight coalescing, then the bounded
// pool, then the traversal itself — all under the request's own context.
// Every refusal is this request's alone: nothing a shed, a panic or a
// timeout leaves behind refuses the next request. fn receives that context
// (QueryTimeout derived from it, so a tighter client deadline wins) and
// must pass it straight through to the execution engine: there is no
// private timeout plumbing around app execution, and a canceled request
// aborts its traversal cooperatively within one round. Coalesced waiters
// share the leader's computation and therefore its fate — if the leader's
// context dies mid-traversal they see its error and the next request
// recomputes. fn returns the result and its payload size in bytes (the
// cache charges that plus the entry's own overhead).
//
// route names the caller for the per-route shed counter; kindKey is the
// epoch-free cache key ("topk|10"), and the entries of also's epoch-free
// keys answer the request too (a summary SSSP reads a cached vector).
// When the predicted queue wait is past the deadline, the previous
// epoch's cached result is served marked stale; with no fallback cached,
// the request fails fast with 503 + Retry-After instead of burning its
// deadline in the queue.
func (s *Server) runHeavy(ctx context.Context, snap *Snapshot, route, kindKey string, fn func(ctx context.Context) (any, int64, error), also ...string) (heavyOutcome, error) {
	tr := obs.FromContext(ctx)
	key := fmt.Sprintf("%d|%s", snap.epoch, kindKey)
	alsoKeys := make([]string, len(also))
	for i, k := range also {
		alsoKeys[i] = fmt.Sprintf("%d|%s", snap.epoch, k)
	}
	cacheStart := time.Now()
	v, ok := s.cache.Get(key, alsoKeys...)
	tr.Observe("cache", cacheStart)
	if ok {
		meta := metaFor(snap)
		meta.Cached = true
		return heavyOutcome{val: v, meta: meta}, nil
	}
	admitStart := time.Now()
	parentDeadline, hasParentDeadline := ctx.Deadline()
	ctx, cancel := context.WithTimeout(ctx, s.cfg.QueryTimeout)
	defer cancel()
	// A pool wait that exhausts the server's own QueryTimeout is genuine
	// overload (503, fail fast). A tighter client deadline expiring in
	// the queue is that client's verdict, not saturation: it propagates
	// as a context error, so coalesced followers with live contexts
	// retry below instead of inheriting a 503.
	effectiveDeadline, _ := ctx.Deadline()
	serverOwnsDeadline := !hasParentDeadline || parentDeadline.After(effectiveDeadline)
	// Deadline-aware shedding: if the predicted queue wait already
	// exceeds what is left of the deadline, queueing can only end in a
	// timeout — shed now, before the wait burns the client's budget.
	if wait := s.pool.predictWait(); wait > 0 && time.Until(effectiveDeadline) < wait {
		tr.Observe("admit", admitStart)
		return s.degrade(route, kindKey, also, &shedError{
			reason:     "predicted queue wait exceeds deadline",
			retryAfter: wait,
		})
	}
	tr.Observe("admit", admitStart)
	// The leader computation runs on its own goroutine (so coalesced
	// waiters can abandon the wait individually), hence it holds its own
	// snapshot reference: drain accounting stays truthful for the brief
	// window a canceled leader needs to notice its context. The reference
	// is taken before do() so it provably overlaps the caller's own, and
	// released immediately if this caller lost the leader race (fn never
	// runs).
	for {
		flightStart := time.Now()
		releaseSnap := snap.retain()
		// The closure runs only when this caller wins leadership, so the
		// captured trace is the leader's own: queue and compute spans land
		// on the request that actually did the work.
		call, leader := s.flight.Do(key, func() (any, error) {
			defer releaseSnap()
			queueStart := time.Now()
			if err := s.pool.acquire(ctx); err != nil {
				tr.Observe("queue", queueStart)
				if errors.Is(err, context.DeadlineExceeded) && serverOwnsDeadline {
					return nil, errPoolSaturated
				}
				return nil, err
			}
			busy := time.Now()
			tr.Observe("queue", queueStart)
			defer func() {
				s.pool.observe(time.Since(busy))
				s.pool.release()
			}()
			v, cost, err := runWorker(ctx, fn)
			tr.Observe("compute", busy)
			if err == nil {
				s.cache.addFallback(key, kindKey, v, EntryCost(key, kindKey, cost), metaFor(snap))
			}
			return v, err
		})
		if !leader {
			releaseSnap()
		}
		select {
		case <-call.Done():
			if !leader {
				tr.Observe("flight", flightStart)
			}
			val, err := call.Result()
			// A follower that coalesced onto a leader killed by the
			// leader's own context retries while its context is live:
			// the dead leader's cancellation is not this request's
			// verdict. The loop is bounded by this request's deadline.
			if !leader && isContextErr(err) && ctx.Err() == nil {
				continue
			}
			if err != nil {
				return heavyOutcome{}, err
			}
			meta := metaFor(snap)
			if !leader {
				// Coalesced onto the leader's computation: same epoch,
				// shared result — report it as served from cache.
				meta.Cached = true
			}
			return heavyOutcome{val: val, meta: meta}, nil
		case <-ctx.Done():
			return heavyOutcome{}, ctx.Err()
		}
	}
}

// runWorker executes fn with panic containment: a panicking traversal
// (or an injected "pool.worker" fault) becomes an ordinary 500 for this
// request instead of killing the process. The "pool.worker.delay" point
// injects latency without failing, for shed tests that need a busy pool
// with known service times.
func runWorker(ctx context.Context, fn func(ctx context.Context) (any, int64, error)) (v any, cost int64, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("%w: %v", errWorkerPanic, r)
		}
	}()
	faultinject.Armed("pool.worker.delay") // applies the armed delay, if any
	if ferr := faultinject.Fire("pool.worker"); ferr != nil {
		return nil, 0, fmt.Errorf("%w: %v", errWorkerPanic, ferr)
	}
	return fn(ctx)
}

// degrade is the refused-admission path: serve the previous epoch's
// cached result for kindKey or also marked stale if one exists, otherwise
// surface the shed.
func (s *Server) degrade(route, kindKey string, also []string, shed *shedError) (heavyOutcome, error) {
	s.shed.add(route)
	if v, meta, ok := s.cache.getStale(kindKey, also...); ok {
		meta.Cached = true
		meta.Stale = true
		return heavyOutcome{val: v, meta: meta}, nil
	}
	return heavyOutcome{}, shed
}

func isContextErr(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

var (
	errPoolSaturated = errors.New("server overloaded: heavy-query pool saturated")
	errWorkerPanic   = errors.New("server: worker failed")
	errDropCurrent   = errors.New("server: cannot drop the current snapshot; activate another first")
)

// shedError reports a request refused by admission control, with the
// Retry-After hint clients should honor.
type shedError struct {
	reason     string
	retryAfter time.Duration
}

func (e *shedError) Error() string {
	return fmt.Sprintf("server overloaded: %s; retry after %s", e.reason, e.retryAfter.Round(time.Millisecond))
}

func heavyStatus(err error) int {
	var shed *shedError
	switch {
	case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
		return http.StatusGatewayTimeout
	case errors.Is(err, errPoolSaturated), errors.As(err, &shed):
		return http.StatusServiceUnavailable
	case errors.Is(err, errWorkerPanic):
		return http.StatusInternalServerError
	default:
		return http.StatusBadRequest
	}
}

// writeHeavyError maps a heavy-path error to its status, attaching the
// Retry-After header on shed responses so well-behaved clients back off.
func writeHeavyError(w http.ResponseWriter, err error) {
	var shed *shedError
	if errors.As(err, &shed) {
		secs := int(shed.retryAfter.Seconds() + 0.999)
		if secs < 1 {
			secs = 1
		}
		w.Header().Set("Retry-After", strconv.Itoa(secs))
	}
	writeError(w, heavyStatus(err), "%v", err)
}
