package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math/bits"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"graphreorder/internal/graph"
	"graphreorder/internal/obs"
	"graphreorder/internal/server"
)

// RouterConfig configures a scatter-gather Router.
type RouterConfig struct {
	// Placement is the partition map the router routes by.
	Placement *Placement
	// Endpoints[i] lists shard i's member base URLs, primary first; the
	// rest are replicas the router promotes when the primary dies.
	Endpoints [][]string
	// BaseName is the logical snapshot name ("cluster" by default); the
	// per-epoch shard snapshots are named "<BaseName>@<epoch>".
	BaseName string
	// HealthEvery is the health-check period (default 250ms).
	HealthEvery time.Duration
	// Client is the HTTP client for shard calls (default: dedicated
	// client with a generous connection pool).
	Client *http.Client
	// Logger receives structured router logs; nil discards them.
	Logger *slog.Logger
}

// epochState is the immutable record behind the router's atomic epoch
// pointer: the cutover makes exactly one pointer swap, so every request
// sees either the old epoch in full or the new one in full.
type epochState struct {
	epoch    uint64
	snapshot string // shard snapshot name "<base>@<epoch>", pinned on every shard call
	edges    int    // total edges across shards (response metadata)
}

// slot is one shard's member set and its routing state.
type slot struct {
	endpoints  []string
	span       string // this shard's trace span name, "shard<i>"
	active     atomic.Int32
	healthy    atomic.Bool
	promotions atomic.Uint64
	errors     atomic.Uint64
	ackedEpoch atomic.Uint64

	mu        sync.Mutex
	quality   server.QualityInfo
	technique string
	advised   string
	qualityOK bool
}

func (sl *slot) activeEndpoint() string { return sl.endpoints[sl.active.Load()] }

// Router is the cluster front-end: it speaks the graphd wire format,
// fans reads out to shard processes, merges partial answers and carries
// epoch-consistent cutover. See doc.go for the full contract.
type Router struct {
	cfg       RouterConfig
	placement *Placement
	slots     []*slot
	client    *http.Client
	logger    *slog.Logger
	metrics   *routerMetrics
	started   time.Time

	epoch     atomic.Pointer[epochState]
	nextEpoch atomic.Uint64

	fanouts     atomic.Uint64
	shardErrors atomic.Uint64
	// Relax frame bytes the SSSP exchange sent to and received from shards.
	relaxBytesOut atomic.Uint64
	relaxBytesIn  atomic.Uint64

	// ssspMu guards a small per-epoch SSSP result cache: the frontier
	// exchange is the router's only multi-round (expensive) query, and
	// hot sources repeat. Distance vectors are cached, not responses, so
	// any ?target= is answered from one compute.
	ssspMu    sync.Mutex
	ssspEpoch uint64
	sssp      map[graph.VertexID]*ssspEntry

	stopOnce sync.Once
	stop     chan struct{}
	wg       sync.WaitGroup
}

// NewRouter creates a Router and starts its health-check loop.
func NewRouter(cfg RouterConfig) (*Router, error) {
	if cfg.Placement == nil {
		return nil, errors.New("cluster: router needs a placement")
	}
	if len(cfg.Endpoints) != cfg.Placement.Shards {
		return nil, fmt.Errorf("cluster: %d endpoint sets for %d shards", len(cfg.Endpoints), cfg.Placement.Shards)
	}
	for i, eps := range cfg.Endpoints {
		if len(eps) == 0 {
			return nil, fmt.Errorf("cluster: shard %d has no endpoints", i)
		}
	}
	if cfg.BaseName == "" {
		cfg.BaseName = "cluster"
	}
	if cfg.HealthEvery <= 0 {
		cfg.HealthEvery = 250 * time.Millisecond
	}
	if cfg.Logger == nil {
		cfg.Logger = slog.New(slog.DiscardHandler)
	}
	client := cfg.Client
	if client == nil {
		client = &http.Client{Transport: &http.Transport{MaxIdleConns: 64, MaxIdleConnsPerHost: 16}}
	}
	rt := &Router{
		cfg:       cfg,
		placement: cfg.Placement,
		client:    client,
		logger:    cfg.Logger,
		metrics:   newRouterMetrics(),
		started:   time.Now(),
		stop:      make(chan struct{}),
	}
	for i, eps := range cfg.Endpoints {
		sl := &slot{endpoints: append([]string(nil), eps...), span: fmt.Sprintf("shard%d", i)}
		sl.healthy.Store(true)
		rt.slots = append(rt.slots, sl)
	}
	rt.wg.Add(1)
	go rt.healthLoop()
	return rt, nil
}

// Close stops the health loop. In-flight requests finish normally.
func (rt *Router) Close() {
	rt.stopOnce.Do(func() { close(rt.stop) })
	rt.wg.Wait()
}

// Current returns the serving cluster epoch and pinned shard snapshot
// name ("", 0 before the first publish).
func (rt *Router) Current() (uint64, string) {
	es := rt.epoch.Load()
	if es == nil {
		return 0, ""
	}
	return es.epoch, es.snapshot
}

// PublishEpoch runs one epoch-consistent cutover: build snapshot
// "<base>@<E>" on every member of every shard from the given per-shard
// specs (spec[i] for shard i; Name is overridden), wait until every
// member acks the build, then atomically swap the serving epoch. Reads
// keep hitting the previous epoch's snapshots — pinned by name — for
// the whole rollout; the new epoch becomes visible all at once or, on
// error or ctx expiry, not at all.
func (rt *Router) PublishEpoch(ctx context.Context, specs []server.BuildSpec) (uint64, error) {
	if len(specs) != len(rt.slots) {
		return 0, fmt.Errorf("cluster: %d build specs for %d shards", len(specs), len(rt.slots))
	}
	e := rt.nextEpoch.Add(1)
	name := fmt.Sprintf("%s@%d", rt.cfg.BaseName, e)
	for i, sl := range rt.slots {
		spec := specs[i]
		spec.Name = name
		body, err := json.Marshal(spec)
		if err != nil {
			return 0, err
		}
		for _, ep := range sl.endpoints {
			if err := rt.post(ctx, ep+"/v1/snapshots", body, nil); err != nil {
				return 0, fmt.Errorf("cluster: shard %d (%s) build request: %w", i, ep, err)
			}
		}
	}
	// Barrier: every member must ack epoch E before any read sees it.
	edges := 0
	for i, sl := range rt.slots {
		for _, ep := range sl.endpoints {
			info, err := rt.awaitSnapshot(ctx, ep, name)
			if err != nil {
				return 0, fmt.Errorf("cluster: shard %d (%s) never acked epoch %d: %w", i, ep, e, err)
			}
			if ep == sl.activeEndpoint() {
				edges += info.Edges
			}
		}
		sl.ackedEpoch.Store(e)
	}
	rt.epoch.Store(&epochState{epoch: e, snapshot: name, edges: edges})
	rt.ssspMu.Lock()
	rt.ssspEpoch, rt.sssp = e, nil // old epoch's distances are stale
	rt.ssspMu.Unlock()
	rt.logger.Info("cluster epoch published", slog.Uint64("epoch", e), slog.String("snapshot", name))
	return e, nil
}

// awaitSnapshot polls one member until the named snapshot is published,
// failing fast if its build pipeline reports failure. The poll interval
// doubles from 1ms to a 25ms cap, so a fast build costs the barrier its
// build time and not a fixed tick on top.
func (rt *Router) awaitSnapshot(ctx context.Context, ep, name string) (server.SnapshotInfo, error) {
	const maxWait = 25 * time.Millisecond
	for wait := time.Millisecond; ; wait = min(2*wait, maxWait) {
		var info server.SnapshotInfo
		err := rt.get(ctx, ep+"/v1/snapshots/"+name, &info)
		if err == nil {
			return info, nil
		}
		var builds struct {
			Builds []server.BuildStatusInfo `json:"builds"`
		}
		if rt.get(ctx, ep+"/v1/snapshots/builds", &builds) == nil {
			for _, b := range builds.Builds {
				if b.Name == name && b.Stage == "failed" {
					return server.SnapshotInfo{}, fmt.Errorf("build failed: %s", b.Err)
				}
			}
		}
		select {
		case <-ctx.Done():
			return server.SnapshotInfo{}, ctx.Err()
		case <-time.After(wait):
		}
	}
}

// get/post are plain (non-failover) member calls used by the control
// plane (publish, health).
func (rt *Router) get(ctx context.Context, url string, out any) error {
	req, err := http.NewRequestWithContext(ctx, "GET", url, nil)
	if err != nil {
		return err
	}
	return rt.roundTrip(req, out)
}

func (rt *Router) post(ctx context.Context, url string, body []byte, out any) error {
	req, err := http.NewRequestWithContext(ctx, "POST", url, bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	return rt.roundTrip(req, out)
}

func (rt *Router) roundTrip(req *http.Request, out any) error {
	resp, err := rt.client.Do(req)
	if err != nil {
		return err
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return fmt.Errorf("%s %s: reading reply: %w", req.Method, req.URL, err)
	}
	if resp.StatusCode >= 400 {
		return fmt.Errorf("%s %s: %d %s", req.Method, req.URL, resp.StatusCode, strings.TrimSpace(string(raw)))
	}
	if out != nil {
		return json.Unmarshal(raw, out)
	}
	return nil
}

// shardCall issues one data-plane request against shard s with
// per-request failover: members are tried starting at the active one,
// and a member that answers after the active one failed is promoted on
// the spot — routing around a dead shard costs the requests in flight
// nothing but a retry. A reply that breaks off mid-body counts as a
// failed member like a refused connection does. traceID is forwarded as
// X-Trace-Id so the shard adopts the router's trace identity. The reply
// body lands in reply; a non-nil body is sent as a relax frame.
func (rt *Router) shardCall(ctx context.Context, s int, method, pathAndQuery string, body []byte, traceID string, reply *bytes.Buffer) error {
	sl := rt.slots[s]
	start := int(sl.active.Load())
	var lastErr error
	for i := 0; i < len(sl.endpoints); i++ {
		idx := (start + i) % len(sl.endpoints)
		ep := sl.endpoints[idx]
		var rd io.Reader
		if body != nil {
			rd = bytes.NewReader(body)
		}
		req, err := http.NewRequestWithContext(ctx, method, ep+pathAndQuery, rd)
		if err != nil {
			return err
		}
		if body != nil {
			req.Header.Set("Content-Type", "application/octet-stream")
		}
		if traceID != "" {
			req.Header.Set("X-Trace-Id", traceID)
		}
		rt.fanouts.Add(1)
		resp, err := rt.client.Do(req)
		if err == nil {
			reply.Reset()
			_, err = reply.ReadFrom(resp.Body)
			resp.Body.Close()
		}
		if err != nil {
			sl.errors.Add(1)
			rt.shardErrors.Add(1)
			lastErr = err
			if ctx.Err() != nil {
				return ctx.Err()
			}
			continue
		}
		if resp.StatusCode >= 500 {
			sl.errors.Add(1)
			rt.shardErrors.Add(1)
			lastErr = fmt.Errorf("shard %d (%s): %d %s", s, ep, resp.StatusCode, bytes.TrimSpace(reply.Bytes()))
			continue
		}
		if resp.StatusCode >= 400 {
			// Client-owned error: the shard is fine, do not fail over.
			return &shardStatusError{status: resp.StatusCode, body: string(bytes.TrimSpace(reply.Bytes()))}
		}
		if idx != start {
			sl.active.Store(int32(idx))
			sl.promotions.Add(1)
			rt.logger.Warn("shard member promoted",
				slog.Int("shard", s), slog.String("endpoint", ep))
		}
		sl.healthy.Store(true)
		return nil
	}
	sl.healthy.Store(false)
	return fmt.Errorf("cluster: shard %d unavailable: %w", s, lastErr)
}

// shardStatusError carries a shard's 4xx verbatim to the client.
type shardStatusError struct {
	status int
	body   string
}

func (e *shardStatusError) Error() string { return e.body }

// healthLoop probes every shard's active member and fails over to a
// healthy replica when the primary stops answering, so traffic routes
// around a dead shard even between requests. It also refreshes the
// cached per-shard snapshot quality served by /metrics.
func (rt *Router) healthLoop() {
	defer rt.wg.Done()
	tick := time.NewTicker(rt.cfg.HealthEvery)
	defer tick.Stop()
	for {
		select {
		case <-rt.stop:
			return
		case <-tick.C:
		}
		es := rt.epoch.Load()
		for s, sl := range rt.slots {
			ctx, cancel := context.WithTimeout(context.Background(), rt.cfg.HealthEvery)
			ok := rt.probe(ctx, sl, s)
			if ok && es != nil {
				var info server.SnapshotInfo
				if rt.get(ctx, sl.activeEndpoint()+"/v1/snapshots/"+es.snapshot, &info) == nil {
					sl.mu.Lock()
					sl.quality = info.Quality
					sl.technique = info.Technique
					sl.advised = info.Advised
					sl.qualityOK = true
					sl.mu.Unlock()
				}
			}
			cancel()
		}
	}
}

// probe health-checks the slot's active member, promoting a replica if
// it is down. Reports whether any member is healthy.
func (rt *Router) probe(ctx context.Context, sl *slot, s int) bool {
	start := int(sl.active.Load())
	for i := 0; i < len(sl.endpoints); i++ {
		idx := (start + i) % len(sl.endpoints)
		if rt.get(ctx, sl.endpoints[idx]+"/healthz", nil) == nil {
			if idx != start {
				sl.active.Store(int32(idx))
				sl.promotions.Add(1)
				rt.logger.Warn("shard member promoted by health check",
					slog.Int("shard", s), slog.String("endpoint", sl.endpoints[idx]))
			}
			sl.healthy.Store(true)
			return true
		}
	}
	sl.healthy.Store(false)
	return false
}

// ---- HTTP front-end ----

type clusterMeta struct {
	Snapshot string `json:"snapshot"`
	Epoch    uint64 `json:"epoch"`
	Vertices int    `json:"vertices"`
	Edges    int    `json:"edges"`
}

func (rt *Router) metaFor(es *epochState) clusterMeta {
	return clusterMeta{
		Snapshot: es.snapshot,
		Epoch:    es.epoch,
		Vertices: rt.placement.NumVertices,
		Edges:    es.edges,
	}
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, map[string]string{"error": fmt.Sprintf(format, args...)})
}

// Handler returns the router's routing table. It speaks the graphd
// wire format for everything it serves, so graphd clients (and the
// loadtest harness) work against a cluster unchanged.
func (rt *Router) Handler() http.Handler {
	mux := http.NewServeMux()
	route := func(pattern, name string, h http.HandlerFunc) {
		mux.HandleFunc(pattern, rt.instrument(name, h))
	}
	route("GET /healthz", "healthz", rt.handleHealthz)
	route("GET /metrics", "metrics", rt.handleMetrics)
	route("GET /v1/snapshots", "snapshots.list", rt.handleSnapshots)
	route("GET /v1/query/neighbors", "query.neighbors", rt.handleNeighbors)
	route("GET /v1/query/degree", "query.degree", rt.handleDegree)
	route("GET /v1/query/rank", "query.rank", rt.handleRank)
	route("GET /v1/query/topk", "query.topk", rt.handleTopK)
	route("GET /v1/query/sssp", "query.sssp", rt.handleSSSP)
	return mux
}

// serving returns the current epoch state or writes the 503 every
// graphd client already understands.
func (rt *Router) serving(w http.ResponseWriter) *epochState {
	es := rt.epoch.Load()
	if es == nil {
		writeError(w, http.StatusServiceUnavailable, "no cluster epoch published yet")
	}
	return es
}

func (rt *Router) vertexParam(r *http.Request, key string) (graph.VertexID, error) {
	raw := r.URL.Query().Get(key)
	if raw == "" {
		return 0, fmt.Errorf("missing required parameter %q", key)
	}
	v, err := strconv.ParseUint(raw, 10, 32)
	if err != nil {
		return 0, fmt.Errorf("bad %s: %v", key, err)
	}
	if int(v) >= rt.placement.NumVertices {
		return 0, fmt.Errorf("%s=%d out of range [0,%d)", key, v, rt.placement.NumVertices)
	}
	return graph.VertexID(v), nil
}

func (rt *Router) handleHealthz(w http.ResponseWriter, r *http.Request) {
	es := rt.epoch.Load()
	healthy := 0
	for _, sl := range rt.slots {
		if sl.healthy.Load() {
			healthy++
		}
	}
	ok := es != nil && healthy == len(rt.slots)
	status := http.StatusOK
	if !ok {
		status = http.StatusServiceUnavailable
	}
	body := map[string]any{
		"ok":             ok,
		"role":           "router",
		"shards":         len(rt.slots),
		"healthy_shards": healthy,
		"uptime_seconds": time.Since(rt.started).Seconds(),
	}
	if es != nil {
		body["epoch"] = es.epoch
		body["snapshot"] = es.snapshot
	}
	writeJSON(w, status, body)
}

func (rt *Router) handleSnapshots(w http.ResponseWriter, r *http.Request) {
	es := rt.epoch.Load()
	snaps := []map[string]any{}
	if es != nil {
		snaps = append(snaps, map[string]any{
			"name":      es.snapshot,
			"epoch":     es.epoch,
			"current":   true,
			"vertices":  rt.placement.NumVertices,
			"edges":     es.edges,
			"technique": "cluster:" + rt.placement.Strategy,
			"source":    fmt.Sprintf("cluster:%d-shards", rt.placement.Shards),
		})
	}
	writeJSON(w, http.StatusOK, map[string]any{"snapshots": snaps})
}

// shardsFor returns the shard set a per-vertex read must consult:
// out-direction reads go to the shards holding v's out-edges, anything
// touching in-edges must ask everyone (in-edges of v live wherever
// their source's out-edges were placed).
func (rt *Router) shardsFor(v graph.VertexID, allShards bool) []int {
	if allShards {
		out := make([]int, len(rt.slots))
		for i := range out {
			out[i] = i
		}
		return out
	}
	return rt.placement.HomesOf(v)
}

// fanout issues one GET against every listed shard concurrently and
// decodes each response into outs[i]. The trace gets one accumulated
// "fanout" span plus a per-shard breakdown span; errors abort the whole
// query (a partial merge would be a silently wrong answer).
func (rt *Router) fanout(ctx context.Context, tr *obs.Trace, shards []int, pathAndQuery string, outs []any) error {
	start := time.Now()
	defer tr.Accumulate("fanout", start)
	errs := make([]error, len(shards))
	var wg sync.WaitGroup
	for i, s := range shards {
		wg.Add(1)
		go func(i, s int) {
			defer wg.Done()
			shardStart := time.Now()
			var reply bytes.Buffer
			errs[i] = rt.shardCall(ctx, s, "GET", pathAndQuery, nil, tr.IDString(), &reply)
			if errs[i] == nil {
				errs[i] = json.Unmarshal(reply.Bytes(), outs[i])
			}
			tr.Accumulate(rt.slots[s].span, shardStart)
		}(i, s)
	}
	wg.Wait()
	return errors.Join(errs...)
}

func writeShardError(w http.ResponseWriter, err error) {
	var se *shardStatusError
	if errors.As(err, &se) {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(se.status)
		io.WriteString(w, se.body+"\n")
		return
	}
	if errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled) {
		writeError(w, http.StatusGatewayTimeout, "%v", err)
		return
	}
	writeError(w, http.StatusBadGateway, "%v", err)
}

type shardNeighbors struct {
	Degree    int              `json:"degree"`
	Truncated bool             `json:"truncated"`
	Neighbors []graph.VertexID `json:"neighbors"`
}

func (rt *Router) handleNeighbors(w http.ResponseWriter, r *http.Request) {
	es := rt.serving(w)
	if es == nil {
		return
	}
	v, err := rt.vertexParam(r, "v")
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	dir := r.URL.Query().Get("dir")
	if dir == "" {
		dir = "out"
	}
	limit, _ := strconv.Atoi(r.URL.Query().Get("limit"))
	shards := rt.shardsFor(v, dir != "out")
	q := fmt.Sprintf("/v1/query/neighbors?snapshot=%s&ids=orig&v=%d&dir=%s", es.snapshot, v, dir)
	if limit > 0 {
		// Each shard's list is ascending, so the merged first `limit`
		// need only each shard's first `limit`.
		q += fmt.Sprintf("&limit=%d", limit)
	}
	parts := make([]shardNeighbors, len(shards))
	outs := make([]any, len(shards))
	for i := range parts {
		outs[i] = &parts[i]
	}
	tr := obs.FromContext(r.Context())
	if err := rt.fanout(r.Context(), tr, shards, q, outs); err != nil {
		writeShardError(w, err)
		return
	}
	mergeStart := time.Now()
	degree, truncated := 0, false
	merged := []graph.VertexID{}
	for _, p := range parts {
		degree += p.Degree
		truncated = truncated || p.Truncated
		merged = append(merged, p.Neighbors...)
	}
	sort.Slice(merged, func(i, j int) bool { return merged[i] < merged[j] })
	if limit > 0 && len(merged) > limit {
		merged = merged[:limit]
		truncated = true
	}
	tr.Observe("merge", mergeStart)
	writeJSON(w, http.StatusOK, map[string]any{
		"snapshot": es.snapshot, "epoch": es.epoch,
		"vertices": rt.placement.NumVertices, "edges": es.edges,
		"vertex": v, "dir": dir, "degree": degree,
		"truncated": truncated, "neighbors": merged,
	})
}

func (rt *Router) handleDegree(w http.ResponseWriter, r *http.Request) {
	es := rt.serving(w)
	if es == nil {
		return
	}
	v, err := rt.vertexParam(r, "v")
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	kind := r.URL.Query().Get("kind")
	if kind == "" {
		kind = "out"
	}
	shards := rt.shardsFor(v, kind != "out")
	q := fmt.Sprintf("/v1/query/degree?snapshot=%s&ids=orig&v=%d&kind=%s", es.snapshot, v, kind)
	parts := make([]struct {
		Degree int `json:"degree"`
	}, len(shards))
	outs := make([]any, len(shards))
	for i := range parts {
		outs[i] = &parts[i]
	}
	tr := obs.FromContext(r.Context())
	if err := rt.fanout(r.Context(), tr, shards, q, outs); err != nil {
		writeShardError(w, err)
		return
	}
	degree := 0
	for _, p := range parts {
		degree += p.Degree
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"snapshot": es.snapshot, "epoch": es.epoch,
		"vertices": rt.placement.NumVertices, "edges": es.edges,
		"vertex": v, "kind": kind, "degree": degree,
	})
}

func (rt *Router) handleRank(w http.ResponseWriter, r *http.Request) {
	es := rt.serving(w)
	if es == nil {
		return
	}
	v, err := rt.vertexParam(r, "v")
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	// Rank lookups have exactly one authority: the owner shard.
	owner := rt.placement.OwnerOf(v)
	var part struct {
		Rank  float64 `json:"rank"`
		Iters int     `json:"iters"`
	}
	tr := obs.FromContext(r.Context())
	q := fmt.Sprintf("/v1/query/rank?snapshot=%s&ids=orig&v=%d", es.snapshot, v)
	if err := rt.fanout(r.Context(), tr, []int{owner}, q, []any{&part}); err != nil {
		writeShardError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"snapshot": es.snapshot, "epoch": es.epoch,
		"vertices": rt.placement.NumVertices, "edges": es.edges,
		"vertex": v, "rank": part.Rank, "iters": part.Iters,
	})
}

type rankedVertex struct {
	Vertex graph.VertexID `json:"vertex"`
	Rank   float64        `json:"rank"`
}

func (rt *Router) handleTopK(w http.ResponseWriter, r *http.Request) {
	es := rt.serving(w)
	if es == nil {
		return
	}
	k, err := strconv.Atoi(r.URL.Query().Get("k"))
	if r.URL.Query().Get("k") == "" {
		k, err = 10, nil
	}
	if err != nil || k < 1 || k > 10000 {
		writeError(w, http.StatusBadRequest, "bad k (want 1..10000)")
		return
	}
	// Every shard returns its owned top-k; the owned sets partition the
	// vertices, so the global top-k is exactly the k best of the union.
	shards := rt.shardsFor(0, true)
	q := fmt.Sprintf("/v1/query/topk?snapshot=%s&ids=orig&k=%d", es.snapshot, k)
	parts := make([]struct {
		Top []rankedVertex `json:"top"`
	}, len(shards))
	outs := make([]any, len(shards))
	for i := range parts {
		outs[i] = &parts[i]
	}
	tr := obs.FromContext(r.Context())
	if err := rt.fanout(r.Context(), tr, shards, q, outs); err != nil {
		writeShardError(w, err)
		return
	}
	mergeStart := time.Now()
	merged := []rankedVertex{}
	for _, p := range parts {
		merged = append(merged, p.Top...)
	}
	// Highest rank first, lower original ID on ties: the single-node
	// orig-space order.
	sort.Slice(merged, func(i, j int) bool {
		if merged[i].Rank != merged[j].Rank {
			return merged[i].Rank > merged[j].Rank
		}
		return merged[i].Vertex < merged[j].Vertex
	})
	if len(merged) > k {
		merged = merged[:k]
	}
	tr.Observe("merge", mergeStart)
	writeJSON(w, http.StatusOK, map[string]any{
		"snapshot": es.snapshot, "epoch": es.epoch,
		"vertices": rt.placement.NumVertices, "edges": es.edges,
		"k": k, "top": merged,
	})
}

// maxSSSPRounds bounds the frontier exchange; positive weights make
// Bellman-Ford converge in < n rounds, this just turns a broken shard
// answer into an error instead of an infinite loop.
const maxSSSPRounds = 1 << 20

// ssspInf marks "unreached" in router-side distance vectors.
const ssspInf = server.RelaxInf

// ssspEntry is one cached source's distances; once collapses concurrent
// requests for the same source onto a single frontier exchange.
type ssspEntry struct {
	once   sync.Once
	dist   []int64
	rounds int
	err    error
}

// clusterSSSP returns the distance vector from src at epoch es, from
// cache or by running the scatter-gather frontier exchange (at most one
// compute per source, concurrent callers coalesce). Failed computes are
// evicted so the next request retries.
func (rt *Router) clusterSSSP(es *epochState, src graph.VertexID, tr *obs.Trace) ([]int64, int, error) {
	const maxCachedSources = 16
	rt.ssspMu.Lock()
	if rt.ssspEpoch != es.epoch {
		rt.ssspEpoch, rt.sssp = es.epoch, nil
	}
	if rt.sssp == nil {
		rt.sssp = make(map[graph.VertexID]*ssspEntry)
	}
	ent := rt.sssp[src]
	cache := ent != nil || len(rt.sssp) < maxCachedSources
	if ent == nil {
		ent = &ssspEntry{}
		if cache {
			rt.sssp[src] = ent
		}
	}
	rt.ssspMu.Unlock()
	ent.once.Do(func() {
		// Detach from the leader's request context: a coalesced compute
		// must not die with whichever client happened to start it.
		//lint:allow ctxflow coalesced SSSP outlives the request that triggered it
		ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
		defer cancel()
		ent.dist, ent.rounds, ent.err = rt.runSSSP(ctx, es, src, tr)
	})
	if ent.err != nil && cache {
		rt.ssspMu.Lock()
		if rt.sssp[src] == ent {
			delete(rt.sssp, src)
		}
		rt.ssspMu.Unlock()
	}
	return ent.dist, ent.rounds, ent.err
}

// relaxLeg is one shard's side of the frontier exchange; runSSSP keeps
// one per shard for the whole query, so rounds reuse its buffers.
type relaxLeg struct {
	req, resp server.RelaxFrame
	body      []byte       // req encoded
	reply     bytes.Buffer // the shard's answer, resp encoded
	err       error
}

// runSSSP is the router half of the distributed Bellman-Ford: it owns
// the distance vector and the frontier, each round scatters to every
// shard the frontier vertices whose out-edges it holds (POST
// /v1/shard/relax, one RelaxFrame each way), and gathers the shards'
// relaxation candidates, keeping improvements as the next frontier.
// Shards are stateless: everything a round needs travels in its frame.
// Distances are exact; the round count depends on the scatter schedule
// and is excluded from the cluster-vs-single-node equivalence contract.
func (rt *Router) runSSSP(ctx context.Context, es *epochState, src graph.VertexID, tr *obs.Trace) ([]int64, int, error) {
	p := rt.placement
	n := p.NumVertices
	dist := make([]int64, n)
	for i := range dist {
		dist[i] = ssspInf
	}
	dist[src] = 0
	frontier := []graph.VertexID{src}   // ascending
	queued := make([]uint64, (n+63)/64) // bitset: improved this round
	legs := make([]relaxLeg, p.Shards)
	path := "/v1/shard/relax?snapshot=" + es.snapshot
	traceID := tr.IDString()
	rounds := 0
	for len(frontier) > 0 {
		rounds++
		if rounds > maxSSSPRounds {
			return nil, 0, fmt.Errorf("sssp did not converge after %d rounds", maxSSSPRounds)
		}
		// Scatter: each shard gets the frontier vertices it homes.
		fanStart := time.Now()
		for s := range legs {
			legs[s].req.IDs, legs[s].req.Dists = legs[s].req.IDs[:0], legs[s].req.Dists[:0]
		}
		for _, v := range frontier {
			for homes := p.Homes[v]; homes != 0; homes &= homes - 1 {
				req := &legs[bits.TrailingZeros64(homes)].req
				req.IDs = append(req.IDs, v)
				req.Dists = append(req.Dists, dist[v])
			}
		}
		var wg sync.WaitGroup
		for s := range legs {
			leg := &legs[s]
			if len(leg.req.IDs) == 0 {
				continue
			}
			leg.body = leg.req.AppendTo(leg.body[:0])
			wg.Add(1)
			go func() {
				defer wg.Done()
				shardStart := time.Now()
				leg.err = rt.shardCall(ctx, s, "POST", path, leg.body, traceID, &leg.reply)
				if leg.err == nil {
					if err := leg.resp.Decode(leg.reply.Bytes(), n); err != nil {
						leg.err = fmt.Errorf("cluster: shard %d: %w", s, err)
					}
				}
				tr.Accumulate(rt.slots[s].span, shardStart)
			}()
		}
		wg.Wait()
		tr.Accumulate("fanout", fanStart)
		// Gather: fold candidates into dist, queueing each improved vertex
		// once; sweeping the queue yields the next frontier ascending.
		mergeStart := time.Now()
		var sent, received, relaxed uint64
		for s := range legs {
			leg := &legs[s]
			if len(leg.req.IDs) == 0 {
				continue
			}
			if leg.err != nil {
				return nil, 0, leg.err
			}
			sent += uint64(len(leg.body))
			received += uint64(leg.reply.Len())
			relaxed += leg.resp.Relaxed
			for i, v := range leg.resp.IDs {
				if d := leg.resp.Dists[i]; d < dist[v] {
					dist[v] = d
					queued[v>>6] |= 1 << (v & 63)
				}
			}
		}
		frontier = frontier[:0]
		for w, word := range queued {
			if word == 0 {
				continue
			}
			queued[w] = 0
			for ; word != 0; word &= word - 1 {
				frontier = append(frontier, graph.VertexID(w<<6+bits.TrailingZeros64(word)))
			}
		}
		rt.relaxBytesOut.Add(sent)
		rt.relaxBytesIn.Add(received)
		tr.AddWire(sent, received)
		tr.Accumulate("merge", mergeStart)
		tr.Round(relaxed)
	}
	return dist, rounds, nil
}

func (rt *Router) handleSSSP(w http.ResponseWriter, r *http.Request) {
	es := rt.serving(w)
	if es == nil {
		return
	}
	src, err := rt.vertexParam(r, "src")
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	var target graph.VertexID
	hasTarget := r.URL.Query().Get("target") != ""
	if hasTarget {
		if target, err = rt.vertexParam(r, "target"); err != nil {
			writeError(w, http.StatusBadRequest, "%v", err)
			return
		}
	}
	tr := obs.FromContext(r.Context())
	n := rt.placement.NumVertices
	dist, rounds, err := rt.clusterSSSP(es, src, tr)
	if err != nil {
		writeShardError(w, err)
		return
	}
	reached, unreachable, maxDist := 0, 0, int64(0)
	for _, d := range dist {
		if d == ssspInf {
			unreachable++
		} else {
			reached++
			if d > maxDist {
				maxDist = d
			}
		}
	}
	res := map[string]any{
		"snapshot": es.snapshot, "epoch": es.epoch,
		"vertices": n, "edges": es.edges,
		"source": src, "rounds": rounds,
		"reached": reached, "unreachable": unreachable,
		"max_distance": maxDist,
	}
	if hasTarget {
		res["target"] = target
		reachable := dist[target] != ssspInf
		res["reachable"] = reachable
		var d int64
		if reachable {
			d = dist[target]
		}
		res["distance"] = d
	}
	writeJSON(w, http.StatusOK, res)
}
