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
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"graphreorder/internal/apps"
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

// epochState is the record behind the router's atomic epoch pointer: the
// cutover makes exactly one pointer swap, so every request sees either
// the old epoch in full or the new one in full. Identity (epoch,
// snapshot, edges) never changes after the swap; everything else that is
// per-epoch — the reply cache, the reference count the retirement waits
// on — lives here too, guarded on its own, and is
// reachable only through the epochState a request acquired. So nothing
// cached can answer across epochs, and retiring an epoch needs no
// invalidation pass: the swap drops the only path to its caches.
type epochState struct {
	epoch    uint64
	snapshot string // shard snapshot name "<base>@<epoch>", pinned on every shard call
	edges    int    // total edges across shards (response metadata)

	// refs counts the holders pinning this epoch's snapshots on the
	// members: one for being the serving epoch (released by the publish
	// that supersedes it), one per request in flight, one per running
	// compute. It only ever reaches zero once, after the epoch was
	// superseded; whoever takes it there retires the epoch.
	refs atomic.Int64

	// replies holds the encoded 200 bodies of the point routes, keyed by
	// the handler's parsed parameters, and the SSSP results, keyed by
	// source: a summary for a query without a target, the distance vector
	// for one with (see read).
	replies *server.ResultCache
}

// replyCacheBytes is each epoch's reply-cache budget. A point reply or an
// SSSP summary is under 1 KiB and an SSSP vector bit-packed at the width
// its largest distance needs (the node's DistVector: 8 to 9 bits per
// vertex on sd), so this holds tens of thousands of distinct hot reads
// beside hundreds of hot target sources of a graph of 100K vertices; a
// vector past the whole budget is not cached. A cutover leaves at most the old
// epoch's cache beside the new one until the old epoch drains.
const replyCacheBytes = 32 << 20

func newEpochState(epoch uint64, snapshot string, edges int) *epochState {
	es := &epochState{
		epoch:    epoch,
		snapshot: snapshot,
		edges:    edges,
		replies:  server.NewResultCache(replyCacheBytes),
	}
	es.refs.Store(1) // the serving reference
	return es
}

// acquire takes a reference unless the epoch already drained; a drained
// epoch's snapshots may be gone from the members, so it is never revived.
func (es *epochState) acquire() bool {
	for {
		n := es.refs.Load()
		if n == 0 {
			return false
		}
		if es.refs.CompareAndSwap(n, n+1) {
			return true
		}
	}
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
	allShards []int // 0..len(slots)-1, the fan-out set of reads that touch in-edges
	client    *http.Client
	logger    *slog.Logger
	metrics   *obs.MetricsSet
	flights   *server.FlightGroup // reads in flight, keyed "<epoch>|<reply-cache key>"
	started   time.Time

	epoch     atomic.Pointer[epochState]
	nextEpoch atomic.Uint64
	// publishMu admits one rollout at a time, so epochs become the
	// serving one in the order they were numbered.
	publishMu sync.Mutex
	// retireMu orders a cutover's swap against a retirement's sweep and
	// guards superseded, the epochs swapped out but not yet drained.
	retireMu   sync.Mutex
	superseded []*epochState

	fanouts atomic.Uint64
	// Relax frame bytes the SSSP exchange sent to and received from shards.
	relaxBytesOut atomic.Uint64
	relaxBytesIn  atomic.Uint64
	// Reply-cache lookups across all epochs, and the retirement's tally.
	cacheHits     atomic.Uint64
	cacheMisses   atomic.Uint64
	epochsRetired atomic.Uint64
	retireErrors  atomic.Uint64

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
		metrics:   obs.NewMetricsSet(),
		flights:   server.NewFlightGroup(),
		started:   time.Now(),
		stop:      make(chan struct{}),
	}
	for i, eps := range cfg.Endpoints {
		sl := &slot{endpoints: append([]string(nil), eps...), span: fmt.Sprintf("shard%d", i)}
		sl.healthy.Store(true)
		rt.slots = append(rt.slots, sl)
		rt.allShards = append(rt.allShards, i)
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
// error or ctx expiry, not at all. The epoch it supersedes is retired
// (see retire) before PublishEpoch returns, unless a request still pins
// it; a retirement that fails is counted, never reported as a failed
// publish.
func (rt *Router) PublishEpoch(ctx context.Context, specs []server.BuildSpec) (uint64, error) {
	if len(specs) != len(rt.slots) {
		return 0, fmt.Errorf("cluster: %d build specs for %d shards", len(specs), len(rt.slots))
	}
	rt.publishMu.Lock()
	defer rt.publishMu.Unlock()
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
	next := newEpochState(e, name, edges)
	rt.retireMu.Lock()
	old := rt.epoch.Swap(next)
	if old != nil {
		rt.superseded = append(rt.superseded, old)
	}
	rt.retireMu.Unlock()
	rt.logger.Info("cluster epoch published", slog.Uint64("epoch", e), slog.String("snapshot", name))
	if old != nil {
		rt.release(old) // the serving reference
	}
	return e, nil
}

// release drops one reference to es. The last one out of a superseded
// epoch retires it, on the releasing goroutine: a cutover with nothing
// in flight has retired the old epoch when PublishEpoch returns, a
// request that outlived its epoch retires it as it returns.
func (rt *Router) release(es *epochState) {
	if es.refs.Add(-1) == 0 {
		rt.retire(es)
	}
}

// retire runs once per epoch, when it is superseded and drained. It makes
// the members follow the cluster — each activates the serving epoch, so
// its own "current" is never an epoch the router has left — and then
// sweeps them: every "<base>@k" a member lists with k below the serving
// epoch goes, unless an undrained epoch still pins it. Sweeping by
// listing also collects what earlier retirements missed and what failed
// publishes left half-built. Best effort: a member that cannot be
// reached is counted and swept again by the next retirement.
func (rt *Router) retire(dead *epochState) {
	// The releasing request may be long gone; the sweep is the router's.
	//lint:allow ctxflow retirement outlives the request that released the last reference
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	rt.retireMu.Lock()
	defer rt.retireMu.Unlock()
	serving := rt.epoch.Load()
	pinned := make(map[string]bool)
	var undrained []*epochState
	for _, es := range rt.superseded {
		if es.refs.Load() > 0 {
			pinned[es.snapshot] = true
			undrained = append(undrained, es)
		}
	}
	rt.superseded = undrained

	var dropped, failed uint64
	for _, sl := range rt.slots {
		for _, ep := range sl.endpoints {
			if err := rt.post(ctx, ep+"/v1/snapshots/"+serving.snapshot+"/activate", nil, nil); err != nil {
				failed++
			}
			var list struct {
				Snapshots []server.SnapshotInfo `json:"snapshots"`
			}
			if err := rt.get(ctx, ep+"/v1/snapshots", &list); err != nil {
				failed++
				continue
			}
			for _, snap := range list.Snapshots {
				k, ours := rt.epochOf(snap.Name)
				if !ours || k >= serving.epoch || pinned[snap.Name] {
					continue
				}
				if err := rt.call(ctx, "DELETE", ep+"/v1/snapshots/"+snap.Name, nil, nil); err != nil {
					failed++
					continue
				}
				dropped++
			}
		}
	}
	rt.epochsRetired.Add(1)
	rt.retireErrors.Add(failed)
	rt.logger.Info("cluster epoch retired", slog.Uint64("epoch", dead.epoch),
		slog.Uint64("snapshots_dropped", dropped), slog.Uint64("member_errors", failed))
}

// epochOf parses a member snapshot name of the form "<base>@<k>".
func (rt *Router) epochOf(name string) (uint64, bool) {
	suffix, ok := strings.CutPrefix(name, rt.cfg.BaseName+"@")
	if !ok {
		return 0, false
	}
	k, err := strconv.ParseUint(suffix, 10, 64)
	return k, err == nil
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

// call is a plain (non-failover) member call, used by the control plane
// (publish, retire, health); get and post are its common shapes.
func (rt *Router) call(ctx context.Context, method, url string, body []byte, out any) error {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, url, rd)
	if err != nil {
		return err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	return rt.roundTrip(req, out)
}

func (rt *Router) get(ctx context.Context, url string, out any) error {
	return rt.call(ctx, "GET", url, nil, out)
}

func (rt *Router) post(ctx context.Context, url string, body []byte, out any) error {
	return rt.call(ctx, "POST", url, body, out)
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
			lastErr = err
			if ctx.Err() != nil {
				return ctx.Err()
			}
			continue
		}
		if resp.StatusCode >= 500 {
			sl.errors.Add(1)
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

func (rt *Router) metaFor(es *epochState) server.QueryMeta {
	return server.QueryMeta{
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
	// The same front door a node mounts, with no sampler, slow ring or
	// request log: the router's only detailed traces are ?debug=trace.
	in := &obs.Instrument{Metrics: rt.metrics}
	route := func(pattern, name string, h http.HandlerFunc) {
		mux.HandleFunc(pattern, in.Wrap(name, h))
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

// serving pins the serving epoch for one request, or writes the 503 every
// graphd client already understands. The caller releases what it gets.
// An epoch that drained between the load and the acquire has been
// superseded, so the retry finds its successor.
func (rt *Router) serving(w http.ResponseWriter) *epochState {
	for {
		es := rt.epoch.Load()
		if es == nil {
			writeError(w, http.StatusServiceUnavailable, "no cluster epoch published yet")
			return nil
		}
		if es.acquire() {
			return es
		}
	}
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
		return rt.allShards
	}
	return rt.placement.HomesOf(v)
}

// fanout issues one GET against every listed shard and decodes each
// reply into its element of the result. The first shard is asked on the
// caller's goroutine and only the others get one of their own, so a read
// with a single authority (a rank, the out-edges of an unreplicated
// vertex) costs no goroutine at all. The trace gets one accumulated
// "fanout" span plus a per-shard breakdown span; errors abort the whole
// query (a partial merge would be a silently wrong answer).
func fanout[T any](ctx context.Context, rt *Router, shards []int, pathAndQuery string) ([]T, error) {
	tr := obs.FromContext(ctx)
	start := time.Now()
	defer tr.Accumulate("fanout", start)
	parts := make([]T, len(shards))
	errs := make([]error, len(shards))
	ask := func(i int) {
		shardStart := time.Now()
		var reply bytes.Buffer
		errs[i] = rt.shardCall(ctx, shards[i], "GET", pathAndQuery, nil, tr.IDString(), &reply)
		if errs[i] == nil {
			errs[i] = json.Unmarshal(reply.Bytes(), &parts[i])
		}
		tr.Accumulate(rt.slots[shards[i]].span, shardStart)
	}
	var wg sync.WaitGroup
	for i := 1; i < len(shards); i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ask(i)
		}()
	}
	ask(0)
	wg.Wait()
	return parts, errors.Join(errs...)
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

// pointKey renders a read's parsed parameters as its reply-cache key:
// the route's letter, the number (vertex, k or source), and whatever
// else the route takes. Parsed, not raw — "?v=1&dir=out", "?dir=out&v=1"
// and "?v=01" are one entry.
func pointKey(route byte, num uint64, rest ...string) string {
	var buf [48]byte
	key := strconv.AppendUint(append(buf[:0], route), num, 10)
	for _, s := range rest {
		key = append(append(key, '|'), s...)
	}
	return string(key)
}

// computeTimeout bounds a compute behind read, which runs detached from
// the request that started it.
const computeTimeout = 120 * time.Second

// read is the router's one read path, the node's heavy path minus its
// pool: the epoch's reply cache, then the flight group, so concurrent
// misses of one key share one compute, then compute itself. compute
// returns the value to cache and its payload size. It runs on its own
// goroutine under computeTimeout, detached from the leader's request but
// carrying its trace, and pins the epoch on its own account: it answers
// every caller that coalesced onto it, whichever returns first. A failed
// compute is not cached, so the next request retries; a caller whose
// context ends stops waiting with the context's error. hit reports a
// cache hit. The entries of also's keys answer the read too (a summary
// SSSP reads a cached vector); compute's value is cached under key.
func (rt *Router) read(ctx context.Context, es *epochState, key string, compute func(ctx context.Context) (any, int64, error), also ...string) (v any, hit bool, err error) {
	tr := obs.FromContext(ctx)
	lookup := time.Now()
	v, hit = es.replies.Get(key, also...)
	tr.Observe("cache", lookup)
	if hit {
		rt.cacheHits.Add(1)
		return v, true, nil
	}
	rt.cacheMisses.Add(1)
	flightStart := time.Now()
	es.refs.Add(1) // the compute's pin; the caller's own keeps the count above zero
	call, leader := rt.flights.Do(strconv.FormatUint(es.epoch, 10)+"|"+key, func() (any, error) {
		defer rt.release(es)
		// A leader that starts after the previous one stored its value and
		// left the flight finds it here instead of computing twice.
		if val, ok := es.replies.Get(key, also...); ok {
			return val, nil
		}
		//lint:allow ctxflow a coalesced compute outlives the request that started it
		cctx, cancel := context.WithTimeout(obs.WithTrace(context.Background(), tr), computeTimeout)
		defer cancel()
		val, cost, err := compute(cctx)
		if err == nil {
			// A store that loses the race with a cutover lands in the dead
			// epoch's cache and dies with it.
			es.replies.Add(key, val, server.EntryCost(key, "", cost))
		}
		return val, err
	})
	if !leader {
		rt.release(es)
	}
	select {
	case <-call.Done():
		if !leader {
			tr.Observe("flight", flightStart)
		}
		v, err = call.Result()
		return v, false, err
	case <-ctx.Done():
		return nil, false, ctx.Err()
	}
}

// point answers a point read with its encoded 200 body, which read
// caches: an epoch is immutable, so the bytes of a hit are the bytes the
// miss sent and only the X-Cache header tells them apart. Nothing about
// one request's trace is cached: ?debug=trace wraps the same bytes
// outside.
func (rt *Router) point(w http.ResponseWriter, r *http.Request, es *epochState, key string, merge func(ctx context.Context) (any, error)) {
	body, hit, err := rt.read(r.Context(), es, key, func(ctx context.Context) (any, int64, error) {
		reply, err := merge(ctx)
		if err != nil {
			return nil, 0, err
		}
		enc, err := json.Marshal(reply)
		if err != nil {
			return nil, 0, err
		}
		enc = append(enc, '\n')
		return enc, int64(len(enc)), nil
	})
	if err != nil {
		writeShardError(w, err)
		return
	}
	mark := "miss"
	if hit {
		mark = "hit"
	}
	w.Header().Set("X-Cache", mark)
	w.Header().Set("Content-Type", "application/json")
	w.Write(body.([]byte))
}

func (rt *Router) handleNeighbors(w http.ResponseWriter, r *http.Request) {
	es := rt.serving(w)
	if es == nil {
		return
	}
	defer rt.release(es)
	q := r.URL.Query()
	v, err := server.VertexParam(q, "v", rt.placement.NumVertices)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	dir := q.Get("dir")
	if dir == "" {
		dir = "out"
	}
	limit := 0
	if raw := q.Get("limit"); raw != "" {
		if limit, err = strconv.Atoi(raw); err != nil {
			writeError(w, http.StatusBadRequest, "bad limit: %v", err)
			return
		}
		limit = max(limit, 0)
	}
	rt.point(w, r, es, pointKey('n', uint64(v), dir, strconv.Itoa(limit)), func(ctx context.Context) (any, error) {
		path := fmt.Sprintf("/v1/query/neighbors?snapshot=%s&ids=orig&v=%d&dir=%s", es.snapshot, v, dir)
		if limit > 0 {
			// Each shard's list is ascending, so the merged first `limit`
			// need only each shard's first `limit`.
			path += fmt.Sprintf("&limit=%d", limit)
		}
		parts, err := fanout[server.NeighborsResult](ctx, rt, rt.shardsFor(v, dir != "out"), path)
		if err != nil {
			return nil, err
		}
		mergeStart := time.Now()
		reply := server.NeighborsResult{QueryMeta: rt.metaFor(es), Vertex: v, Dir: dir, Neighbors: []graph.VertexID{}}
		for _, p := range parts {
			reply.Degree += p.Degree
			reply.Truncated = reply.Truncated || p.Truncated
			reply.Neighbors = append(reply.Neighbors, p.Neighbors...)
		}
		slices.Sort(reply.Neighbors)
		if limit > 0 && len(reply.Neighbors) > limit {
			reply.Neighbors = reply.Neighbors[:limit]
			reply.Truncated = true
		}
		obs.FromContext(ctx).Observe("merge", mergeStart)
		return reply, nil
	})
}

func (rt *Router) handleDegree(w http.ResponseWriter, r *http.Request) {
	es := rt.serving(w)
	if es == nil {
		return
	}
	defer rt.release(es)
	q := r.URL.Query()
	v, err := server.VertexParam(q, "v", rt.placement.NumVertices)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	kind := q.Get("kind")
	if kind == "" {
		kind = "out"
	}
	rt.point(w, r, es, pointKey('d', uint64(v), kind), func(ctx context.Context) (any, error) {
		path := fmt.Sprintf("/v1/query/degree?snapshot=%s&ids=orig&v=%d&kind=%s", es.snapshot, v, kind)
		parts, err := fanout[server.DegreeResult](ctx, rt, rt.shardsFor(v, kind != "out"), path)
		if err != nil {
			return nil, err
		}
		reply := server.DegreeResult{QueryMeta: rt.metaFor(es), Vertex: v, Kind: kind}
		for _, p := range parts {
			reply.Degree += p.Degree
		}
		return reply, nil
	})
}

func (rt *Router) handleRank(w http.ResponseWriter, r *http.Request) {
	es := rt.serving(w)
	if es == nil {
		return
	}
	defer rt.release(es)
	v, err := server.VertexParam(r.URL.Query(), "v", rt.placement.NumVertices)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	rt.point(w, r, es, pointKey('r', uint64(v)), func(ctx context.Context) (any, error) {
		// Rank lookups have exactly one authority: the owner shard.
		path := fmt.Sprintf("/v1/query/rank?snapshot=%s&ids=orig&v=%d", es.snapshot, v)
		parts, err := fanout[server.RankResult](ctx, rt, []int{rt.placement.OwnerOf(v)}, path)
		if err != nil {
			return nil, err
		}
		reply := parts[0]
		reply.QueryMeta = rt.metaFor(es)
		return reply, nil
	})
}

func (rt *Router) handleTopK(w http.ResponseWriter, r *http.Request) {
	es := rt.serving(w)
	if es == nil {
		return
	}
	defer rt.release(es)
	k := 10
	if raw := r.URL.Query().Get("k"); raw != "" {
		var err error
		if k, err = strconv.Atoi(raw); err != nil || k < 1 || k > 10000 {
			writeError(w, http.StatusBadRequest, "bad k (want 1..10000)")
			return
		}
	}
	rt.point(w, r, es, pointKey('t', uint64(k)), func(ctx context.Context) (any, error) {
		// Every shard returns its owned top-k; the owned sets partition the
		// vertices, so the global top-k is exactly the k best of the union.
		path := fmt.Sprintf("/v1/query/topk?snapshot=%s&ids=orig&k=%d", es.snapshot, k)
		parts, err := fanout[server.TopKResult](ctx, rt, rt.allShards, path)
		if err != nil {
			return nil, err
		}
		mergeStart := time.Now()
		merged := []server.RankedVertex{}
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
		obs.FromContext(ctx).Observe("merge", mergeStart)
		return server.TopKResult{QueryMeta: rt.metaFor(es), K: k, Top: merged}, nil
	})
}

// maxSSSPRounds bounds the frontier exchange; positive weights make
// Bellman-Ford converge in < n rounds, this just turns a broken shard
// answer into an error instead of an infinite loop.
const maxSSSPRounds = 1 << 20

// sssp returns the distances from src at epoch es through read, cached
// as the node caches a target query's: bit-packed at the width the
// largest distance needs, with the summary computed once, so any
// ?target= is answered from one exchange.
func (rt *Router) sssp(ctx context.Context, es *epochState, src graph.VertexID) (server.SSSPDistances, error) {
	v, _, err := rt.read(ctx, es, pointKey('s', uint64(src)), func(ctx context.Context) (any, int64, error) {
		dist, rounds, err := rt.runSSSP(ctx, es, src)
		if err != nil {
			return nil, 0, err
		}
		d := server.NewSSSPDistances(dist, rounds)
		return d, d.Dist.Bytes(), nil
	})
	if err != nil {
		return server.SSSPDistances{}, err
	}
	return v.(server.SSSPDistances), nil
}

// ssspSummary returns the summary of an SSSP from src at epoch es, as
// the node answers a query without a target: from a cached vector of the
// epoch when there is one, else computed and cached without the vector.
func (rt *Router) ssspSummary(ctx context.Context, es *epochState, src graph.VertexID) (server.SSSPSummary, error) {
	v, _, err := rt.read(ctx, es, pointKey('S', uint64(src)), func(ctx context.Context) (any, int64, error) {
		dist, rounds, err := rt.runSSSP(ctx, es, src)
		if err != nil {
			return nil, 0, err
		}
		return server.SummarizeSSSP(dist, rounds), server.SSSPSummaryBytes, nil
	}, pointKey('s', uint64(src)))
	if err != nil {
		return server.SSSPSummary{}, err
	}
	if d, ok := v.(server.SSSPDistances); ok {
		return d.SSSPSummary, nil
	}
	return v.(server.SSSPSummary), nil
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
// Unreached vertices hold apps.InfDistance, as the engine leaves them.
func (rt *Router) runSSSP(ctx context.Context, es *epochState, src graph.VertexID) ([]int64, int, error) {
	tr := obs.FromContext(ctx)
	p := rt.placement
	n := p.NumVertices
	dist := make([]int64, n)
	for i := range dist {
		dist[i] = apps.InfDistance
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
	defer rt.release(es)
	q := r.URL.Query()
	n := rt.placement.NumVertices
	src, err := server.VertexParam(q, "src", n)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	var target graph.VertexID
	hasTarget := q.Get("target") != ""
	if hasTarget {
		if target, err = server.VertexParam(q, "target", n); err != nil {
			writeError(w, http.StatusBadRequest, "%v", err)
			return
		}
	}
	if !hasTarget {
		sum, err := rt.ssspSummary(r.Context(), es, src)
		if err != nil {
			writeShardError(w, err)
			return
		}
		writeJSON(w, http.StatusOK, sum.Summary(rt.metaFor(es), src))
		return
	}
	d, err := rt.sssp(r.Context(), es, src)
	if err != nil {
		writeShardError(w, err)
		return
	}
	res := server.SSSPTargetResult{SSSPResult: d.Summary(rt.metaFor(es), src), Target: target}
	res.Distance, res.Reachable = d.Dist.At(int(target))
	writeJSON(w, http.StatusOK, res)
}
