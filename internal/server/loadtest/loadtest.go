// Package loadtest drives a running graphd instance with concurrent
// clients over real HTTP through a fixed list of operations, and fires
// drills (a hot swap, a crash, a shard kill) on load events while the
// list runs. cmd/graphd -selftest uses it to prove no drill loses a
// request. It measures no latency: bench/ is the serving benchmark.
package loadtest

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
	"sync"

	"graphreorder/internal/rng"
)

// The workload's fixed parameters.
const (
	// seed makes the operation list reproducible.
	seed = 1
	// ssspSources is how many distinct SSSP sources the list cycles
	// through. Few sources model "hot" queries: after one traversal per
	// source, the rest are cache hits or coalesced.
	ssspSources = 4
	// mutateBatch is the number of edge insertions per write batch.
	mutateBatch = 4
)

// Options configures a run.
type Options struct {
	// BaseURL is the server under test, e.g. "http://127.0.0.1:8090".
	BaseURL string
	// Clients is the number of concurrent clients (default 8). Operation
	// i of the list goes to client i mod Clients.
	Clients int
	// Ops is the length of the operation list (default 2000).
	Ops int
	// Mix weights the query kinds (default 70/15/10/5/0
	// neighbors/rank/topk/sssp/mutate). Writes go to the first mutable
	// published snapshot.
	Mix Mix
	// Drills fire mid-run, each on its load event. The last tenth of the
	// list is held back until every drill has returned, so each drill has
	// completed operations on both sides of it.
	Drills []Drill
}

// Mix holds relative weights for the query kinds. Mutate operations POST
// an edge batch and then verify read-your-writes: a follow-up read
// pinned to the mutated snapshot must report the receipt's epoch (or a
// newer one). Every read additionally cross-checks its (epoch, edges)
// pair against the write receipts, so a torn or stale publish counts as
// a failure.
type Mix struct {
	Neighbors, Degree, Rank, TopK, SSSP, Mutate int
}

func (m Mix) orDefault() Mix {
	if m.Neighbors+m.Degree+m.Rank+m.TopK+m.SSSP+m.Mutate == 0 {
		return Mix{Neighbors: 70, Rank: 15, TopK: 10, SSSP: 5}
	}
	return m
}

// ClusterMix is the read-only mix for driving a cluster router: the
// cluster tier serves immutable epochs (writes go through the
// partitioner + PublishEpoch), and degree is included because its
// scatter pattern (owner-only vs all-shard fanout by kind) is distinct
// from every other route.
func ClusterMix() Mix {
	return Mix{Neighbors: 50, Degree: 15, Rank: 15, TopK: 10, SSSP: 10}
}

// Drill is an action fired during a run once After operations have
// completed. The load keeps running while Do does, and Do may wait on
// further load events through its Control.
type Drill struct {
	Name  string
	After int
	Do    func(*Control) error
}

// DrillResult reports one drill: Before counts the operations completed
// when it fired, After those completed after it returned.
type DrillResult struct {
	Name          string
	Before, After uint64
}

// KindStats counts one query kind.
type KindStats struct {
	Requests uint64
	Failures uint64
}

// Result summarizes a run.
type Result struct {
	Requests uint64
	Failures uint64
	ByKind   map[string]KindStats
	// FirstErrors holds up to a handful of failure descriptions.
	FirstErrors []string
	// WriteUnavailable counts write batches refused with 503 inside an
	// outage (see Control.Outage). A never-acked write is not a failure
	// there; a 503 anywhere else is.
	WriteUnavailable uint64
	// AckedEdges holds every edge insertion a receipt acknowledged and
	// the same client did not later remove, in original vertex-ID space.
	// After a crash+recovery, each must still be in the graph — see
	// VerifyAcked.
	AckedEdges [][2]int
	// Drills reports each drill, in Options.Drills order.
	Drills []DrillResult
}

// String renders the result as a small report.
func (r Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%d requests, %d failures\n", r.Requests, r.Failures)
	kinds := make([]string, 0, len(r.ByKind))
	for k := range r.ByKind {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	for _, k := range kinds {
		ks := r.ByKind[k]
		fmt.Fprintf(&b, "%-10s %8d reqs  %3d fail\n", k, ks.Requests, ks.Failures)
	}
	for _, d := range r.Drills {
		fmt.Fprintf(&b, "drill %s: fired after %d operations, %d completed after it returned\n",
			d.Name, d.Before, d.After)
	}
	for _, e := range r.FirstErrors {
		fmt.Fprintf(&b, "error: %s\n", e)
	}
	return b.String()
}

// op is one planned operation: a read of path, or a write of batch
// that also removes the client's last surviving insertion when remove
// is set and there is one.
type op struct {
	kind   string
	path   string
	batch  []mutateUpdate
	remove bool
}

// plan draws the operation list from the constant seed: kinds by the
// mix, vertices Zipf-distributed over [0, n) to model hot-vertex
// traffic.
func plan(ops int, mix Mix, n int) []op {
	r := rng.New(seed)
	zipf := rng.NewZipfDist(n, 1.1)
	total := mix.Neighbors + mix.Degree + mix.Rank + mix.TopK + mix.SSSP + mix.Mutate
	list := make([]op, ops)
	for i := range list {
		v := r.ZipfOf(zipf)
		o := &list[i]
		switch pick := r.Intn(total); {
		case pick < mix.Neighbors:
			o.kind, o.path = "neighbors", fmt.Sprintf("/v1/query/neighbors?v=%d&limit=32", v)
		case pick < mix.Neighbors+mix.Degree:
			o.kind, o.path = "degree", fmt.Sprintf("/v1/query/degree?v=%d&kind=total", v)
		case pick < mix.Neighbors+mix.Degree+mix.Rank:
			o.kind, o.path = "rank", fmt.Sprintf("/v1/query/rank?v=%d", v)
		case pick < mix.Neighbors+mix.Degree+mix.Rank+mix.TopK:
			o.kind, o.path = "topk", "/v1/query/topk?k=10"
		case pick < mix.Neighbors+mix.Degree+mix.Rank+mix.TopK+mix.SSSP:
			o.kind, o.path = "sssp", fmt.Sprintf("/v1/query/sssp?src=%d", r.Intn(ssspSources))
		default:
			o.kind = "mutate"
			o.batch = make([]mutateUpdate, mutateBatch)
			for j := range o.batch {
				o.batch[j] = mutateUpdate{Src: r.Intn(n), Dst: r.Intn(n), Weight: 1 + r.Intn(8)}
			}
			o.remove = r.Intn(4) == 0
		}
	}
	return list
}

// runner is one run's shared state. The fields after mu are guarded by
// it, and cond is broadcast on every change to them.
type runner struct {
	client   *http.Client
	baseURL  string
	snapshot string // the write target
	clients  int
	heldFrom int // operations from this index on wait for every drill to return
	// published records every write receipt's (epoch, edge count); any
	// read reporting a recorded epoch with a different edge count saw a
	// torn or mismatched publish.
	published sync.Map // uint64 -> int

	mu         sync.Mutex
	cond       *sync.Cond
	parked     int // clients finished or waiting at the held tail
	drillsLeft int
	writesHeld bool
	writing    int // writes in flight
	outage     bool
	res        Result // res.Requests counts the operations completed
}

// start blocks before operation i until it may begin: a held operation
// waits for every drill to return, a write for writes to be let
// through. It reports whether an outage is open.
func (r *runner) start(i int, write bool) (outage bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if i >= r.heldFrom && r.drillsLeft > 0 {
		r.parked++
		r.cond.Broadcast()
		for r.drillsLeft > 0 {
			r.cond.Wait()
		}
		r.parked--
	}
	for write && r.writesHeld {
		r.cond.Wait()
	}
	if write {
		r.writing++
	}
	return r.outage
}

// finish records a completed operation.
func (r *runner) finish(kind string, ok, refused bool, desc string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.res.Requests++
	ks := r.res.ByKind[kind]
	ks.Requests++
	if kind == "mutate" {
		r.writing--
	}
	if refused {
		r.res.WriteUnavailable++
	}
	if !ok {
		r.res.Failures++
		ks.Failures++
		if len(r.res.FirstErrors) < 8 {
			r.res.FirstErrors = append(r.res.FirstErrors, desc)
		}
	}
	r.res.ByKind[kind] = ks
	r.cond.Broadcast()
}

// await blocks until ready holds. Once every client has finished or
// parked at the held tail, no operation is left that could make it
// hold, and await fails naming event. The caller holds r.mu.
func (r *runner) await(event string, ready func() bool) error {
	for !ready() {
		if r.parked == r.clients {
			return fmt.Errorf("%s: the %d operations before the held tail ran out first", event, r.heldFrom)
		}
		r.cond.Wait()
	}
	return nil
}

// Control is a firing drill's handle on the run's load events.
type Control struct{ r *runner }

// Await blocks until n more operations have completed.
func (c *Control) Await(n int) error {
	r := c.r
	r.mu.Lock()
	defer r.mu.Unlock()
	target := r.res.Requests + uint64(n)
	return r.await(fmt.Sprintf("waiting for %d more operations", n),
		func() bool { return r.res.Requests >= target })
}

// Outage runs a crash and its recovery under load. crash runs with no
// write in flight and none started, so no write of the load lands
// between what crash does and the crash itself; reads keep running.
// Then writes resume, and a write started before restore returns that
// is refused with 503 counts in WriteUnavailable instead of Failures.
// restore runs once such a refusal has been seen, so the outage is
// exercised before it closes.
func (c *Control) Outage(crash, restore func() error) error {
	r := c.r
	r.mu.Lock()
	r.writesHeld = true
	for r.writing > 0 {
		r.cond.Wait()
	}
	r.mu.Unlock()
	err := crash()
	r.mu.Lock()
	r.writesHeld = false
	r.outage = err == nil
	r.cond.Broadcast()
	if err == nil {
		refused := r.res.WriteUnavailable
		err = r.await("waiting for a write refused with 503",
			func() bool { return r.res.WriteUnavailable > refused })
	}
	r.mu.Unlock()
	if err == nil {
		err = restore()
	}
	r.mu.Lock()
	r.outage = false
	r.mu.Unlock()
	return err
}

// Run plans the operation list, runs it and the drills, and blocks until
// both finish. A drill that fails is reported in the returned error,
// beside a complete Result.
func Run(opts Options) (Result, error) {
	if opts.BaseURL == "" {
		return Result{}, fmt.Errorf("loadtest: BaseURL required")
	}
	if opts.Clients <= 0 {
		opts.Clients = 8
	}
	if opts.Ops <= 0 {
		opts.Ops = 2000
	}
	mix := opts.Mix.orDefault()
	held := 0
	if len(opts.Drills) > 0 {
		held = max(1, opts.Ops/10)
	}
	r := &runner{
		client: &http.Client{Transport: &http.Transport{
			MaxIdleConns:        opts.Clients * 2,
			MaxIdleConnsPerHost: opts.Clients * 2,
		}},
		baseURL:    opts.BaseURL,
		clients:    opts.Clients,
		heldFrom:   opts.Ops - held,
		drillsLeft: len(opts.Drills),
		res: Result{
			ByKind: make(map[string]KindStats),
			Drills: make([]DrillResult, len(opts.Drills)),
		},
	}
	r.cond = sync.NewCond(&r.mu)
	for _, d := range opts.Drills {
		if d.After < 0 || d.After > r.heldFrom {
			return Result{}, fmt.Errorf("loadtest: drill %q fires after %d operations, but %d run before the held tail",
				d.Name, d.After, r.heldFrom)
		}
	}

	// The vertex universe is the smallest published snapshot, so queries
	// stay valid even if a hot-swap lands on a differently-sized graph.
	snaps, err := listSnapshots(opts.BaseURL)
	if err != nil {
		return Result{}, err
	}
	n := minVertices(snaps)
	if n == 0 {
		return Result{}, fmt.Errorf("loadtest: server has no non-empty snapshot")
	}
	if mix.Mutate > 0 {
		for _, s := range snaps {
			if s.Mutable {
				r.snapshot = s.Name
				break
			}
		}
		if r.snapshot == "" {
			return Result{}, fmt.Errorf("loadtest: write mix requested but no mutable snapshot published")
		}
	}
	list := plan(opts.Ops, mix, n)

	errs := make([]error, len(opts.Drills))
	var wg sync.WaitGroup
	for i, d := range opts.Drills {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r.mu.Lock()
			err := r.await(fmt.Sprintf("waiting for %d operations", d.After),
				func() bool { return r.res.Requests >= uint64(d.After) })
			before := r.res.Requests
			r.mu.Unlock()
			if err == nil {
				err = d.Do(&Control{r})
			}
			if err != nil {
				errs[i] = fmt.Errorf("drill %q: %w", d.Name, err)
			}
			r.mu.Lock()
			// After holds the count at return until the run ends.
			r.res.Drills[i] = DrillResult{Name: d.Name, Before: before, After: r.res.Requests}
			r.drillsLeft--
			r.cond.Broadcast()
			r.mu.Unlock()
		}()
	}
	for c := 0; c < opts.Clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var inserted [][2]int // this client's surviving acked insertions
			for i := c; i < len(list); i += opts.Clients {
				o := list[i]
				var ok, refused bool
				var desc string
				if o.kind == "mutate" {
					ok, refused, desc = r.write(o, &inserted, r.start(i, true))
				} else {
					r.start(i, false)
					ok, desc, _ = r.read(r.baseURL + o.path)
				}
				r.finish(o.kind, ok, refused, desc)
			}
			r.mu.Lock()
			r.parked++
			r.res.AckedEdges = append(r.res.AckedEdges, inserted...)
			r.cond.Broadcast()
			r.mu.Unlock()
		}()
	}
	wg.Wait()
	for i := range r.res.Drills {
		r.res.Drills[i].After = r.res.Requests - r.res.Drills[i].After
	}
	return r.res, errors.Join(errs...)
}

// respMeta is the snapshot-identifying slice of every query response.
type respMeta struct {
	Snapshot string `json:"snapshot"`
	Epoch    uint64 `json:"epoch"`
	Edges    int    `json:"edges"`
}

func fetch(client *http.Client, url string) (bool, string, respMeta) {
	var meta respMeta
	resp, err := client.Get(url)
	if err != nil {
		return false, fmt.Sprintf("GET %s: %v", url, err), meta
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return false, fmt.Sprintf("GET %s: %d %s", url, resp.StatusCode, string(body)), meta
	}
	json.Unmarshal(body, &meta)
	return true, "", meta
}

// read fetches url and fails a reply whose (epoch, edges) pair
// contradicts a write receipt: a torn or mismatched publish.
func (r *runner) read(url string) (bool, string, respMeta) {
	ok, desc, meta := fetch(r.client, url)
	if !ok || meta.Snapshot != r.snapshot {
		return ok, desc, meta
	}
	if e, loaded := r.published.Load(meta.Epoch); loaded && e.(int) != meta.Edges {
		return false, fmt.Sprintf("torn read: epoch %d served %d edges, receipt said %d",
			meta.Epoch, meta.Edges, e.(int)), meta
	}
	return true, "", meta
}

type mutateUpdate struct {
	Src    int  `json:"src"`
	Dst    int  `json:"dst"`
	Weight int  `json:"weight,omitempty"`
	Remove bool `json:"remove,omitempty"`
}

// write posts one mutation batch for the client whose surviving acked
// insertions are *inserted, then verifies read-your-writes. It returns
// ok for an acked, verified write; refused for a write started inside
// an outage and refused with 503 (the live pipeline is down — the write
// was never acked, nothing is owed).
func (r *runner) write(o op, inserted *[][2]int, outage bool) (ok, refused bool, desc string) {
	batch := o.batch // full to capacity, so the append below copies
	// Remove an edge this client inserted earlier when the plan says so;
	// writes are serialized per client, so the instance is provably
	// present. (The edge leaves the pool even if this batch fails:
	// skipping its verification is safe, re-verifying a removed edge
	// would not be.)
	if pool := *inserted; o.remove && len(pool) > 0 {
		e := pool[len(pool)-1]
		*inserted = pool[:len(pool)-1]
		batch = append(batch, mutateUpdate{Src: e[0], Dst: e[1], Remove: true})
	}
	body, _ := json.Marshal(map[string]any{"updates": batch})
	url := fmt.Sprintf("%s/v1/snapshots/%s/edges", r.baseURL, r.snapshot)
	resp, err := r.client.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return false, false, fmt.Sprintf("POST %s: %v", url, err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		if outage && resp.StatusCode == http.StatusServiceUnavailable {
			return true, true, ""
		}
		return false, false, fmt.Sprintf("POST %s: %d %s", url, resp.StatusCode, string(raw))
	}
	var receipt struct {
		Epoch uint64 `json:"epoch"`
		Edges int    `json:"edges"`
	}
	if err := json.Unmarshal(raw, &receipt); err != nil || receipt.Epoch == 0 {
		return false, false, fmt.Sprintf("POST %s: bad receipt %q", url, string(raw))
	}
	r.published.Store(receipt.Epoch, receipt.Edges)
	for _, u := range batch {
		if !u.Remove {
			*inserted = append(*inserted, [2]int{u.Src, u.Dst})
		}
	}
	// Read-your-writes: a read pinned to the mutated snapshot must see
	// the receipt's publish (or a newer one), and agree with its receipt.
	readURL := fmt.Sprintf("%s/v1/query/degree?v=%d&snapshot=%s", r.baseURL, batch[0].Src, r.snapshot)
	rok, rdesc, meta := r.read(readURL)
	if !rok {
		return false, false, "read-after-write: " + rdesc
	}
	if meta.Epoch < receipt.Epoch {
		return false, false, fmt.Sprintf("stale read after publish: read epoch %d < receipt epoch %d",
			meta.Epoch, receipt.Epoch)
	}
	return true, false, ""
}

// VerifyAcked proves durability after a crash+recovery: every acked,
// surviving edge insertion must be present in the named snapshot. Vertex
// IDs are in original (as-loaded) order — the space mutations use — so
// both endpoints go through /v1/snapshots/{name}/resolve before the
// serving-order neighbor lists are consulted. Returns an error naming
// the first missing edge (an acked write the recovery lost).
func VerifyAcked(baseURL, snapshot string, edges [][2]int) error {
	client := &http.Client{}
	resolved := make(map[int]int)
	resolve := func(v int) (int, error) {
		if cur, ok := resolved[v]; ok {
			return cur, nil
		}
		var out struct {
			Current int `json:"current"`
		}
		url := fmt.Sprintf("%s/v1/snapshots/%s/resolve?v=%d", baseURL, snapshot, v)
		if err := fetchJSON(client, url, &out); err != nil {
			return 0, err
		}
		resolved[v] = out.Current
		return out.Current, nil
	}
	// Group by source: one neighbor fetch per distinct src covers every
	// acked edge out of it.
	bySrc := make(map[int]map[int]bool)
	for _, e := range edges {
		dsts := bySrc[e[0]]
		if dsts == nil {
			dsts = make(map[int]bool)
			bySrc[e[0]] = dsts
		}
		dsts[e[1]] = true
	}
	for src, dsts := range bySrc {
		cur, err := resolve(src)
		if err != nil {
			return err
		}
		var nb struct {
			Neighbors []int `json:"neighbors"`
		}
		url := fmt.Sprintf("%s/v1/query/neighbors?v=%d&dir=out&snapshot=%s", baseURL, cur, snapshot)
		if err := fetchJSON(client, url, &nb); err != nil {
			return err
		}
		present := make(map[int]bool, len(nb.Neighbors))
		for _, n := range nb.Neighbors {
			present[n] = true
		}
		for dst := range dsts {
			curDst, err := resolve(dst)
			if err != nil {
				return err
			}
			if !present[curDst] {
				return fmt.Errorf("acked edge (%d -> %d) missing after recovery", src, dst)
			}
		}
	}
	return nil
}

func fetchJSON(client *http.Client, url string, out any) error {
	resp, err := client.Get(url)
	if err != nil {
		return fmt.Errorf("GET %s: %w", url, err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %d %s", url, resp.StatusCode, string(body))
	}
	return json.Unmarshal(body, out)
}

// snapInfo is the slice of the snapshot listing the load generator needs.
type snapInfo struct {
	Name     string `json:"name"`
	Vertices int    `json:"vertices"`
	Mutable  bool   `json:"mutable"`
}

// listSnapshots asks the server for its published snapshots.
func listSnapshots(baseURL string) ([]snapInfo, error) {
	resp, err := http.Get(baseURL + "/v1/snapshots")
	if err != nil {
		return nil, fmt.Errorf("loadtest: listing snapshots: %w", err)
	}
	defer resp.Body.Close()
	var list struct {
		Snapshots []snapInfo `json:"snapshots"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		return nil, fmt.Errorf("loadtest: decoding snapshot list: %w", err)
	}
	if len(list.Snapshots) == 0 {
		return nil, fmt.Errorf("loadtest: server has no snapshots")
	}
	return list.Snapshots, nil
}

// minVertices returns the smallest vertex count across snapshots.
func minVertices(snaps []snapInfo) int {
	n := snaps[0].Vertices
	for _, s := range snaps[1:] {
		if s.Vertices < n {
			n = s.Vertices
		}
	}
	return n
}
