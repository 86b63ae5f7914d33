package server

import (
	"context"
	"fmt"
	"net/http"
	"sync"
	"testing"
	"time"

	"graphreorder/internal/graph"
)

// ssspOutcome is what a step of TestSSSPCacheKeepsReplies expects: the
// status, the reply's cached and stale flags, and which of the walk's
// epochs (1, 2, 3) answered.
type ssspOutcome struct {
	code          int
	cached, stale bool
	epoch         int
}

// TestSSSPCacheKeepsReplies walks summary and target SSSPs over three
// epochs of a live snapshot, some of them shed (the one pool slot held,
// a 50 ms deadline), and holds every reply to what graphd answered when
// every SSSP cached its distance vector. Rows with a parent outcome are
// the deliberate differences: a target query whose epoch holds only a
// summary for its source computes (3), and shed, it falls back to a
// stale vector only, 503 where there is none (7) and an older epoch's
// vector where there is one (14, 18). The numbers of every reply equal
// those of a computed reply of the epoch it names.
func TestSSSPCacheKeepsReplies(t *testing.T) {
	s := New(Config{Workers: 1, MaxConcurrent: 1, QueryTimeout: 30 * time.Second})
	t.Cleanup(func() { s.store.CloseLive() })
	if _, err := s.store.Build(BuildSpec{
		Name: "live", Dataset: "uni", Scale: "tiny", Technique: "dbg", Mutable: true,
	}); err != nil {
		t.Fatal(err)
	}
	h := s.Handler()
	epochs := []uint64{0, s.store.Current().epoch}
	held := false
	hold := func(on bool) {
		if on == held {
			return
		}
		if held = on; on {
			for i := 0; i < 4; i++ {
				s.pool.observe(300 * time.Millisecond)
			}
			if err := s.pool.acquire(context.Background()); err != nil {
				t.Fatal(err)
			}
		} else {
			s.pool.release()
		}
	}
	t.Cleanup(func() { hold(false) })
	publish := func() {
		hold(false)
		var res MutateResult
		if code, body := postJSON(t, h, "/v1/snapshots/live/edges", MutateRequest{
			Updates: []MutateUpdate{{Src: 1, Dst: 2, Weight: uint32(len(epochs))}},
		}, &res); code != http.StatusOK {
			t.Fatalf("mutate: %d %s", code, body)
		}
		epochs = append(epochs, res.Epoch)
	}

	const a, b, c, target = 0, 3, 5, 9
	type row struct {
		publish bool
		target  bool
		src     graph.VertexID
		shed    bool
		want    ssspOutcome
		parent  *ssspOutcome // the outcome when every SSSP cached its vector, where it differs
	}
	computed := func(epoch int) ssspOutcome { return ssspOutcome{code: http.StatusOK, epoch: epoch} }
	cached := func(epoch int) ssspOutcome { return ssspOutcome{code: http.StatusOK, cached: true, epoch: epoch} }
	stale := func(epoch int) ssspOutcome {
		return ssspOutcome{code: http.StatusOK, cached: true, stale: true, epoch: epoch}
	}
	shed := ssspOutcome{code: http.StatusServiceUnavailable}
	was := func(o ssspOutcome) *ssspOutcome { return &o }
	rows := []row{
		{src: a, want: computed(1)}, // 1
		{src: a, want: cached(1)},   // 2
		{target: true, src: a, want: computed(1), parent: was(cached(1))},      // 3
		{target: true, src: a, want: cached(1)},                                // 4
		{src: b, shed: true, want: shed},                                       // 5
		{src: b, want: computed(1)},                                            // 6
		{target: true, src: b, shed: true, want: shed, parent: was(cached(1))}, // 7
		{target: true, src: c, want: computed(1)},                              // 8
		{src: c, want: cached(1)},                                              // 9: read from the vector
		{publish: true},
		{src: a, shed: true, want: stale(1)},                                       // 10
		{target: true, src: c, shed: true, want: stale(1)},                         // 11
		{src: c, shed: true, want: stale(1)},                                       // 12: the vector as fallback
		{src: a, want: computed(2)},                                                // 13
		{target: true, src: a, shed: true, want: stale(1), parent: was(cached(2))}, // 14
		{src: b, shed: true, want: stale(1)},                                       // 15
		{target: true, src: b, want: computed(2)},                                  // 16
		{publish: true},
		{src: a, shed: true, want: stale(2)}, // 17: the newer summary
		{target: true, src: a, shed: true, want: stale(1), parent: was(stale(2))}, // 18
		{src: b, shed: true, want: stale(2)},                                      // 19: the newer vector
		{target: true, src: b, shed: true, want: stale(2)},                        // 20
	}

	// fresh holds each computed reply by (epoch, source, target or -1).
	type replyKey struct {
		epoch  uint64
		src    graph.VertexID
		target int
	}
	fresh := make(map[replyKey]SSSPTargetResult)
	i := 0 // the row's number, publishes not counted
	for _, r := range rows {
		if r.publish {
			publish()
			continue
		}
		i++
		url, key := fmt.Sprintf("/v1/query/sssp?ids=orig&src=%d", r.src), replyKey{src: r.src, target: -1}
		if r.target {
			url, key.target = fmt.Sprintf("%s&target=%d", url, target), target
		}
		hold(r.shed)
		deadline := 30 * time.Second
		if r.shed {
			deadline = 50 * time.Millisecond
		}
		var got SSSPTargetResult
		code, _, _ := getWithDeadline(t, h, url, deadline, &got)
		want := r.want
		if want.epoch > 0 {
			want.epoch = int(epochs[want.epoch])
		}
		outcome := ssspOutcome{code: code}
		if code == http.StatusOK {
			outcome = ssspOutcome{code: code, cached: got.Cached, stale: got.Stale, epoch: int(got.Epoch)}
		}
		if outcome != want {
			t.Fatalf("row %d (%s, shed %v): %+v, want %+v", i, url, r.shed, outcome, want)
		}
		if code != http.StatusOK {
			continue
		}
		key.epoch = got.Epoch
		if !got.Cached {
			fresh[key] = got
			continue
		}
		ref, ok := fresh[key]
		if !ok && !r.target {
			// A summary answered from its epoch's vector.
			ref, ok = fresh[replyKey{got.Epoch, r.src, target}]
			ref.Target, ref.Distance, ref.Reachable = 0, 0, false
		}
		if !ok {
			t.Fatalf("row %d: a cached reply of epoch %d with none computed", i, got.Epoch)
		}
		ref.QueryMeta = got.QueryMeta
		if got != ref {
			t.Errorf("row %d: %+v, the computed reply of its epoch %+v", i, got, ref)
		}
	}
}

// TestSummarySSSPCachesNoVector pins a summary SSSP's cache cost: after N
// distinct sources the cache holds at most N summaries' EntryCost, with
// no term that grows with the vertex count.
func TestSummarySSSPCachesNoVector(t *testing.T) {
	if raceEnabled {
		t.Skip("the pin is about bytes; the race run adds nothing to it")
	}
	s := New(Config{Workers: 1})
	if _, err := s.store.Build(BuildSpec{Name: "main", Dataset: "sd", Scale: "small", Technique: "dbg", Activate: true}); err != nil {
		t.Fatal(err)
	}
	h := s.Handler()
	n := s.store.Current().graph.NumVertices()
	const sources = 16
	var bound int64
	for i := 0; i < sources; i++ {
		src := i * (n / sources)
		if code := get(t, h, fmt.Sprintf("/v1/query/sssp?ids=orig&src=%d", src), nil); code != http.StatusOK {
			t.Fatalf("sssp src=%d: %d", src, code)
		}
		kind := fmt.Sprintf("ssspsum|%d", src)
		bound += EntryCost(fmt.Sprintf("%d|%s", s.store.Current().epoch, kind), kind, SSSPSummaryBytes)
	}
	if s.cache.Len() != sources || s.cache.Bytes() > bound {
		t.Errorf("%d summaries cached in %d entries, %d B; want %d entries, at most %d B (a vector alone is %d B)",
			sources, s.cache.Len(), s.cache.Bytes(), sources, bound, (n*9+63)/64*8)
	}
}

// TestRepeatedTopKAcrossPublishesStaysBounded: each publish of a live
// snapshot replaces its epoch, so the top-k entry it displaces is
// evicted when the new epoch's entry is cached, and the cache holds one
// entry however many publishes go by.
func TestRepeatedTopKAcrossPublishesStaysBounded(t *testing.T) {
	s := liveServer(t, "dbg")
	h := s.Handler()
	for i := 0; i < 8; i++ {
		if code := get(t, h, "/v1/query/topk?k=5", nil); code != http.StatusOK {
			t.Fatalf("topk: %d", code)
		}
		if s.cache.Len() != 1 {
			t.Fatalf("after %d publishes the cache holds %d entries, want 1", i, s.cache.Len())
		}
		if code, body := postJSON(t, h, "/v1/snapshots/live/edges", MutateRequest{
			Updates: []MutateUpdate{{Src: 1, Dst: graph.VertexID(2 + i), Weight: 1}},
		}, nil); code != http.StatusOK {
			t.Fatalf("mutate: %d %s", code, body)
		}
	}
}

// TestLateAddKeepsTheNewerFallback: a result of a retired epoch that
// lands after its successor's is not cached and does not take the stale
// fallback back to the older epoch; another snapshot's result takes the
// fallback and evicts nothing.
func TestLateAddKeepsTheNewerFallback(t *testing.T) {
	c := NewResultCache(1 << 20)
	live := func(epoch uint64) QueryMeta { return QueryMeta{Snapshot: "live", Epoch: epoch} }
	c.addFallback("2|topk|5", "topk|5", "new", 10, live(2))
	c.addFallback("1|topk|5", "topk|5", "old", 10, live(1))
	if v, meta, ok := c.getStale("topk|5"); !ok || v != "new" || meta.Epoch != 2 || c.Len() != 1 {
		t.Fatalf("fallback %v of epoch %d (%v), %d entries; want epoch 2's, one entry", v, meta.Epoch, ok, c.Len())
	}
	c.addFallback("3|topk|5", "topk|5", "other", 10, QueryMeta{Snapshot: "other", Epoch: 3})
	if v, _, _ := c.getStale("topk|5"); v != "other" || c.Len() != 2 {
		t.Fatalf("fallback %v, %d entries; want the other snapshot's, two entries", v, c.Len())
	}
}

// TestFallbackIndexConcurrent drives the epoch-keyed paths of one cache
// from several goroutines at once — adds that displace and evict, late
// adds, lookups with alternates and stale lookups — and then audits it:
// the byte count matches the entries, and every stale pointer names a
// cached entry of its own key.
func TestFallbackIndexConcurrent(t *testing.T) {
	c := NewResultCache(4 << 10)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				epoch := uint64(1 + (i/16+w)%8)
				kind := fmt.Sprintf("sssp|%d", (i+w)%5)
				also := "ssspsum" + kind[len("sssp"):]
				key := fmt.Sprintf("%d|%s", epoch, kind)
				snap := "live"
				if w%4 == 3 {
					snap = "other"
				}
				switch i % 4 {
				case 0:
					c.addFallback(key, kind, i, int64(1+i%200), QueryMeta{Snapshot: snap, Epoch: epoch})
				case 1:
					c.Get(key, fmt.Sprintf("%d|%s", epoch, also))
				case 2:
					c.getStale(also, kind)
				default:
					c.addFallback(fmt.Sprintf("%d|%s", epoch, also), also, i, 64, QueryMeta{Snapshot: snap, Epoch: epoch})
				}
			}
		}(w)
	}
	wg.Wait()
	auditBytes(t, c)
	c.mu.Lock()
	defer c.mu.Unlock()
	for k, e := range c.stale {
		if el, ok := c.items[e.key]; !ok || el.Value.(*cacheEntry) != e || e.staleKey != k {
			t.Fatalf("stale pointer %q names an entry that is not cached under it", k)
		}
	}
}
