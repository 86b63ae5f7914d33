package server

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestResultCacheLRU(t *testing.T) {
	c := NewResultCache(2) // byte budget of 2; unit-cost entries below
	c.Add("a", 1, 1)
	c.Add("b", 2, 1)
	if v, ok := c.Get("a"); !ok || v != 1 {
		t.Fatal("a missing")
	}
	c.Add("c", 3, 1) // evicts b (a was just touched)
	if _, ok := c.Get("b"); ok {
		t.Fatal("b should have been evicted")
	}
	if _, ok := c.Get("a"); !ok {
		t.Fatal("a should have survived")
	}
	if _, ok := c.Get("c"); !ok {
		t.Fatal("c missing")
	}
	if c.Len() != 2 || c.Bytes() != 2 {
		t.Fatalf("len = %d bytes = %d, want 2/2", c.Len(), c.Bytes())
	}
	c.Add("a", 10, 1) // update in place
	if v, _ := c.Get("a"); v != 10 {
		t.Fatal("update lost")
	}
	if got := c.hits.Load(); got != 4 {
		t.Errorf("hits = %d, want 4", got)
	}
	if got := c.misses.Load(); got != 1 {
		t.Errorf("misses = %d, want 1", got)
	}
}

func TestResultCacheByteBudget(t *testing.T) {
	c := NewResultCache(100)
	c.Add("big", "x", 60)
	c.Add("mid", "y", 50) // 110 > 100: evicts big
	if _, ok := c.Get("big"); ok {
		t.Fatal("budget not enforced")
	}
	if c.Bytes() != 50 {
		t.Fatalf("bytes = %d, want 50", c.Bytes())
	}
	// An entry larger than the whole budget is refused outright.
	c.Add("huge", "z", 1000)
	if _, ok := c.Get("huge"); ok {
		t.Fatal("over-budget entry cached")
	}
	if _, ok := c.Get("mid"); !ok {
		t.Fatal("mid evicted by refused entry")
	}
	// Updating an entry re-charges its cost.
	c.Add("mid", "y2", 90)
	if c.Bytes() != 90 {
		t.Fatalf("bytes after recharge = %d, want 90", c.Bytes())
	}
}

// auditBytes recomputes the cache's byte total from scratch and checks
// it against the maintained counter and the budget invariant.
func auditBytes(t *testing.T, c *ResultCache) {
	t.Helper()
	c.mu.Lock()
	defer c.mu.Unlock()
	var sum int64
	for el := c.ll.Front(); el != nil; el = el.Next() {
		sum += el.Value.(*cacheEntry).cost
	}
	if sum != c.curBytes {
		t.Fatalf("curBytes drifted: counter %d, actual %d", c.curBytes, sum)
	}
	if c.curBytes > c.maxBytes {
		t.Fatalf("budget exceeded: %d > %d", c.curBytes, c.maxBytes)
	}
	if len(c.items) != c.ll.Len() {
		t.Fatalf("items map (%d) and list (%d) out of sync", len(c.items), c.ll.Len())
	}
}

// TestResultCacheUpdateEviction pins the re-add path: updating an
// existing key at a larger cost must recharge the byte counter and evict
// LRU entries if the new total exceeds the budget.
func TestResultCacheUpdateEviction(t *testing.T) {
	c := NewResultCache(10)
	c.Add("a", 1, 4)
	c.Add("b", 2, 4)
	auditBytes(t, c)
	// Re-add "a" at cost 8: total would be 12 > 10, and since the update
	// moved "a" to the front, "b" is the LRU victim.
	c.Add("a", 3, 8)
	auditBytes(t, c)
	if _, ok := c.Get("b"); ok {
		t.Fatal("b should have been evicted by a's recharge")
	}
	if v, ok := c.Get("a"); !ok || v != 3 {
		t.Fatalf("a = %v, %v; want 3, true", v, ok)
	}
	if c.Bytes() != 8 {
		t.Fatalf("bytes = %d, want 8", c.Bytes())
	}
	// Shrinking an entry's cost must release budget.
	c.Add("a", 4, 2)
	auditBytes(t, c)
	if c.Bytes() != 2 {
		t.Fatalf("bytes after shrink = %d, want 2", c.Bytes())
	}
	// An update that itself exceeds the whole budget is refused and must
	// drop the now-superseded cached value rather than keep serving it.
	c.Add("a", 5, 100)
	auditBytes(t, c)
	if _, ok := c.Get("a"); ok {
		t.Fatal("over-budget update left a stale value cached")
	}
	if c.Bytes() != 0 {
		t.Fatalf("bytes after refused update = %d, want 0", c.Bytes())
	}
}

// TestResultCacheAccountingNeverDrifts drives a deterministic mixed
// workload (inserts, updates larger and smaller, evictions) and audits
// the byte counter after every operation.
func TestResultCacheAccountingNeverDrifts(t *testing.T) {
	c := NewResultCache(64)
	for i := 0; i < 500; i++ {
		key := fmt.Sprintf("k%d", i%13)
		cost := int64(1 + (i*7)%40)
		c.Add(key, i, cost)
		auditBytes(t, c)
		if i%3 == 0 {
			c.Get(fmt.Sprintf("k%d", (i*5)%13))
		}
	}
}

// TestResultCacheConcurrent hammers get/add from many goroutines; run
// under -race it proves the locking discipline, and the final audit
// proves no lost updates in the byte accounting.
func TestResultCacheConcurrent(t *testing.T) {
	c := NewResultCache(1 << 10)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				key := fmt.Sprintf("k%d", (w*31+i)%17)
				if i%2 == 0 {
					c.Add(key, i, int64(1+(i+w)%100))
				} else {
					c.Get(key)
				}
			}
		}(w)
	}
	wg.Wait()
	auditBytes(t, c)
}

// TestWorkPoolRejectsDeadContext pins the fix for the admit-after-cancel
// race: with free capacity and an already-cancelled context, acquire
// must always reject — before the fix the two ready select arms were
// chosen at random, nondeterministically admitting dead requests.
func TestWorkPoolRejectsDeadContext(t *testing.T) {
	p := newWorkPool(4)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for i := 0; i < 200; i++ {
		if err := p.acquire(ctx); !errors.Is(err, context.Canceled) {
			t.Fatalf("iteration %d: cancelled context admitted (err = %v)", i, err)
		}
	}
	if p.inUse() != 0 {
		t.Fatalf("inUse = %d after rejected acquires, want 0", p.inUse())
	}
}

func TestFlightGroupCoalesces(t *testing.T) {
	g := NewFlightGroup()
	var calls atomic.Int64
	gate := make(chan struct{})
	const waiters = 8
	var wg sync.WaitGroup
	results := make([]any, waiters)
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c, _ := g.Do("key", func() (any, error) {
				calls.Add(1)
				<-gate
				return "value", nil
			})
			<-c.Done()
			results[i], _ = c.Result()
		}(i)
	}
	// Hold the leader until every other caller has joined its flight: one
	// that arrived after the leader finished would, correctly, lead a
	// flight of its own.
	for g.coalesced.Load() < waiters-1 {
		time.Sleep(time.Millisecond)
	}
	close(gate)
	wg.Wait()
	if n := calls.Load(); n != 1 {
		t.Fatalf("fn ran %d times, want 1", n)
	}
	for i, r := range results {
		if r != "value" {
			t.Fatalf("waiter %d got %v", i, r)
		}
	}
	if g.coalesced.Load() == 0 {
		t.Error("no coalesced waiters recorded")
	}
	// A later call with the same key runs fresh, as the leader.
	c, leader := g.Do("key", func() (any, error) { calls.Add(1); return "again", nil })
	<-c.Done()
	if calls.Load() != 2 || !leader {
		t.Error("second round did not run as leader")
	}
}

func TestWorkPoolBoundsAndTimesOut(t *testing.T) {
	p := newWorkPool(2)
	ctx := context.Background()
	if err := p.acquire(ctx); err != nil {
		t.Fatal(err)
	}
	if err := p.acquire(ctx); err != nil {
		t.Fatal(err)
	}
	short, cancel := context.WithTimeout(ctx, 20*time.Millisecond)
	defer cancel()
	if err := p.acquire(short); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("saturated acquire: err = %v", err)
	}
	p.release()
	if err := p.acquire(ctx); err != nil {
		t.Fatal(err)
	}
	if p.inUse() != 2 || p.capacity() != 2 {
		t.Errorf("inUse=%d capacity=%d", p.inUse(), p.capacity())
	}
}

func TestTopKRanks(t *testing.T) {
	ranks := []float64{0.1, 0.5, 0.3, 0.5, 0.2}
	got := topKRanks(ranks, 3)
	// 0.5 appears twice; the lower vertex ID (1) wins the tie for first.
	want := []RankedVertex{{1, 0.5}, {3, 0.5}, {2, 0.3}}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	if got := topKRanks(ranks, 100); len(got) != len(ranks) {
		t.Fatalf("k>n returned %d", len(got))
	}
	if got := topKRanks(nil, 5); len(got) != 0 {
		t.Fatalf("empty ranks returned %d", len(got))
	}
	// Must be fully sorted descending.
	all := topKRanks(ranks, 5)
	for i := 1; i < len(all); i++ {
		if all[i].Rank > all[i-1].Rank {
			t.Fatalf("not descending at %d: %v", i, all)
		}
	}
}
