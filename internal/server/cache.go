package server

import (
	"container/list"
	"sync"
	"sync/atomic"
)

// ResultCache is a mutex-guarded LRU over fully-materialized query
// results, bounded by an approximate byte budget — entries carry their
// own cost, so a handful of O(n) SSSP distance vectors cannot grow the
// cache without bound the way an entry-count limit would. It is the one
// LRU of both serving tiers. A node keeps one for its lifetime and
// embeds the snapshot epoch in every key, so entries for a replaced
// snapshot simply age out — a hot-swap never serves stale answers and
// needs no invalidation pass; the cluster router keeps one per epoch
// (internal/cluster), holding encoded point replies and SSSPDistances
// side by side, and lets it die with the epoch.
//
// A secondary index keyed by the epoch-free part of the key ("topk|10")
// points at the most recently cached entry for those parameters,
// whatever its epoch. That is the graceful-degradation fallback: when
// fresh compute is shed, the previous epoch's result can still be
// served — explicitly marked stale, carrying the metadata of the
// snapshot that actually produced it.
type ResultCache struct {
	mu       sync.Mutex
	maxBytes int64
	curBytes int64
	ll       *list.List // front = most recently used
	items    map[string]*list.Element
	// stale maps epoch-free keys to the latest entry for those params;
	// entries leave the index when they are evicted.
	stale map[string]*cacheEntry

	hits      atomic.Uint64
	misses    atomic.Uint64
	staleHits atomic.Uint64
}

type cacheEntry struct {
	key      string
	staleKey string
	val      any
	cost     int64
	// meta identifies the snapshot that produced val — stale serves
	// report it so the client sees which epoch actually answered.
	meta QueryMeta
}

// EntryCost is what caching a payload of the given size keeps resident:
// the payload, both key strings, and ~320 bytes of bookkeeping (the
// cacheEntry and its list element, the boxed value header, one slot in
// each of the two maps).
func EntryCost(key, staleKey string, payload int64) int64 {
	return payload + int64(len(key)+len(staleKey)) + 320
}

// NewResultCache returns an empty cache that holds at most maxBytes of
// entry cost.
func NewResultCache(maxBytes int64) *ResultCache {
	if maxBytes < 1 {
		maxBytes = 1
	}
	return &ResultCache{
		maxBytes: maxBytes,
		ll:       list.New(),
		items:    make(map[string]*list.Element),
		stale:    make(map[string]*cacheEntry),
	}
}

// Get returns the value cached under key or, when key holds none, under
// the first of also that holds one, and marks it most recently used. One
// call counts one hit or one miss.
func (c *ResultCache) Get(key string, also ...string) (any, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	for i := 0; !ok && i < len(also); i++ {
		el, ok = c.items[also[i]]
	}
	if !ok {
		c.misses.Add(1)
		return nil, false
	}
	c.ll.MoveToFront(el)
	c.hits.Add(1)
	return el.Value.(*cacheEntry).val, true
}

// getStale returns the most recent cached result for an epoch-free key
// or for one of also, whichever came from the newest epoch, along with
// the metadata of the (possibly old) snapshot it came from.
func (c *ResultCache) getStale(staleKey string, also ...string) (any, QueryMeta, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.stale[staleKey]
	for _, k := range also {
		if a, found := c.stale[k]; found && (!ok || a.meta.Epoch > e.meta.Epoch) {
			e, ok = a, true
		}
	}
	if !ok {
		return nil, QueryMeta{}, false
	}
	c.staleHits.Add(1)
	return e.val, e.meta, true
}

// Add inserts val at the given cost in bytes (see EntryCost), evicting
// least recently used entries past the budget. Values larger than the
// whole budget are not cached at all — and if the key was already cached
// at a smaller cost, that entry is dropped rather than left serving the
// superseded value.
func (c *ResultCache) Add(key string, val any, cost int64) {
	c.addFallback(key, "", val, cost, QueryMeta{})
}

// addFallback is Add for a node's epoch-keyed entries: a non-empty
// staleKey also indexes the entry as the degradation fallback for its
// parameters, answering as the snapshot meta names. The entry it takes
// the index over from is evicted when it belongs to an older epoch of the
// same snapshot: its key names a replaced epoch, which only a request
// still holding that snapshot can ask for. For the same reason an entry
// whose index already holds a newer epoch of its snapshot (a late add
// from a retired one) is not cached.
func (c *ResultCache) addFallback(key, staleKey string, val any, cost int64, meta QueryMeta) {
	if cost < 1 {
		cost = 1
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if cost > c.maxBytes {
		if el, ok := c.items[key]; ok {
			c.removeLocked(el)
		}
		return
	}
	if prev, ok := c.stale[staleKey]; ok && prev.key != key && prev.meta.Snapshot == meta.Snapshot {
		if prev.meta.Epoch > meta.Epoch {
			return
		}
		c.removeLocked(c.items[prev.key])
	}
	if el, ok := c.items[key]; ok {
		entry := el.Value.(*cacheEntry)
		c.curBytes += cost - entry.cost
		entry.val, entry.cost, entry.meta = val, cost, meta
		if entry.staleKey != "" {
			c.stale[entry.staleKey] = entry
		}
		c.ll.MoveToFront(el)
	} else {
		entry := &cacheEntry{key: key, staleKey: staleKey, val: val, cost: cost, meta: meta}
		c.items[key] = c.ll.PushFront(entry)
		c.curBytes += cost
		if staleKey != "" {
			c.stale[staleKey] = entry
		}
	}
	for c.curBytes > c.maxBytes {
		c.removeLocked(c.ll.Back())
	}
}

// removeLocked evicts one entry, dropping its stale-index pointer if it
// is still the latest for its parameters. Callers hold c.mu.
func (c *ResultCache) removeLocked(el *list.Element) {
	entry := el.Value.(*cacheEntry)
	c.ll.Remove(el)
	delete(c.items, entry.key)
	c.curBytes -= entry.cost
	if entry.staleKey != "" && c.stale[entry.staleKey] == entry {
		delete(c.stale, entry.staleKey)
	}
}

// Len returns the number of cached entries.
func (c *ResultCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// Bytes returns the summed cost of the cached entries.
func (c *ResultCache) Bytes() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.curBytes
}
