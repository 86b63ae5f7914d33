package server

import (
	"sync"
	"sync/atomic"
)

// FlightGroup coalesces duplicate in-flight work: callers of Do with the
// same key while a computation is running all wait on the one leader
// call instead of launching their own traversal (singleflight). The
// leader runs on its own goroutine so a caller whose context expires can
// abandon the wait while the result still lands in the cache. It is the
// one singleflight of both serving tiers: a node keys it by epoch and
// query, the cluster router by epoch and reply-cache key, so every
// router read — point replies and SSSP sources alike — coalesces here.
type FlightGroup struct {
	mu        sync.Mutex
	m         map[string]*FlightCall
	coalesced atomic.Uint64
}

// FlightCall is one computation a FlightGroup runs.
type FlightCall struct {
	done chan struct{}
	val  any
	err  error
}

// Done is closed when the computation has returned.
func (c *FlightCall) Done() <-chan struct{} { return c.done }

// Result is what the computation returned; call it after Done is closed.
func (c *FlightCall) Result() (any, error) { return c.val, c.err }

// NewFlightGroup returns a group with nothing in flight.
func NewFlightGroup() *FlightGroup {
	return &FlightGroup{m: make(map[string]*FlightCall)}
}

// Do returns the in-flight call for key, starting fn on a new goroutine
// if none is running, and reports whether this caller became the leader
// (i.e. whether fn will run). Callers wait on call.Done (typically in a
// select with their request context). The key is free again once fn has
// returned, so a failed computation is not remembered.
func (g *FlightGroup) Do(key string, fn func() (any, error)) (*FlightCall, bool) {
	g.mu.Lock()
	if c, ok := g.m[key]; ok {
		g.mu.Unlock()
		g.coalesced.Add(1)
		return c, false
	}
	c := &FlightCall{done: make(chan struct{})}
	g.m[key] = c
	g.mu.Unlock()
	go func() {
		c.val, c.err = fn()
		g.mu.Lock()
		delete(g.m, key)
		g.mu.Unlock()
		close(c.done)
	}()
	return c, true
}
