package server

import (
	"context"
	"sync/atomic"
	"time"
)

// workPool bounds the number of traversal-heavy queries (SSSP, Radii,
// top-k) executing at once, so point lookups stay responsive and a flood
// of expensive requests degrades into queueing instead of thrashing
// every core. Acquisition respects a context deadline.
//
// The pool also powers deadline-aware load shedding: it tracks an EWMA
// of heavy-query service time and the number of queued waiters, from
// which predictWait estimates how long a new arrival would sit in the
// queue. The admission path sheds (503 + Retry-After) when that
// estimate exceeds the request's deadline — the request was going to
// burn its deadline queueing anyway, so failing fast costs the client
// nothing and spares the server the wasted slot.
type workPool struct {
	sem     chan struct{}
	waiting atomic.Int64
	avgNs   atomic.Int64 // EWMA of heavy-query service time
}

// pessimisticQueueFactor: with no service-time history yet, shed only
// when the queue is pathologically deep relative to capacity.
const pessimisticQueueFactor = 4

func newWorkPool(n int) *workPool {
	if n < 1 {
		n = 1
	}
	return &workPool{sem: make(chan struct{}, n)}
}

func (p *workPool) acquire(ctx context.Context) error {
	// An already-dead context must always be rejected: when both select
	// arms are ready Go picks one at random, so without this check a
	// cancelled request could still be admitted and run its traversal.
	if err := ctx.Err(); err != nil {
		return err
	}
	select {
	case p.sem <- struct{}{}:
		return nil
	default:
	}
	p.waiting.Add(1)
	defer p.waiting.Add(-1)
	select {
	case p.sem <- struct{}{}:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

func (p *workPool) release() { <-p.sem }

// observe folds one completed heavy query's service time into the EWMA
// (new = old + (sample-old)/8 — jumpy enough to track load shifts,
// stable enough to ignore outliers).
func (p *workPool) observe(d time.Duration) {
	for {
		old := p.avgNs.Load()
		next := old + (int64(d)-old)/8
		if old == 0 {
			next = int64(d)
		}
		if p.avgNs.CompareAndSwap(old, next) {
			return
		}
	}
}

// predictWait estimates the queue wait a new arrival faces: zero while
// a slot is free, otherwise (waiters ahead + 1) service times spread
// over the pool's width. With no history it stays optimistic until the
// queue is pathologically deep.
func (p *workPool) predictWait() time.Duration {
	if len(p.sem) < cap(p.sem) {
		return 0
	}
	waiting := p.waiting.Load()
	avg := p.avgNs.Load()
	if avg == 0 {
		if waiting >= int64(pessimisticQueueFactor*cap(p.sem)) {
			return time.Hour // unknowable but certainly hopeless
		}
		return 0
	}
	return time.Duration((waiting + 1) * avg / int64(cap(p.sem)))
}

func (p *workPool) capacity() int { return cap(p.sem) }
func (p *workPool) inUse() int    { return len(p.sem) }
