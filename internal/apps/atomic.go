package apps

import (
	"math"
	"sync/atomic"
	"unsafe"
)

// Atomic property-array primitives for the push paths. Push-mode EdgeMap
// invokes update functions concurrently, so the irregular writes the
// paper studies (distance relaxation in SSSP, path-count accumulation in
// BC, visited-mask growth in Radii) become CAS loops here. Pull-mode
// updates stay plain: each destination is owned by exactly one worker —
// which is how PRD's nghSum accumulation left this file.

// atomicAddFloat64 adds v to *p with a CAS loop on the float's bits.
func atomicAddFloat64(p *float64, v float64) {
	ap := (*uint64)(unsafe.Pointer(p))
	for {
		old := atomic.LoadUint64(ap)
		if atomic.CompareAndSwapUint64(ap, old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

// atomicMinInt64 lowers *p to v if v is smaller, reporting whether it did.
func atomicMinInt64(p *int64, v int64) bool {
	for {
		old := atomic.LoadInt64(p)
		if v >= old {
			return false
		}
		if atomic.CompareAndSwapInt64(p, old, v) {
			return true
		}
	}
}

// atomicOrUint64 ORs mask into *p and returns the value it replaced. It
// is a CAS loop — what the value-returning atomic.OrUint64 lowers to on
// amd64 anyway — because go1.24.0 miscompiles that intrinsic when its
// result is used inside a loop (a register it clobbers is assumed live:
// list elements were silently skipped).
func atomicOrUint64(p *uint64, mask uint64) uint64 {
	for {
		old := atomic.LoadUint64(p)
		if old|mask == old || atomic.CompareAndSwapUint64(p, old, old|mask) {
			return old
		}
	}
}
