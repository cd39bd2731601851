// Package faults is the compiled-in fault-injection seam of the search
// core and serving tier. Production builds carry the instrumentation
// permanently — every instrumented site calls Fire, which costs one
// atomic load when no hook is installed at its point — and tests install
// hooks to delay, panic, or cancel at precise points inside a search:
// per-pop delays simulate slow storage and CPU contention, panic-at-pop-N
// proves the serving tier's recovery middleware and the pool/snapshot
// unwinding, and cancel-mid-leg drives the cancellation seam from
// arbitrary depths.
//
// Hooks are process-global (the seam cuts across pooled searchers and
// HTTP handlers, which have no per-request identity to key on), so tests
// that install them must not run in parallel with tests that assume a
// fault-free engine. Set returns a restore func for that reason; use it
// with defer or t.Cleanup.
package faults

import "sync/atomic"

// Point identifies one instrumented site in the search core.
type Point int32

const (
	// RoutePop fires on every partial route popped by a BSSR-family main
	// loop (ordered, destination, unordered, rated, top-k).
	RoutePop Point = iota
	// MDijkstraRun fires at the start of every modified-Dijkstra
	// expansion (Algorithm 2).
	MDijkstraRun
	// DestLeg fires at the start of every search charged to the
	// destination leg: each exact leg pricing of a time-dependent
	// destination query, and each reverse sweep that builds a cost-to-go
	// row (a destination query's, or an ordered query's under a
	// SharedCache).
	DestLeg
	numPoints
)

// String implements fmt.Stringer.
func (p Point) String() string {
	switch p {
	case RoutePop:
		return "route-pop"
	case MDijkstraRun:
		return "mdijkstra-run"
	case DestLeg:
		return "dest-leg"
	default:
		return "unknown-point"
	}
}

// hook pairs an installed function with its firing counter. The counter
// lives beside the function so a Set/restore cycle starts counting from
// one again.
type hook struct {
	fn func(n int64)
	n  atomic.Int64
}

var hooks [numPoints]atomic.Pointer[hook]

// Fire invokes the hook installed at p, passing the 1-based count of
// firings since installation. It is a no-op when p has no hook. The hook
// runs on the calling goroutine: it may sleep, panic, or cancel a
// context, and the search core is expected to unwind cleanly from all
// three.
func Fire(p Point) {
	h := hooks[p].Load()
	if h == nil {
		return
	}
	h.fn(h.n.Add(1))
}

// Set installs fn at p, replacing any previous hook, and returns a func
// restoring the point to its uninstalled state. Tests must call restore
// (defer or t.Cleanup) so later tests see a fault-free engine.
func Set(p Point, fn func(n int64)) (restore func()) {
	hooks[p].Store(&hook{fn: fn})
	return func() { hooks[p].Store(nil) }
}

// Reset uninstalls every hook. Test helpers call it to guarantee a clean
// slate regardless of restore discipline.
func Reset() {
	for p := range hooks {
		hooks[p].Store(nil)
	}
}
