package serve

import (
	"context"
	"errors"
	"net/http"
	"sync/atomic"

	"skysr/internal/trace"
)

// errSaturated reports that both the execution slots and the wait queue
// are full; the caller maps it to 429 + Retry-After.
var errSaturated = errors.New("serve: admission queue full")

// admission is a bounded two-stage gate for the heavy endpoints: a slot
// channel bounds the requests executing at once, and a counter bounds the
// requests allowed to wait for a slot. Beyond both, requests are rejected
// immediately — a saturated tier answering 429 fast beats one queueing
// unboundedly until every client has timed out anyway.
type admission struct {
	slots    chan struct{}
	maxQueue int
	queued   atomic.Int64
	inFlight atomic.Int64
}

func newAdmission(maxConcurrent, maxQueue int) *admission {
	return &admission{slots: make(chan struct{}, maxConcurrent), maxQueue: maxQueue}
}

func (a *admission) maxConcurrent() int   { return cap(a.slots) }
func (a *admission) inFlightCount() int64 { return a.inFlight.Load() }
func (a *admission) queueDepth() int64    { return a.queued.Load() }

// acquire claims an execution slot, waiting in the bounded queue if none
// is free. It returns errSaturated when the queue is full and the context
// error when the caller gave up (or the server started draining) while
// queued.
func (a *admission) acquire(ctx context.Context) error {
	// Fast path: a free slot means no queueing at all.
	select {
	case a.slots <- struct{}{}:
		a.inFlight.Add(1)
		return nil
	default:
	}
	if a.queued.Add(1) > int64(a.maxQueue) {
		a.queued.Add(-1)
		return errSaturated
	}
	defer a.queued.Add(-1)
	select {
	case a.slots <- struct{}{}:
		a.inFlight.Add(1)
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// release returns the slot claimed by a successful acquire.
func (a *admission) release() {
	a.inFlight.Add(-1)
	<-a.slots
}

// retryAfter is the Retry-After hint, in seconds, on every rejection.
const retryAfter = "1"

// admit wraps a heavy handler in the admission gate. Rejections carry a
// Retry-After hint: 503 while draining or when the client's context died
// in the queue, 429 when the queue itself is full.
func (s *Server) admit(next http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if s.draining.Load() {
			s.rejected.Add(1)
			w.Header().Set("Retry-After", retryAfter)
			s.writeJSON(w, http.StatusServiceUnavailable, map[string]string{"error": "server is draining"})
			return
		}
		if err := s.adm.acquire(r.Context()); err != nil {
			s.rejected.Add(1)
			w.Header().Set("Retry-After", retryAfter)
			if errors.Is(err, errSaturated) {
				s.writeJSON(w, http.StatusTooManyRequests, map[string]string{"error": "server overloaded; retry later"})
			} else {
				// The client walked away (or the server began draining)
				// while the request sat in the queue: for the flight
				// recorder that is a cancellation, not a server error.
				if tr := trace.FromContext(r.Context()); tr != nil {
					tr.SetStatus(trace.StatusCancelled, "request abandoned while queued")
				}
				s.writeJSON(w, http.StatusServiceUnavailable, map[string]string{"error": "request abandoned while queued"})
			}
			return
		}
		defer s.adm.release()
		next(w, r)
	}
}
