package core

import (
	"fmt"

	"skysr/internal/route"
)

// EventKind classifies search events for the Options.Trace hook.
type EventKind int

const (
	// EventPop fires when a partial route is fetched from the queue
	// (Algorithm 1 line 6).
	EventPop EventKind = iota
	// EventPruneThreshold fires when a fetched route fails the Eq. 3
	// threshold re-check (Table 4 steps 6 and 9).
	EventPruneThreshold
	// EventPruneBounds fires when the §5.3.3 lower bounds kill a route.
	EventPruneBounds
	// EventPruneIndex fires when the category index kills a route.
	EventPruneIndex
	// EventEnqueue fires when a partial route enters the queue.
	EventEnqueue
	// EventSkylineUpdate fires when a sequenced route is accepted into S.
	EventSkylineUpdate
	// EventSkylineReject fires when a sequenced route is dominated or
	// equivalent and rejected from S.
	EventSkylineReject
	// EventMDijkstraRun fires when a modified Dijkstra actually executes.
	EventMDijkstraRun
	// EventCacheHit fires when an expansion is served from the on-the-fly
	// cache.
	EventCacheHit
)

// String implements fmt.Stringer.
func (k EventKind) String() string {
	switch k {
	case EventPop:
		return "pop"
	case EventPruneThreshold:
		return "prune-threshold"
	case EventPruneBounds:
		return "prune-bounds"
	case EventPruneIndex:
		return "prune-index"
	case EventEnqueue:
		return "enqueue"
	case EventSkylineUpdate:
		return "skyline-update"
	case EventSkylineReject:
		return "skyline-reject"
	case EventMDijkstraRun:
		return "mdijkstra-run"
	case EventCacheHit:
		return "cache-hit"
	default:
		return fmt.Sprintf("EventKind(%d)", int(k))
	}
}

// Event is one observable step of a BSSR search.
type Event struct {
	Kind  EventKind
	Route *route.Route // the route involved (nil for pure search events)
}

func (s *Searcher) emit(kind EventKind, r *route.Route) {
	if s.opts.Trace != nil {
		s.opts.Trace(Event{Kind: kind, Route: r})
	}
}
