package core

// The span bridge: when Options.Context carries a trace
// (trace.NewContext), a query synthesizes a trace-span tree beneath its
// root mirroring the search stages — NNinit, the §5.3.3 bounds, one span
// per hop ("leg") aggregating the search work that extended routes by
// that hop, and the §6 destination leg — so a retained trace doubles as
// a query explain. Like the metrics bridge (metrics.go), span
// construction happens once at query end from Stats plus per-leg
// aggregates; the hot loops only bump plain counters behind a nil check,
// so untraced queries pay one predictable branch and traced queries stay
// within the serving tier's 1.05× instrumentation budget.

import (
	"fmt"
	"time"

	"skysr/internal/taxonomy"
	"skysr/internal/trace"
)

// legTrace aggregates one hop's search work for the span tree. legs[i]
// describes the expansions of routes holding i PoIs: on an ordered or
// rated query the searches for position i's PoIs, on an unordered one the
// searches for the (i+1)-th PoI, whichever position it serves.
type legTrace struct {
	runs            int64
	settled         int64
	cacheHits       int64
	sharedHits      int64
	enqueued        int64 // candidates this leg's searches put on the queue
	popped          int64 // routes popped to expand this position
	prunedThreshold int64
	prunedBounds    int64
	prunedIndex     int64
	time            time.Duration
	firstDepart     float64 // TD departure of the leg's first run
	hasDepart       bool
}

// initTrace arms the per-query span state: the query span and one leg
// aggregate per hop, for every query shape.
func (s *Searcher) initTrace() {
	s.span = nil
	s.legs = nil
	parent := trace.SpanFromContext(s.opts.Context)
	if parent == nil {
		return
	}
	s.span = parent.StartSpan("search")
	s.legs = make([]legTrace, len(s.seq))
}

// legHook returns the aggregate for the hop that extends routes of size
// hop, nil when the query is untraced (the hot-path gate).
func (s *Searcher) legHook(hop int) *legTrace {
	if s.legs == nil || hop < 0 || hop >= len(s.legs) {
		return nil
	}
	return &s.legs[hop]
}

// finishTrace synthesizes the stage spans from Stats and the leg
// aggregates, annotates the query span, and ends it. Interrupted queries
// (err != nil) record their partial tree with the interruption noted —
// the flight recorder keeps those unconditionally, which is exactly when
// an explain matters most.
func (s *Searcher) finishTrace(err error) {
	sp := s.span
	if sp == nil {
		return
	}
	st := &s.stats
	qStart := sp.Start()

	if s.opts.InitialSearch {
		ns := sp.Record("nninit", qStart, st.InitTime)
		ns.Set("routes", st.InitRoutes)
		if st.InitRatio > 0 {
			ns.Set("ratio", st.InitRatio)
		}
	}
	boundsStart := qStart.Add(st.InitTime)
	if s.opts.LowerBounds && s.shape != unordered {
		bs := sp.Record("bounds", boundsStart, st.BoundsTime)
		bs.Set("semantic", st.SemanticBound)
		bs.Set("perfect", st.PerfectBound)
		bs.Set("from_index", st.IndexCovered)
	}
	// Leg spans share the main-loop start: their searches interleave in
	// reality, so only their durations (summed m-Dijkstra wall time per
	// hop) are meaningful, not their relative offsets. A hop of an
	// unordered query serves no one position, so its leg names none.
	loopStart := boundsStart.Add(st.BoundsTime)
	positional := s.shape != unordered
	for i := range s.legs {
		lg := &s.legs[i]
		ls := sp.Record(fmt.Sprintf("leg[%d]", i), loopStart, lg.time)
		if positional && i < len(s.idxRows.cats) && s.idxRows.cats[i] != taxonomy.NoCategory {
			ls.Set("category", int(s.idxRows.cats[i]))
		}
		ls.Set("runs", lg.runs)
		ls.Set("settled", lg.settled)
		ls.Set("cache_hits", lg.cacheHits)
		if lg.sharedHits > 0 {
			ls.Set("shared_hits", lg.sharedHits)
		}
		ls.Set("popped", lg.popped)
		ls.Set("enqueued", lg.enqueued)
		if lg.prunedThreshold > 0 {
			ls.Set("pruned_threshold", lg.prunedThreshold)
		}
		if lg.prunedBounds > 0 {
			ls.Set("pruned_bounds", lg.prunedBounds)
		}
		if lg.prunedIndex > 0 {
			ls.Set("pruned_index", lg.prunedIndex)
		}
		if positional && i < len(s.idxRows.sem) {
			ls.Set("index_row", s.idxRows.sem[i] != nil)
		}
		if lg.hasDepart {
			ls.Set("depart", lg.firstDepart)
		}
	}
	if st.DestLegRuns > 0 {
		ds := sp.Record("destleg", loopStart, st.DestLegTime)
		ds.Set("runs", st.DestLegRuns)
	}

	sp.Set("results", st.Results)
	if st.TopK > 1 {
		sp.Set("topk", st.TopK)
	}
	if s.td {
		sp.Set("depart", s.depart)
	}
	sp.Set("popped", st.RoutesPopped)
	sp.Set("enqueued", st.RoutesEnqueued)
	sp.Set("settled", st.SettledVertices)
	sp.Set("md_runs", st.MDijkstraRuns)
	sp.Set("md_requests", st.MDijkstraRequests)
	sp.Set("cache_hits", st.CacheHits)
	if st.SharedCacheHits > 0 {
		sp.Set("shared_hits", st.SharedCacheHits)
	}
	sp.Set("pruned_threshold", st.PrunedThreshold)
	sp.Set("pruned_bounds", st.PrunedByBounds)
	sp.Set("pruned_index", st.PrunedByIndex)
	sp.Set("index_covered", st.IndexCovered)
	if err != nil {
		sp.Set("interrupted", err.Error())
	}
	sp.End()
	s.span = nil
	s.legs = nil
}
