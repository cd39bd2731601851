package core

// The span bridge: when Options.Span is set, a query synthesizes a
// trace-span tree mirroring its search stages — NNinit, the §5.3.3
// bounds, one span per sequence position ("leg") aggregating that
// position's modified-Dijkstra work, and the §6 destination leg — so a
// retained trace doubles as a query explain. Like the metrics bridge
// (metrics.go), span construction happens once at query end from Stats
// plus per-leg aggregates; the hot loops only bump plain counters behind
// a nil check, so untraced queries pay one predictable branch and traced
// queries stay within the serving tier's 1.05× instrumentation budget.

import (
	"fmt"
	"time"

	"skysr/internal/taxonomy"
)

// legTrace aggregates one sequence position's search work for the span
// tree. legs[i] describes the searches that looked for position i's PoIs
// — i.e. expansions of routes holding i PoIs.
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

// initTrace arms the per-query span state. legged selects per-position
// aggregation (ordered/destination queries); the unordered and rated
// loops report stage totals only: each unordered modified Dijkstra
// searches a set of open positions rather than one, and the rated loop
// keeps no per-leg counters.
func (s *Searcher) initTrace(legged bool) {
	s.span = nil
	s.legs = nil
	parent := s.opts.Span
	if parent == nil {
		return
	}
	s.span = parent.StartSpan("search")
	if legged {
		s.legs = make([]legTrace, len(s.seq))
	}
}

// legHook returns the aggregate for position pos, nil when the query is
// untraced (the hot-path gate).
func (s *Searcher) legHook(pos int) *legTrace {
	if s.legs == nil || pos < 0 || pos >= len(s.legs) {
		return nil
	}
	return &s.legs[pos]
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
	if s.opts.LowerBounds && s.legs != nil {
		bs := sp.Record("bounds", boundsStart, st.BoundsTime)
		bs.Set("semantic", st.SemanticBound)
		bs.Set("perfect", st.PerfectBound)
		bs.Set("from_index", st.IndexCovered)
	}
	// Leg spans share the main-loop start: their searches interleave in
	// reality, so only their durations (summed m-Dijkstra wall time per
	// position) are meaningful, not their relative offsets.
	loopStart := boundsStart.Add(st.BoundsTime)
	for i := range s.legs {
		lg := &s.legs[i]
		ls := sp.Record(fmt.Sprintf("leg[%d]", i), loopStart, lg.time)
		if i < len(s.idxRows.cats) && s.idxRows.cats[i] != taxonomy.NoCategory {
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
		if i < len(s.idxRows.sem) {
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
