package core

import (
	"fmt"
	"time"

	"skysr/internal/dijkstra"
	"skysr/internal/faults"
	"skysr/internal/graph"
	"skysr/internal/pq"
	"skysr/internal/route"
)

// QueryUnordered answers the "skyline trip planning query" extension (§6):
// the route must satisfy every requirement of seq exactly once, in any
// order. Queue entries carry the set of satisfied positions; when a PoI is
// found it may serve any still-unsatisfied position it semantically
// matches, and positions already covered are deleted from the search, as
// the paper sketches.
//
// Expansions run the ordered path's modified Dijkstra and on-the-fly
// cache: one run per (origin, unsatisfied set) matches every open
// position within the Lemma 5.3 radius, and its entry serves later
// expansions up to that radius. With Options.Index both the runs and the
// routes are cut by the largest open row: a run skips a vertex once its
// distance plus the largest open position's tree-row entry there reaches
// the radius, and a route is dropped at enqueue and at pop once its
// length plus the largest open row entry at its last PoI reaches the
// threshold. Every open position must still be visited after either
// point (see runMDijkstra). The ordered-only optimizations do not
// transfer to the unordered setting: a PoI reached through a perfect
// match of one position may serve another, so the Lemma 5.5 substitution
// argument fails and begin leaves the path filter off for this loop, and
// no §5.3.3 hop bounds are computed. The threshold, the priority queue
// arrangement and NNinit seeding apply as well. Without the filter, top-k
// needs no special handling beyond the band itself: every threshold check
// below cuts against the k-th-best length.
func (s *Searcher) QueryUnordered(start graph.VertexID, seq route.Sequence) (*Result, error) {
	if len(seq) > 30 {
		return nil, fmt.Errorf("core: unordered queries support at most 30 positions, got %d", len(seq))
	}
	if err := s.begin(start, seq, false); err != nil {
		return nil, err
	}
	full := uint32(1)<<len(seq) - 1
	if s.opts.InitialSearch && !s.cc.cancelled() {
		s.unorderedInit(start, full)
	}

	type entry struct {
		r    *route.Route
		mask uint32 // satisfied positions
	}
	qb := pq.NewHeap(func(a, b entry) bool { return s.routeLess(a.r, b.r) })

	// pruneByIndex is the unordered index bound: completing e costs at
	// least the distance from its last PoI to the nearest semantic match
	// of each open position, so at least the largest of those row
	// entries (GoalBound over goalRows, as in the runs' frontier cut).
	pruneByIndex := func(e entry) bool {
		if !s.idxRows.any {
			return false
		}
		var matchBuf [8]int32
		var goalBuf [8][]float32
		open := s.matchPositions(matchBuf[:0], e.r.Size(), full&^e.mask)
		lb := dijkstra.GoalBound(s.goalRows(goalBuf[:0], e.r.Size(), open), e.r.Last())
		if e.r.Length()+lb < s.sky.Threshold(e.r.Semantic()) {
			return false
		}
		s.stats.PrunedByIndex++
		return true
	}

	expand := func(e entry, from graph.VertexID) {
		radius := s.sky.Threshold(e.r.Semantic()) - e.r.Length()
		if radius <= 0 {
			return
		}
		key := cacheKey{from: from, open: full &^ e.mask, pos: e.r.Size(), depart: s.expandDepart(e.r)}
		for _, c := range s.lookupOrRun(key, radius) {
			if e.r.Contains(c.v) {
				continue
			}
			rt := e.r.Extend(s.scorer, c.v, c.dist, c.sim)
			if rt.Length() >= s.sky.Threshold(rt.Semantic()) {
				continue
			}
			next := entry{r: rt, mask: e.mask | 1<<uint(c.pos)}
			switch {
			case next.mask == full:
				s.sky.Update(rt)
			case pruneByIndex(next):
			default:
				qb.Push(next)
				s.stats.RoutesEnqueued++
				if qb.Len() > s.stats.PeakQueueLen {
					s.stats.PeakQueueLen = qb.Len()
				}
			}
		}
	}

	if !s.cc.cancelled() {
		expand(entry{r: route.Empty(s.scorer)}, start)
	}
	for qb.Len() > 0 {
		faults.Fire(faults.RoutePop)
		if s.cc.tick() {
			break
		}
		e := qb.Pop()
		s.stats.RoutesPopped++
		if e.r.Length() >= s.sky.Threshold(e.r.Semantic()) {
			s.stats.PrunedThreshold++
			continue
		}
		s.noteTopKPop(e.r)
		if pruneByIndex(e) {
			continue
		}
		expand(e, e.r.Last())
	}

	if err := s.finish(s.sky.Len()); err != nil {
		return &Result{Stats: s.stats}, err
	}
	return &Result{Routes: s.sky.Routes(), Stats: s.stats}, nil
}

// unorderedInit greedily chains nearest perfect matches over the remaining
// positions to seed the upper bound, mirroring NNinit.
func (s *Searcher) unorderedInit(start graph.VertexID, full uint32) {
	began := time.Now()
	r := route.Empty(s.scorer)
	from := start
	mask := uint32(0)
	for mask != full {
		next, d, pos := s.greedyStage(r, from, 0, full&^mask)
		if next == graph.NoVertex {
			break
		}
		r = r.Extend(s.scorer, next, d, 1.0)
		mask |= 1 << uint(pos)
		from = next
	}
	if mask == full {
		s.sky.Update(r)
		s.stats.InitRoutes = 1
	}
	s.stats.InitTime = time.Since(began)
	s.stats.InitPerfectL = s.sky.ThresholdPerfect()
}
