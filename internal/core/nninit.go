package core

import (
	"math"
	"time"

	"skysr/internal/dijkstra"
	"skysr/internal/graph"
	"skysr/internal/route"
)

// runNNinit is Algorithm 3: chain |Sq| nearest-neighbour searches for
// perfectly matching PoIs to build one sequenced route with semantic score
// 0, additionally seeding S with every semantically matching PoI settled
// during the last stage (Example 5.6). The routes it finds initialize the
// branch-and-bound upper bound; without them the first modified Dijkstra
// has no threshold and traverses the whole graph (Table 7).
func (s *Searcher) runNNinit(start graph.VertexID) {
	began, legBefore := time.Now(), s.stats.DestLegTime
	var maxSemRoute *route.Route // seed with the largest semantic score
	defer func() {
		// Time-dependent destination legs priced for the seeds below are
		// DestLegTime's; keep the stages exclusive.
		s.stats.InitTime = time.Since(began) - (s.stats.DestLegTime - legBefore)
		s.stats.InitPerfectL = s.sky.ThresholdPerfect()
		if maxSemRoute != nil && !math.IsInf(s.stats.InitPerfectL, 1) && maxSemRoute.Semantic() > 0 {
			s.stats.InitRatio = maxSemRoute.Length() / s.stats.InitPerfectL
		}
	}()
	g := s.d.Graph
	last := len(s.seq) - 1
	r := route.Empty(s.scorer)
	from := start

	// Index fast path, here and before the last stage: a +Inf row entry
	// proves no matching PoI is reachable from the chain's current end, so
	// the stage's search would sweep its whole reachable component and
	// find nothing — skip it. (Perfect matches are a subset of the
	// category's associated PoIs, which are a subset of the tree's.)
	for i := 0; i < last; i++ {
		if s.idxRows.noPerfectReachable(i, from) {
			return
		}
		next, d, _ := s.greedyStage(r, from, i, 0)
		if next == graph.NoVertex {
			// No reachable perfect match for this position: NNinit cannot
			// complete; the thresholds stay unseeded and BSSR proceeds
			// exactly.
			return
		}
		r = r.Extend(s.scorer, next, d, 1.0)
		from = next
	}
	if s.idxRows.noSemanticReachable(last, from) || s.cc.checkpoint() {
		return
	}
	update := func(cand *route.Route) {
		if s.hasDest() {
			var ok bool
			if cand, ok = s.completeToDest(cand); !ok {
				return
			}
		}
		s.stats.InitRoutes++
		if maxSemRoute == nil || cand.Semantic() > maxSemRoute.Semantic() ||
			(cand.Semantic() == maxSemRoute.Semantic() && cand.Length() < maxSemRoute.Length()) {
			maxSemRoute = cand
		}
		s.sky.Update(cand)
	}
	matcher := s.seq[last]
	s.stats.SettledVertices += int64(s.ws.Run(dijkstra.Options{
		Sources:       []graph.VertexID{from},
		TimeDependent: s.td,
		DepartAt:      s.expandDepart(r),
		Halt:          s.cc.halt(),
		OnSettle: func(v graph.VertexID, d float64) dijkstra.Control {
			if !g.IsPoI(v) || r.Contains(v) {
				return dijkstra.Continue
			}
			// Every semantic match on the final stage yields a candidate
			// sequenced route (Algorithm 3 lines 9–11).
			cats := g.Categories(v)
			if sim := matcher.Sim(cats); sim > 0 {
				update(r.Extend(s.scorer, v, d, sim))
				if matcher.Perfect(cats) {
					return dijkstra.Stop
				}
			}
			return dijkstra.Continue
		},
	}))
}

// greedyStage is one stage of the greedy initial searches (NNinit's
// intermediate stages, ratedInit and unorderedInit): a Dijkstra from
// `from`, departing when r arrives there, that stops at the nearest PoI
// off r perfectly matching one of the positions pos and open name (see
// matchPositions). It returns that PoI, its distance and the position it
// matched, or NoVertex when none is reachable or the query is cancelled.
func (s *Searcher) greedyStage(r *route.Route, from graph.VertexID, pos int, open uint32) (graph.VertexID, float64, int) {
	next, dist, at := graph.NoVertex, 0.0, -1
	if s.cc.checkpoint() {
		return next, dist, at
	}
	g := s.d.Graph
	match := s.matchPositions(nil, pos, open)
	s.stats.SettledVertices += int64(s.ws.Run(dijkstra.Options{
		Sources: []graph.VertexID{from},
		// Each stage of the chain departs when the chain arrives:
		// time-dependent datasets price it at that instant.
		TimeDependent: s.td,
		DepartAt:      s.expandDepart(r),
		Halt:          s.cc.halt(),
		OnSettle: func(v graph.VertexID, d float64) dijkstra.Control {
			if !g.IsPoI(v) || r.Contains(v) {
				return dijkstra.Continue
			}
			cats := g.Categories(v)
			for _, p := range match {
				if s.seq[p].Perfect(cats) {
					next, dist, at = v, d, int(p)
					return dijkstra.Stop
				}
			}
			return dijkstra.Continue
		},
	}))
	return next, dist, at
}
