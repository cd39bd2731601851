package core

import (
	"math"
	"time"

	"skysr/internal/dijkstra"
	"skysr/internal/graph"
	"skysr/internal/index"
	"skysr/internal/route"
)

// runNNinit is Algorithm 3: chain |Sq| nearest-neighbour searches for
// perfectly matching PoIs to build one sequenced route with semantic score
// 0, additionally seeding S with every semantically matching PoI settled
// during the last stage (Example 5.6). The routes it finds initialize the
// branch-and-bound upper bound; without them the first modified Dijkstra
// has no threshold and traverses the whole graph (Table 7). With the
// category index every stage runs on its rows (greedyStage, lastStage),
// and seeds the same routes in the same order.
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
	last := len(s.seq) - 1
	r := route.Empty(s.scorer)
	from := start
	for i := 0; i < last; i++ {
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
	// Every semantic match on the final stage yields a candidate sequenced
	// route (Algorithm 3 lines 9–11).
	for _, c := range s.lastStage(r, from) {
		cand := r.Extend(s.scorer, c.v, c.dist, c.sim)
		if s.hasDest() {
			var ok bool
			if cand, ok = s.completeToDest(cand); !ok {
				continue
			}
		}
		s.stats.InitRoutes++
		if maxSemRoute == nil || cand.Semantic() > maxSemRoute.Semantic() ||
			(cand.Semantic() == maxSemRoute.Semantic() && cand.Length() < maxSemRoute.Length()) {
			maxSemRoute = cand
		}
		s.sky.Update(cand)
	}
}

// lastStage is NNinit's final stage from `from`, the end of r: a Dijkstra
// that collects, in settle order, every PoI off r semantically matching
// the last position, up to and including the first perfect match it
// settles. It returns them in a buffer the next call reuses.
//
// With the category index the stage is cut by the tree row. One A*
// greedyStage first finds the nearest perfect match P, at distance d_P;
// the collecting run then carries the last position's tree row as its
// goal, with Bound just above d_P. By runMDijkstra's frontier-cut
// argument every semantic match within d_P, P among them, still settles
// at its exact distance and in the same order, so the run collects what
// the plain one does while skipping every vertex that leads to no match
// within d_P. Should the bounded run still end without a perfect match,
// it is redone unbounded. With no perfect match reachable the run keeps
// the goal row and runs unbounded; its +Inf entries drop every vertex
// from which no semantic match is reachable, the source included.
func (s *Searcher) lastStage(r *route.Route, from graph.VertexID) []candidate {
	last := len(s.seq) - 1
	var goalBuf [1][]float32
	goal := goalBuf[:0]
	bound := 0.0
	if row := s.idxRows.semRow(last); row != nil {
		goal = append(goal, row)
		if p, dP, _ := s.greedyStage(r, from, last, 0); p != graph.NoVertex {
			bound = math.Nextafter(dP, math.Inf(1))
		}
	}
	if s.cc.checkpoint() {
		return nil
	}
	seeds, perfect := s.collectSeeds(r, from, goal, bound)
	if !perfect && bound > 0 && !s.cc.cancelled() {
		seeds, _ = s.collectSeeds(r, from, goal, 0)
	}
	return seeds
}

// collectSeeds runs lastStage's collecting Dijkstra under the given goal
// rows and bound, and reports whether it reached a perfect match.
func (s *Searcher) collectSeeds(r *route.Route, from graph.VertexID, goal [][]float32, bound float64) ([]candidate, bool) {
	g := s.d.Graph
	matcher := s.seq[len(s.seq)-1]
	s.seeds = s.seeds[:0]
	perfect := false
	s.stats.SettledVertices += int64(s.ws.Run(dijkstra.Options{
		Sources:       []graph.VertexID{from},
		Bound:         bound,
		Goal:          goal,
		TimeDependent: s.td,
		DepartAt:      s.expandDepart(r),
		Halt:          s.cc.halt(),
		OnSettle: func(v graph.VertexID, d float64) dijkstra.Control {
			if !g.IsPoI(v) || r.Contains(v) {
				return dijkstra.Continue
			}
			cats := g.Categories(v)
			if sim := matcher.Sim(cats); sim > 0 {
				s.seeds = append(s.seeds, candidate{v: v, dist: d, sim: sim})
				if matcher.Perfect(cats) {
					perfect = true
					return dijkstra.Stop
				}
			}
			return dijkstra.Continue
		},
	}))
	return s.seeds, perfect
}

// greedyStage is one stage of the greedy initial searches (NNinit's
// intermediate stages and the probe before its last one, ratedInit and
// unorderedInit): a Dijkstra from `from`, departing when r arrives there,
// for the PoI off r perfectly matching one of the positions pos and open
// name (see matchPositions) with the least (distance, vertex id). It
// returns that PoI, its distance and the position it matched, or NoVertex
// when none is reachable or the query is cancelled.
//
// With the category index the stage is A*: the potential is the smallest
// of the matched positions' own category rows (idxRows.potential), each a
// lower bound on the distance to the position's nearest perfect match,
// since perfect matches are among the category's associated PoIs. A +Inf
// entry proves no match is reachable, so a stage whose start it marks
// settles nothing. A match settles only at its exact distance (see the
// dijkstra package doc), and StopAfterTies settles every vertex keyed at
// the match's distance before the stage ends: a zero-weight arc, or a
// vertex whose key ties the match's, can still lead to a match with a
// smaller id at that distance. The plain stage keeps the same rule, so
// both return the same PoI.
func (s *Searcher) greedyStage(r *route.Route, from graph.VertexID, pos int, open uint32) (graph.VertexID, float64, int) {
	next, dist, at := graph.NoVertex, 0.0, -1
	if s.cc.checkpoint() {
		return next, dist, at
	}
	g := s.d.Graph
	var matchBuf [8]int32
	var potBuf [8][]float32
	match := s.matchPositions(matchBuf[:0], pos, open)
	s.stats.SettledVertices += int64(s.ws.Run(dijkstra.Options{
		Sources:   []graph.VertexID{from},
		Potential: s.idxRows.potential(potBuf[:0], match),
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
					if next == graph.NoVertex || d < dist || d == dist && v < next {
						next, dist, at = v, d, int(p)
					}
					return dijkstra.StopAfterTies
				}
			}
			return dijkstra.Continue
		},
	}))
	return next, dist, at
}

// semRow returns position i's tree row, nil when there is none.
func (ir *indexRows) semRow(i int) index.Row {
	if i >= len(ir.sem) {
		return nil
	}
	return ir.sem[i]
}

// potential appends to buf the rows of a greedy stage's A* potential over
// the positions in match: each position's own category row, or its tree
// row where the own row is missing (a semantic match is nearer than any
// perfect one). A position with neither leaves buf empty, and the stage
// runs plain.
func (ir *indexRows) potential(buf [][]float32, match []int32) [][]float32 {
	for _, p := range match {
		row := ir.semRow(int(p))
		if int(p) < len(ir.perf) && ir.perf[p] != nil {
			row = ir.perf[p]
		}
		if row == nil {
			return buf[:0]
		}
		buf = append(buf, row)
	}
	return buf
}
