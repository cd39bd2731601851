package core

import (
	"fmt"
	"time"

	"skysr/internal/graph"
	"skysr/internal/route"
)

// QueryUnordered answers the "skyline trip planning query" extension (§6):
// the route must satisfy every requirement of seq exactly once, in any
// order. Queue entries carry the set of positions the route has not
// served yet; when a PoI is found it may serve any of them it
// semantically matches, and positions already covered are deleted from
// the search, as the paper sketches.
//
// Expansions run the ordered path's modified Dijkstra and on-the-fly
// cache: one run per (origin, unsatisfied set) matches every open
// position within the Lemma 5.3 radius, and its entry serves later
// expansions up to that radius. With Options.Index both the runs and the
// routes are cut by the largest open row: a run skips a vertex once its
// distance plus the largest open position's tree-row entry there reaches
// the radius, and a route is dropped at enqueue and at pop once its
// length plus the largest open row entry at its last PoI reaches the
// threshold (pruneByIndex). Every open position must still be visited
// after either point (see runMDijkstra). The ordered-only optimizations
// do not transfer to the unordered setting: a PoI reached through a
// perfect match of one position may serve another, so the Lemma 5.5
// substitution argument fails and begin leaves the path filter off, and
// no §5.3.3 hop bounds are computed. The threshold, the priority queue
// arrangement and NNinit seeding apply as well. Without the filter, top-k
// needs no special handling beyond the band itself: every threshold check
// cuts against the k-th-best length.
func (s *Searcher) QueryUnordered(start graph.VertexID, seq route.Sequence) (*Result, error) {
	if len(seq) > 30 {
		return nil, fmt.Errorf("core: unordered queries support at most 30 positions, got %d", len(seq))
	}
	if err := s.begin(start, seq, unordered); err != nil {
		return nil, err
	}
	full := uint32(1)<<len(seq) - 1
	if s.opts.InitialSearch && !s.cc.cancelled() {
		s.unorderedInit(start, full)
	}
	return s.search(start, full)
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
