package core

import (
	"fmt"
	"time"

	"skysr/internal/dataset"
	"skysr/internal/faults"
	"skysr/internal/graph"
	"skysr/internal/pq"
	"skysr/internal/route"
)

// RatedRoute is a skyline route of the three-criteria query: the route
// plus its rating penalty (0 = every visited PoI is top-rated, 1 = all
// bottom-rated).
type RatedRoute struct {
	Route  *route.Route
	Rating float64
}

// RatedResult is the answer of QueryRated.
type RatedResult struct {
	// Routes is the three-dimensional skyline, sorted by ascending length.
	Routes []RatedRoute
	Stats  Stats
}

// QueryRated answers the §9 multi-attribute extension: routes
// Pareto-optimal in (length, semantic score, rating penalty). The rating
// penalty of a partial route is its possible minimum — remaining positions
// assumed top-rated — so it is monotone under extension and the
// branch-and-bound machinery generalizes: the Eq. 3 threshold becomes
// min length over skyline members dominating in BOTH non-length criteria.
//
// The Lemma 5.5 path filter does not carry over (a more-similar
// intermediate PoI may have a worse rating, breaking the substitution
// argument), so begin leaves it off and the modified Dijkstra runs
// unfiltered here, whatever Options.DisablePathFilter says; the minimum-
// distance semantic rule of §5.3.3 remains sound and is applied when
// LowerBounds is enabled.
func (s *Searcher) QueryRated(start graph.VertexID, seq route.Sequence) (*RatedResult, error) {
	if s.opts.TopK > 1 {
		return nil, fmt.Errorf("core: top-k enumeration does not extend to the three-criteria rated query")
	}
	if err := s.begin(start, seq, false); err != nil {
		return nil, err
	}
	k := len(seq)
	sky3 := route.NewSkyline3() // s.sky is unused by the rated flow but kept valid

	if s.opts.InitialSearch && !s.cc.cancelled() {
		s.ratedInit(start, sky3)
	}
	if s.opts.LowerBounds && !s.cc.cancelled() {
		// Algorithm 4's radius restriction is unsound with three
		// criteria: a route whose semantic AND rating scores are below
		// every member's has an unbounded threshold, so no finite radius
		// caps the relevant PoIs (unless a member with s = ρ = 0 exists).
		// The hop minimum distances are therefore computed unrestricted —
		// still valid lower bounds, just looser than the 2D case.
		s.computeBoundsUnrestricted(start)
	}

	type entry struct {
		r       *route.Route
		penalty float64 // Σ (1 − rating/MaxRating) over visited PoIs
	}
	rho := func(e entry) float64 { return e.penalty / float64(k) }
	qb := pq.NewHeap(func(a, b entry) bool { return s.routeLess(a.r, b.r) })

	expand := func(e entry, from graph.VertexID) {
		threshold := sky3.Threshold(e.r.Semantic(), rho(e))
		radius := threshold - e.r.Length()
		if radius <= 0 {
			return
		}
		key := cacheKey{from: from, pos: e.r.Size(), depart: s.expandDepart(e.r)}
		for _, c := range s.lookupOrRun(key, radius) {
			if e.r.Contains(c.v) {
				continue
			}
			rt := e.r.Extend(s.scorer, c.v, c.dist, c.sim)
			pen := e.penalty + dataset.RatingPenalty(s.d.Rating(c.v))
			nrho := pen / float64(k)
			if rt.Length() >= sky3.Threshold(rt.Semantic(), nrho) {
				continue
			}
			if rt.Size() == k {
				sky3.Update(route.Point3{L: rt.Length(), S: rt.Semantic(), R: nrho, Route: rt})
			} else {
				qb.Push(entry{r: rt, penalty: pen})
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
		threshold := sky3.Threshold(e.r.Semantic(), rho(e))
		if e.r.Length() >= threshold {
			s.stats.PrunedThreshold++
			continue
		}
		// The ordered loop's category-index bound holds here too:
		// completions only worsen both other scores.
		if s.idxRows.any && s.pruneByIndex(e.r, threshold) {
			s.stats.PrunedByIndex++
			continue
		}
		// §5.3.3 semantic rule, three-criteria form: every completion
		// adds at least the remaining semantic-match minimum distances.
		if m := e.r.Size(); s.bounds != nil && m >= 1 && m < k &&
			e.r.Length()+s.bounds.lsSuffix[m-1] >= threshold {
			s.stats.PrunedByBounds++
			continue
		}
		expand(e, e.r.Last())
	}

	if err := s.finish(sky3.Len()); err != nil {
		return &RatedResult{Stats: s.stats}, err
	}
	res := &RatedResult{Stats: s.stats}
	for _, p := range sky3.Points() {
		res.Routes = append(res.Routes, RatedRoute{Route: p.Route, Rating: p.R})
	}
	return res, nil
}

// ratedInit seeds the three-criteria skyline: a chain of nearest perfect
// matches (upper-bounding length at semantic 0), then the same chain's
// scores with its actual ratings.
func (s *Searcher) ratedInit(start graph.VertexID, sky3 *route.Skyline3) {
	began := time.Now()
	defer func() { s.stats.InitTime = time.Since(began) }()
	r := route.Empty(s.scorer)
	penalty := 0.0
	from := start
	for i := range s.seq {
		next, d, _ := s.greedyStage(r, from, i, 0)
		if next == graph.NoVertex {
			return
		}
		r = r.Extend(s.scorer, next, d, 1.0)
		penalty += dataset.RatingPenalty(s.d.Rating(next))
		from = next
	}
	sky3.Update(route.Point3{L: r.Length(), S: r.Semantic(), R: penalty / float64(len(s.seq)), Route: r})
	s.stats.InitRoutes = 1
	s.stats.InitPerfectL = r.Length()
}

// computeBoundsUnrestricted runs Algorithm 4 without the l̄(∅) radius
// restriction, by pointing it at an empty (infinite-threshold) skyline.
func (s *Searcher) computeBoundsUnrestricted(start graph.VertexID) {
	saved := s.sky
	s.sky = route.NewSkyline()
	s.computeBounds(start)
	s.sky = saved
}
