package core

import (
	"fmt"
	"time"

	"skysr/internal/dataset"
	"skysr/internal/dijkstra"
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
// argument), so the modified Dijkstra runs unfiltered here; the minimum-
// distance semantic rule of §5.3.3 remains sound and is applied when
// LowerBounds is enabled.
func (s *Searcher) QueryRated(start graph.VertexID, seq route.Sequence) (*RatedResult, error) {
	if len(seq) == 0 {
		return nil, fmt.Errorf("core: empty sequence")
	}
	if start < 0 || int(start) >= s.d.Graph.NumVertices() {
		return nil, fmt.Errorf("core: invalid start vertex %d", start)
	}
	if s.opts.TopK > 1 {
		return nil, fmt.Errorf("core: top-k enumeration does not extend to the three-criteria rated query")
	}
	if err := s.initMetric(); err != nil {
		return nil, err
	}
	if err := s.initCancel(); err != nil {
		return nil, err
	}
	began := time.Now()
	k := len(seq)
	s.resetQuery(seq) // s.sky is unused by the rated flow but kept valid

	// Unsound for three criteria — force the unfiltered modified Dijkstra
	// and restore the caller's option afterwards.
	savedFilter := s.opts.DisablePathFilter
	s.opts.DisablePathFilter = true
	defer func() { s.opts.DisablePathFilter = savedFilter }()

	sky3 := route.NewSkyline3()

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
	less := func(a, b entry) bool {
		if s.opts.ProposedQueue {
			if a.r.Size() != b.r.Size() {
				return a.r.Size() > b.r.Size()
			}
			if a.r.Semantic() != b.r.Semantic() {
				return a.r.Semantic() < b.r.Semantic()
			}
		}
		if a.r.Length() != b.r.Length() {
			return a.r.Length() < b.r.Length()
		}
		return a.r.Last() < b.r.Last()
	}
	qb := pq.NewHeap(less)

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
		r := rho(e)
		if e.r.Length() >= sky3.Threshold(e.r.Semantic(), r) {
			s.stats.PrunedThreshold++
			continue
		}
		// Category-index lower bound, three-criteria form: the next hop
		// costs at least the distance to the nearest PoI of the next
		// position's tree (sound because completions only worsen both
		// other scores).
		if s.idxRows.any {
			m := e.r.Size()
			if m >= 1 && m < k {
				if row := s.idxRows.sem[m]; row != nil {
					bound := e.r.Length() + float64(row[e.r.Last()])
					if s.bounds != nil {
						bound += s.bounds.lsSuffix[m]
					}
					if bound >= sky3.Threshold(e.r.Semantic(), r) {
						s.stats.PrunedByIndex++
						continue
					}
				}
			}
		}
		// §5.3.3 semantic rule, three-criteria form: every completion
		// adds at least the remaining semantic-match minimum distances.
		if s.bounds != nil {
			m := e.r.Size()
			if m >= 1 && m < k {
				if e.r.Length()+s.bounds.lsSuffix[m-1] >= sky3.Threshold(e.r.Semantic(), r) {
					s.stats.PrunedByBounds++
					continue
				}
			}
		}
		expand(e, e.r.Last())
	}

	s.stats.QueryTime = time.Since(began)
	s.stats.SettledVertices += s.ws.SettledCount()
	s.stats.Results = sky3.Len()
	s.cache = nil

	if err := s.cc.err; err != nil {
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
	g := s.d.Graph
	k := len(s.seq)
	r := route.Empty(s.scorer)
	penalty := 0.0
	from := start
	for i := 0; i < k; i++ {
		matcher := s.seq[i]
		next := graph.NoVertex
		nextDist := 0.0
		if s.cc.checkpoint() {
			s.stats.InitTime = time.Since(began)
			return
		}
		s.ws.Run(dijkstra.Options{
			Sources:  []graph.VertexID{from},
			Metric:   s.searchMetric(),
			DepartAt: s.expandDepart(r),
			Halt:     s.cc.halt(),
			OnSettle: func(v graph.VertexID, d float64) dijkstra.Control {
				if !g.IsPoI(v) || r.Contains(v) {
					return dijkstra.Continue
				}
				if matcher.Perfect(g.Categories(v)) {
					next, nextDist = v, d
					return dijkstra.Stop
				}
				return dijkstra.Continue
			},
		})
		if next == graph.NoVertex {
			s.stats.InitTime = time.Since(began)
			return
		}
		r = r.Extend(s.scorer, next, nextDist, 1.0)
		penalty += dataset.RatingPenalty(s.d.Rating(next))
		from = next
	}
	sky3.Update(route.Point3{L: r.Length(), S: r.Semantic(), R: penalty / float64(k), Route: r})
	s.stats.InitRoutes = 1
	s.stats.InitTime = time.Since(began)
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
