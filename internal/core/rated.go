package core

import (
	"fmt"
	"math"
	"time"

	"skysr/internal/dataset"
	"skysr/internal/graph"
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
// branch-and-bound machinery generalizes: the search loop runs as for an
// ordered query, on a three-criteria skyline whose Eq. 3 threshold is the
// min length over members dominating in BOTH non-length criteria.
//
// The Lemma 5.5 path filter does not carry over (a more-similar
// intermediate PoI may have a worse rating, breaking the substitution
// argument), so begin leaves it off and the modified Dijkstra runs
// unfiltered here, whatever Options.DisablePathFilter says. Of the §5.3.3
// rule, the semantic half remains sound and is applied when LowerBounds
// is enabled; the Lemma 5.8 half needs a two-criteria skyline.
func (s *Searcher) QueryRated(start graph.VertexID, seq route.Sequence) (*RatedResult, error) {
	if s.opts.TopK > 1 {
		return nil, fmt.Errorf("core: top-k enumeration does not extend to the three-criteria rated query")
	}
	if err := s.begin(start, seq, rated); err != nil {
		return nil, err
	}
	if s.opts.InitialSearch && !s.cc.cancelled() {
		s.ratedInit(start, s.sky3)
	}
	if s.opts.LowerBounds && !s.cc.cancelled() {
		// Algorithm 4's radius restriction is unsound with three
		// criteria: a route whose semantic AND rating scores are below
		// every member's has an unbounded threshold, so no finite radius
		// caps the relevant PoIs (unless a member with s = ρ = 0 exists).
		// The hop minimum distances are therefore computed unrestricted —
		// still valid lower bounds, just looser than the 2D case.
		s.computeBounds(start, math.Inf(1))
	}
	res, err := s.search(start, 0)
	out := &RatedResult{Stats: res.Stats}
	if err != nil {
		return out, err
	}
	for _, p := range s.sky3.Points() {
		out.Routes = append(out.Routes, RatedRoute{Route: p.Route, Rating: p.R})
	}
	return out, nil
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
