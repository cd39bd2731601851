package osr

import (
	"cmp"
	"math"
	"slices"

	"skysr/internal/dataset"
	"skysr/internal/graph"
	"skysr/internal/route"
)

// Query is one query the reference enumerator answers: ordered or
// unordered, with or without a destination, a departure time or ratings.
type Query struct {
	Start graph.VertexID
	Seq   route.Sequence
	Agg   route.Aggregation
	// Dest adds the leg from the last PoI to Dest to every route's length
	// (the §6 destination variant); graph.NoVertex adds none.
	Dest graph.VertexID
	// DepartAt is the time the start is left. Each leg is priced when the
	// route reaches its tail, so it only matters on time-dependent graphs.
	DepartAt float64
	// Unordered lets every PoI serve any still open position (the §6
	// trip-planning variant) instead of the next one in sequence order.
	Unordered bool
	// Rated scores each route's mean rating penalty as its R coordinate
	// (the §9 three-criteria extension); otherwise R is 0.
	Rated bool
}

// BruteForce is the reference oracle for every query shape: it enumerates
// every sequenced route of q — each position served by a PoI of positive
// similarity, all PoIs distinct (Definition 3.4(iii)), each leg the exact
// shortest travel time from Distances at the time the leg starts — and
// returns the k-skyband of their (length, semantic, rating) points, sorted
// by (L, S, R), with one route per point. k = 1 is the skyline of
// Definition 4.1. It is exponential in the sequence length and shares no
// code with the search's Dijkstra kernel or result sets; never call it on
// a real dataset.
func BruteForce(d *dataset.Dataset, q Query, k int) []route.Point3 {
	g := d.Graph
	n := len(q.Seq)
	if n == 0 {
		return nil
	}
	// On a graph whose costs do not vary with time, one row per source
	// serves every departure.
	rows := map[graph.VertexID][]float64{}
	dist := func(src graph.VertexID, at float64) []float64 {
		if g.TimeVarying() {
			return Distances(g, src, at)
		}
		if rows[src] == nil {
			rows[src] = Distances(g, src, at)
		}
		return rows[src]
	}
	scorer := route.NewScorer(q.Agg, n)
	var points []route.Point3
	var rec func(r *route.Route, from graph.VertexID, open uint64, at, penalty float64)
	rec = func(r *route.Route, from graph.VertexID, open uint64, at, penalty float64) {
		if open == 0 {
			if q.Dest != graph.NoVertex {
				leg := dist(from, at)[q.Dest]
				if math.IsInf(leg, 1) {
					return
				}
				r = r.AddLength(leg)
			}
			p := route.Point3{L: r.Length(), S: r.Semantic(), Route: r}
			if q.Rated {
				p.R = penalty / float64(n)
			}
			points = append(points, p)
			return
		}
		row := dist(from, at)
		for pos, m := range q.Seq {
			if open&(1<<pos) == 0 {
				continue
			}
			for _, p := range g.PoIVertices() {
				if r.Contains(p) || math.IsInf(row[p], 1) {
					continue
				}
				if h := m.Sim(g.Categories(p)); h > 0 {
					rec(r.Extend(scorer, p, row[p], h), p, open&^(1<<pos), at+row[p],
						penalty+dataset.RatingPenalty(d.Rating(p)))
				}
			}
			if !q.Unordered {
				break // an ordered route serves its first open position next
			}
		}
	}
	rec(route.Empty(scorer), q.Start, 1<<n-1, q.DepartAt, 0)
	return Band(points, k)
}

// Band returns the k-skyband of points: each distinct (L, S, R) point that
// fewer than k other distinct points are componentwise ≤, sorted by
// (L, S, R); a repeated point keeps its first route. k < 1 counts as 1,
// the skyline. Every point ≤ p sorts before p, and a point the band drops
// already has k kept points ≤ it, so counting kept points as the sorted
// scan goes is exact.
func Band(points []route.Point3, k int) []route.Point3 {
	k = max(k, 1)
	sorted := slices.Clone(points)
	slices.SortStableFunc(sorted, func(a, b route.Point3) int {
		return cmp.Or(cmp.Compare(a.L, b.L), cmp.Compare(a.S, b.S), cmp.Compare(a.R, b.R))
	})
	var band []route.Point3
	for _, p := range sorted {
		if last := len(band) - 1; last >= 0 && band[last].L == p.L && band[last].S == p.S && band[last].R == p.R {
			continue
		}
		below := 0
		for _, b := range band {
			if b.L <= p.L && b.S <= p.S && b.R <= p.R {
				below++
			}
		}
		if below < k {
			band = append(band, p)
		}
	}
	return band
}

// Distances returns the shortest travel time from src, left at time
// depart, to every vertex (+Inf where unreachable). It is a plain O(V²)
// label-setting search that prices each arc with CostAt when its tail is
// left, the FIFO time-dependent reference of Costa et al.; on a static
// graph it is Dijkstra's algorithm. It shares no code with the search's
// kernel, so a kernel bug cannot hide in the oracle built on it.
func Distances(g *graph.Graph, src graph.VertexID, depart float64) []float64 {
	dist := make([]float64, g.NumVertices())
	done := make([]bool, len(dist))
	for i := range dist {
		dist[i] = math.Inf(1)
	}
	dist[src] = 0
	for {
		u, du := graph.NoVertex, math.Inf(1)
		for v, dv := range dist {
			if !done[v] && dv < du {
				u, du = graph.VertexID(v), dv
			}
		}
		if u == graph.NoVertex {
			return dist
		}
		done[u] = true
		ts, _ := g.Neighbors(u)
		base := g.ArcBase(u)
		for i, t := range ts {
			if dt := du + g.CostAt(base+int32(i), depart+du); dt < dist[t] {
				dist[t] = dt
			}
		}
	}
}
