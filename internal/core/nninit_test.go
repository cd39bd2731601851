package core

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"skysr/internal/dataset"
	"skysr/internal/gen"
	"skysr/internal/geo"
	"skysr/internal/graph"
	"skysr/internal/index"
	"skysr/internal/route"
	"skysr/internal/taxonomy"
)

// nninitDataset is a random connected dataset with rated PoIs, directed
// or not. With zero set, arcs weigh 0, 1 or 2, so zero-weight arcs and
// exact distance ties abound; otherwise weights are positive floats. With
// a positive period, half the arcs carry a random FIFO profile.
func nninitDataset(t *testing.T, rng *rand.Rand, f *taxonomy.Forest, vertices, pois int, directed, zero bool, period float64) *dataset.Dataset {
	t.Helper()
	b := graph.NewBuilder(directed)
	if period > 0 {
		if err := b.SetTimePeriod(period); err != nil {
			t.Fatal(err)
		}
	}
	weight := func(lo, spread float64) float64 {
		if zero {
			return float64(rng.Intn(3))
		}
		return lo + rng.Float64()*spread
	}
	edge := func(u, v graph.VertexID, lo, spread float64) {
		idx := b.AddEdge(u, v, weight(lo, spread))
		if period > 0 && rng.Intn(2) == 0 {
			if err := b.SetEdgeProfile(idx, gen.RandomFIFOProfile(rng, period, 1+rng.Intn(4), 12)); err != nil {
				t.Fatal(err)
			}
		}
	}
	road := func(u, v graph.VertexID, lo, spread float64) {
		edge(u, v, lo, spread)
		if directed {
			edge(v, u, lo, spread)
		}
	}
	for i := 0; i < vertices; i++ {
		b.AddVertex(geo.Point{Lon: rng.Float64(), Lat: rng.Float64()})
	}
	for i := 1; i < vertices; i++ {
		road(graph.VertexID(i), graph.VertexID(rng.Intn(i)), 1, 9)
	}
	for e := 0; e < vertices; e++ {
		if u, v := rng.Intn(vertices), rng.Intn(vertices); u != v {
			edge(graph.VertexID(u), graph.VertexID(v), 1, 9)
		}
	}
	leaves := f.Leaves()
	for i := 0; i < pois; i++ {
		p := b.AddPoI(geo.Point{Lon: rng.Float64(), Lat: rng.Float64()}, leaves[rng.Intn(len(leaves))])
		road(graph.VertexID(rng.Intn(vertices)), p, 0.1, 1)
		if rng.Intn(2) == 0 {
			road(graph.VertexID(rng.Intn(vertices)), p, 0.1, 1)
		}
	}
	d := dataset.MustNew("nninit", b.Build(), f)
	ratings := make([]float64, d.Graph.NumVertices())
	for i := range ratings {
		ratings[i] = dataset.MaxRating
	}
	for _, p := range d.Graph.PoIVertices() {
		ratings[p] = float64(rng.Intn(11)) / 2
	}
	if err := d.SetRatings(ratings); err != nil {
		t.Fatal(err)
	}
	return d
}

// nninitOutcome renders what NNinit seeds and what the query answers:
// the init counters and, route by route, the PoIs, length, semantic
// score and (for a rated query) rating, every float at full precision.
func nninitOutcome(st Stats, routes []*route.Route, ratings []float64) string {
	var b strings.Builder
	fmt.Fprintf(&b, "init %d %v %v |", st.InitRoutes, st.InitPerfectL, st.InitRatio)
	for i, r := range routes {
		fmt.Fprintf(&b, " %v %v %v", r.PoIs(), r.Length(), r.Semantic())
		if ratings != nil {
			fmt.Fprintf(&b, " %v", ratings[i])
		}
	}
	return b.String()
}

// TestNNinitIndexMatchesPlain is the differential test of NNinit on the
// category index: A* greedy stages under the positions' own rows, and a
// last stage cut by the tree row behind an A* probe. With the index and
// without it, every query must seed the same routes (InitRoutes,
// InitPerfectL, InitRatio) and answer the same routes, PoI by PoI, for
// ordered, destination, unordered and rated queries on static and
// time-dependent, positive-weight and zero-weight, directed and
// undirected graphs. On zero-weight graphs several perfect matches tie at
// one distance, so a stage that kept the first match it settled would
// seed different routes in the A* order than in the plain one.
func TestNNinitIndexMatchesPlain(t *testing.T) {
	rng := rand.New(rand.NewSource(83))
	f := taxonomy.Generated(2, 2, 2)
	var settledPlain, settledIndex int64
	for trial := 0; trial < 160; trial++ {
		zero, td, directed := trial%2 == 1, trial%4 >= 2, trial%8 >= 4
		period := 0.0
		if td {
			period = 60
		}
		d := nninitDataset(t, rng, f, 24, 18, directed, zero, period)
		n := d.Graph.NumVertices()
		seq := route.NewCategorySequence(f, f.WuPalmer, pickCats(rng, f, 2+rng.Intn(2))...)
		opts := DefaultOptions()
		if td {
			opts.DepartAt = rng.Float64() * period
		}
		plain := NewSearcher(d, f.WuPalmer, opts)
		opts.Index = index.New(d, 0)
		indexed := NewSearcher(d, f.WuPalmer, opts)
		for q := 0; q < 4; q++ {
			start, dest := graph.VertexID(rng.Intn(n)), graph.VertexID(rng.Intn(n))
			outcome := func(s *Searcher, shape string) (string, int64) {
				var res *Result
				var err error
				switch shape {
				case "ordered":
					res, err = s.Query(start, seq)
				case "destination":
					res, err = s.QueryWithDestination(start, seq, dest)
				case "unordered":
					res, err = s.QueryUnordered(start, seq)
				case "rated":
					rr, err := s.QueryRated(start, seq)
					if err != nil {
						t.Fatal(err)
					}
					routes, ratings := make([]*route.Route, len(rr.Routes)), make([]float64, len(rr.Routes))
					for i, r := range rr.Routes {
						routes[i], ratings[i] = r.Route, r.Rating
					}
					return nninitOutcome(rr.Stats, routes, ratings), rr.Stats.SettledVertices
				}
				if err != nil {
					t.Fatal(err)
				}
				return nninitOutcome(res.Stats, res.Routes, nil), res.Stats.SettledVertices
			}
			for _, shape := range []string{"ordered", "destination", "unordered", "rated"} {
				want, ws := outcome(plain, shape)
				got, gs := outcome(indexed, shape)
				if got != want {
					t.Fatalf("trial %d (zero %v, td %v, directed %v) start %d dest %d %s:\nindex: %s\nplain: %s",
						trial, zero, td, directed, start, dest, shape, got, want)
				}
				settledPlain += ws
				settledIndex += gs
			}
		}
	}
	if settledIndex >= settledPlain {
		t.Errorf("index queries settled %d vertices, plain ones %d", settledIndex, settledPlain)
	}
}
