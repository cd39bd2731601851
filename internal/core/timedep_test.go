package core

import (
	"math"
	"math/rand"
	"testing"

	"skysr/internal/dataset"
	"skysr/internal/dijkstra"
	"skysr/internal/gen"
	"skysr/internal/geo"
	"skysr/internal/graph"
	"skysr/internal/index"
	"skysr/internal/osr"
	"skysr/internal/route"
	"skysr/internal/taxonomy"
)

// tdDataset builds a small random connected dataset whose edges carry
// random FIFO travel-time profiles with probability frac. The period is
// sized comparable to route travel times, so the clock genuinely moves
// across profile segments within one route.
func tdDataset(rng *rand.Rand, f *taxonomy.Forest, vertices, pois int, period, frac float64) *dataset.Dataset {
	b := graph.NewBuilder(false)
	if err := b.SetTimePeriod(period); err != nil {
		panic(err)
	}
	profile := func(idx int) {
		if rng.Float64() < frac {
			p := gen.RandomFIFOProfile(rng, period, 1+rng.Intn(5), 12)
			if err := b.SetEdgeProfile(idx, p); err != nil {
				panic(err)
			}
		}
	}
	for i := 0; i < vertices; i++ {
		b.AddVertex(geo.Point{Lon: rng.Float64(), Lat: rng.Float64()})
	}
	for i := 1; i < vertices; i++ {
		profile(b.AddEdge(graph.VertexID(i), graph.VertexID(rng.Intn(i)), 1+rng.Float64()*9))
	}
	for e := 0; e < vertices; e++ {
		u, v := rng.Intn(vertices), rng.Intn(vertices)
		if u != v {
			profile(b.AddEdge(graph.VertexID(u), graph.VertexID(v), 1+rng.Float64()*9))
		}
	}
	leaves := f.Leaves()
	for i := 0; i < pois; i++ {
		attach := graph.VertexID(rng.Intn(vertices))
		p := b.AddPoI(geo.Point{Lon: rng.Float64(), Lat: rng.Float64()}, leaves[rng.Intn(len(leaves))])
		profile(b.AddEdge(attach, p, 0.1+rng.Float64()))
	}
	return dataset.MustNew("td-rand", b.Build(), f)
}

// tdVariants are the option configurations the time-dependent exactness
// tests sweep, including the category-index serving profile.
func tdVariants(d *dataset.Dataset, cats []taxonomy.CategoryID) map[string]Options {
	variants := map[string]Options{
		"none":     WithoutOptimizations(),
		"all":      DefaultOptions(),
		"no-cache": DefaultOptions(),
	}
	v := variants["no-cache"]
	v.Caching = false
	variants["no-cache"] = v

	ci := index.New(d, 0)
	for _, c := range cats {
		ci.Prewarm(c)
	}
	withCat := DefaultOptions()
	withCat.Index = ci
	variants["category-index"] = withCat
	return variants
}

// TestTimeDependentMatchesBruteForce is the time-dependent counterpart of
// the central exactness test: on random FIFO graphs, every optimization
// configuration (including the index serving profiles) must return
// exactly the skyline of the brute-force time-expanded enumeration, for
// several departure times.
func TestTimeDependentMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	f := taxonomy.Generated(3, 2, 3)
	for trial := 0; trial < 10; trial++ {
		d := tdDataset(rng, f, 18, 12, 60, 0.6)
		size := 2 + trial%2
		cats := pickCats(rng, f, size)
		seq := route.NewCategorySequence(d.Forest, d.Forest.WuPalmer, cats...)
		start := graph.VertexID(rng.Intn(d.Graph.NumVertices()))
		departs := []float64{0, rng.Float64() * 60, 55 + rng.Float64()*10}
		for _, depart := range departs {
			want := osr.BruteForce(d, osr.Query{Start: start, Seq: seq, Dest: graph.NoVertex, DepartAt: depart}, 1)
			for name, opts := range tdVariants(d, cats) {
				opts.DepartAt = depart
				s := NewSearcher(d, d.Forest.WuPalmer, opts)
				res, err := s.Query(start, seq)
				if err != nil {
					t.Fatalf("trial %d %s: %v", trial, name, err)
				}
				if !sameSkyline(res.Routes, want) {
					t.Fatalf("trial %d depart %v %s: skyline mismatch\n got %v\nwant %v",
						trial, depart, name, res.Routes, want)
				}
			}
		}
	}
}

// TestTimeDependentDestinationMatchesBruteForce covers the §6
// destination variant under time-dependence: the final leg must be the
// exact travel time at the route's arrival, not the lower bound.
func TestTimeDependentDestinationMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	f := taxonomy.Generated(2, 2, 3)
	for trial := 0; trial < 8; trial++ {
		d := tdDataset(rng, f, 16, 10, 60, 0.6)
		cats := pickCats(rng, f, 2)
		seq := route.NewCategorySequence(d.Forest, d.Forest.WuPalmer, cats...)
		start := graph.VertexID(rng.Intn(d.Graph.NumVertices()))
		dest := graph.VertexID(rng.Intn(d.Graph.NumVertices()))
		depart := rng.Float64() * 60
		want := osr.BruteForce(d, osr.Query{Start: start, Seq: seq, Dest: dest, DepartAt: depart}, 1)
		for name, opts := range tdVariants(d, cats) {
			opts.DepartAt = depart
			s := NewSearcher(d, d.Forest.WuPalmer, opts)
			res, err := s.QueryWithDestination(start, seq, dest)
			if err != nil {
				t.Fatalf("trial %d %s: %v", trial, name, err)
			}
			if !sameSkyline(res.Routes, want) {
				t.Fatalf("trial %d %s: destination skyline mismatch\n got %v\nwant %v",
					trial, name, res.Routes, want)
			}
		}
	}
}

// TestTimeDependentUnorderedMatchesBruteForce covers the unordered trip
// planning query under time-dependence, with and without the category
// index.
func TestTimeDependentUnorderedMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	f := taxonomy.Generated(2, 2, 3)
	for trial := 0; trial < 6; trial++ {
		d := tdDataset(rng, f, 14, 8, 60, 0.6)
		cats := pickCats(rng, f, 2)
		seq := route.NewCategorySequence(d.Forest, d.Forest.WuPalmer, cats...)
		start := graph.VertexID(rng.Intn(d.Graph.NumVertices()))
		depart := rng.Float64() * 60
		want := osr.BruteForce(d, osr.Query{Start: start, Seq: seq, Dest: graph.NoVertex, DepartAt: depart, Unordered: true}, 1)
		for name, opts := range tdVariants(d, cats) {
			opts.DepartAt = depart
			s := NewSearcher(d, d.Forest.WuPalmer, opts)
			res, err := s.QueryUnordered(start, seq)
			if err != nil {
				t.Fatalf("trial %d %s: %v", trial, name, err)
			}
			if !sameSkyline(res.Routes, want) {
				t.Fatalf("trial %d %s: unordered skyline mismatch\n got %v\nwant %v",
					trial, name, res.Routes, want)
			}
		}
	}
}

// TestTimeDependentTopKMatchesBruteForce checks ranked enumeration under
// time-dependence: the k-band of the brute-force enumeration must match
// the search's top-k answer.
func TestTimeDependentTopKMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	f := taxonomy.Generated(2, 2, 3)
	for trial := 0; trial < 6; trial++ {
		d := tdDataset(rng, f, 16, 10, 60, 0.6)
		cats := pickCats(rng, f, 2)
		seq := route.NewCategorySequence(d.Forest, d.Forest.WuPalmer, cats...)
		start := graph.VertexID(rng.Intn(d.Graph.NumVertices()))
		depart := rng.Float64() * 60
		for _, k := range []int{2, 3} {
			want := osr.BruteForce(d, osr.Query{Start: start, Seq: seq, Dest: graph.NoVertex, DepartAt: depart}, k)
			opts := DefaultOptions()
			opts.DepartAt = depart
			opts.TopK = k
			s := NewSearcher(d, d.Forest.WuPalmer, opts)
			res, err := s.Query(start, seq)
			if err != nil {
				t.Fatalf("trial %d k=%d: %v", trial, k, err)
			}
			if len(res.Routes) != len(want) {
				t.Fatalf("trial %d k=%d: %d routes, want %d\n got %v\nwant %v",
					trial, k, len(res.Routes), len(want), res.Routes, want)
			}
			for i := range want {
				if math.Abs(res.Routes[i].Length()-want[i].L) > 1e-9 ||
					math.Abs(res.Routes[i].Semantic()-want[i].S) > 1e-9 {
					t.Fatalf("trial %d k=%d: rank %d (%v) != brute (%v)",
						trial, k, i+1, res.Routes[i], want[i])
				}
			}
		}
	}
}

// TestConstantProfilesMatchStatic pins the metric-layer identity at the
// core level: a dataset whose every edge carries a constant profile equal
// to its weight answers bit-identically to the unprofiled dataset, for
// every optimization configuration and departure time.
func TestConstantProfilesMatchStatic(t *testing.T) {
	rng := rand.New(rand.NewSource(59))
	f := taxonomy.Generated(3, 2, 3)
	for trial := 0; trial < 6; trial++ {
		d := randomDataset(rng, f, 20, 14)
		g := d.Graph
		var specs []graph.ProfileChange
		seen := map[[2]graph.VertexID]bool{}
		for u := graph.VertexID(0); int(u) < g.NumVertices(); u++ {
			ts, _ := g.Neighbors(u)
			for _, v := range ts {
				if u > v || seen[[2]graph.VertexID{u, v}] {
					continue
				}
				seen[[2]graph.VertexID{u, v}] = true
				// Parallel edges collapse onto one profile; the pair's
				// minimum weight keeps every shortest distance intact.
				w, _ := g.EdgeWeight(u, v)
				specs = append(specs, graph.ProfileChange{U: u, V: v, Profile: graph.ConstantProfile(w)})
			}
		}
		cg, err := g.Apply(graph.Edits{SetProfiles: specs})
		if err != nil {
			t.Fatal(err)
		}
		if !cg.HasTimeProfiles() {
			t.Fatal("constant-profile graph reports no profiles")
		}
		cd, err := dataset.New(d.Name, cg, f)
		if err != nil {
			t.Fatal(err)
		}
		cats := pickCats(rng, f, 3)
		seq := route.NewCategorySequence(d.Forest, d.Forest.WuPalmer, cats...)
		start := graph.VertexID(rng.Intn(g.NumVertices()))
		for name, opts := range optionVariants() {
			for _, depart := range []float64{0, 12345.5} {
				opts.DepartAt = depart
				want, err := NewSearcher(d, d.Forest.WuPalmer, opts).Query(start, seq)
				if err != nil {
					t.Fatal(err)
				}
				got, err := NewSearcher(cd, cd.Forest.WuPalmer, opts).Query(start, seq)
				if err != nil {
					t.Fatal(err)
				}
				if len(got.Routes) != len(want.Routes) {
					t.Fatalf("trial %d %s depart %v: %d routes vs %d", trial, name, depart, len(got.Routes), len(want.Routes))
				}
				for i := range want.Routes {
					if got.Routes[i].Length() != want.Routes[i].Length() ||
						got.Routes[i].Semantic() != want.Routes[i].Semantic() ||
						got.Routes[i].Last() != want.Routes[i].Last() {
						t.Fatalf("trial %d %s depart %v: route %d differs: %v vs %v",
							trial, name, depart, i, got.Routes[i], want.Routes[i])
					}
				}
			}
		}
	}
}

// TestTimeDependentFIFOMonotonic checks the search-level FIFO arrival
// property on random profiles: departing later never arrives earlier,
// for every reachable vertex.
func TestTimeDependentFIFOMonotonic(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	f := taxonomy.Generated(2, 2, 2)
	for trial := 0; trial < 8; trial++ {
		d := tdDataset(rng, f, 20, 6, 60, 0.7)
		g := d.Graph
		ws := dijkstra.New(g)
		src := graph.VertexID(rng.Intn(g.NumVertices()))
		t1 := rng.Float64() * 60
		t2 := t1 + rng.Float64()*30
		arrivals := func(depart float64) []float64 {
			out := make([]float64, g.NumVertices())
			for i := range out {
				out[i] = math.Inf(1)
			}
			ws.Run(dijkstra.Options{
				Sources: []graph.VertexID{src}, TimeDependent: true, DepartAt: depart,
				OnSettle: func(v graph.VertexID, dd float64) dijkstra.Control {
					out[v] = depart + dd
					return dijkstra.Continue
				},
			})
			return out
		}
		a1, a2 := arrivals(t1), arrivals(t2)
		for v := range a1 {
			if a2[v] < a1[v]-1e-9 {
				t.Fatalf("trial %d: FIFO violated at vertex %d: depart %v arrives %v, depart %v arrives %v",
					trial, v, t1, a1[v], t2, a2[v])
			}
		}
		// Cross-check the engine Dijkstra against the reference.
		ref := osr.Distances(g, src, t1)
		for v := range ref {
			got := a1[v] - t1
			if math.IsInf(ref[v], 1) != math.IsInf(got, 1) || (!math.IsInf(ref[v], 1) && math.Abs(got-ref[v]) > 1e-9) {
				t.Fatalf("trial %d: TD distance mismatch at %d: got %v want %v", trial, v, got, ref[v])
			}
		}
	}
}

// TestDepartAtValidation rejects non-finite and negative departures.
func TestDepartAtValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(67))
	f := taxonomy.Generated(2, 2, 2)
	d := randomDataset(rng, f, 10, 4)
	seq := route.NewCategorySequence(d.Forest, d.Forest.WuPalmer, pickCats(rng, f, 2)...)
	for _, bad := range []float64{-1, math.NaN(), math.Inf(1)} {
		opts := DefaultOptions()
		opts.DepartAt = bad
		s := NewSearcher(d, d.Forest.WuPalmer, opts)
		if _, err := s.Query(0, seq); err == nil {
			t.Errorf("DepartAt %v accepted by Query", bad)
		}
		if _, err := s.QueryUnordered(0, seq); err == nil {
			t.Errorf("DepartAt %v accepted by QueryUnordered", bad)
		}
		if _, err := s.QueryRated(0, seq); err == nil {
			t.Errorf("DepartAt %v accepted by QueryRated", bad)
		}
	}
}
