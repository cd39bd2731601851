package core

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"skysr/internal/dataset"
	"skysr/internal/gen"
	"skysr/internal/geo"
	"skysr/internal/graph"
	"skysr/internal/index"
	"skysr/internal/osr"
	"skysr/internal/route"
	"skysr/internal/taxonomy"
)

// randomDataset builds a small random connected dataset with PoIs assigned
// uniformly over the forest's leaves.
func randomDataset(rng *rand.Rand, f *taxonomy.Forest, vertices, pois int) *dataset.Dataset {
	return randomRoadDataset(rng, f, vertices, pois, false)
}

// randomRoadDataset is randomDataset; with through set, every PoI also
// gets an edge to a second random vertex, so shortest paths can pass
// through PoIs, the case the Lemma 5.5 path filter acts on.
func randomRoadDataset(rng *rand.Rand, f *taxonomy.Forest, vertices, pois int, through bool) *dataset.Dataset {
	b := graph.NewBuilder(false)
	for i := 0; i < vertices; i++ {
		b.AddVertex(geo.Point{Lon: rng.Float64(), Lat: rng.Float64()})
	}
	for i := 1; i < vertices; i++ {
		b.AddEdge(graph.VertexID(i), graph.VertexID(rng.Intn(i)), 1+rng.Float64()*9)
	}
	for e := 0; e < vertices; e++ {
		u, v := rng.Intn(vertices), rng.Intn(vertices)
		if u != v {
			b.AddEdge(graph.VertexID(u), graph.VertexID(v), 1+rng.Float64()*9)
		}
	}
	leaves := f.Leaves()
	for i := 0; i < pois; i++ {
		attach := graph.VertexID(rng.Intn(vertices))
		p := b.AddPoI(geo.Point{Lon: rng.Float64(), Lat: rng.Float64()}, leaves[rng.Intn(len(leaves))])
		b.AddEdge(attach, p, 0.1+rng.Float64())
		if through {
			b.AddEdge(graph.VertexID(rng.Intn(vertices)), p, 0.1+rng.Float64())
		}
	}
	return dataset.MustNew("rand", b.Build(), f)
}

// randomDirectedDataset is randomDataset on a directed network: a random
// spanning tree with an arc each way keeps every vertex reachable, the
// extra arcs are one-way, and every arc carries its own weight.
func randomDirectedDataset(rng *rand.Rand, f *taxonomy.Forest, vertices, pois int) *dataset.Dataset {
	b := graph.NewBuilder(true)
	for i := 0; i < vertices; i++ {
		b.AddVertex(geo.Point{Lon: rng.Float64(), Lat: rng.Float64()})
	}
	both := func(u, v graph.VertexID, lo, spread float64) {
		b.AddEdge(u, v, lo+rng.Float64()*spread)
		b.AddEdge(v, u, lo+rng.Float64()*spread)
	}
	for i := 1; i < vertices; i++ {
		both(graph.VertexID(i), graph.VertexID(rng.Intn(i)), 1, 9)
	}
	for e := 0; e < vertices; e++ {
		u, v := rng.Intn(vertices), rng.Intn(vertices)
		if u != v {
			b.AddEdge(graph.VertexID(u), graph.VertexID(v), 1+rng.Float64()*9)
		}
	}
	leaves := f.Leaves()
	for i := 0; i < pois; i++ {
		attach := graph.VertexID(rng.Intn(vertices))
		p := b.AddPoI(geo.Point{Lon: rng.Float64(), Lat: rng.Float64()}, leaves[rng.Intn(len(leaves))])
		both(attach, p, 0.1, 1)
	}
	return dataset.MustNew("rand-directed", b.Build(), f)
}

// dyadicDataset is randomDataset, on a directed or undirected network,
// with dyadic weights (multiples of 1/16): every route length is then a
// sum of exactly representable values whose result is independent of
// addition order, so the brute-force enumerator and the search cannot
// disagree by an ULP on whether two routes tie. Directed networks carry a
// spanning tree with an arc each way plus one-way extra arcs; a quarter
// of the PoIs carry a second category.
func dyadicDataset(rng *rand.Rand, f *taxonomy.Forest, vertices, pois int, directed bool) *dataset.Dataset {
	b := graph.NewBuilder(directed)
	for i := 0; i < vertices; i++ {
		b.AddVertex(geo.Point{Lon: rng.Float64(), Lat: rng.Float64()})
	}
	w := func(lo, hi int) float64 { return float64(lo+rng.Intn(hi-lo+1)) / 16 }
	road := func(u, v graph.VertexID, lo, hi int) {
		b.AddEdge(u, v, w(lo, hi))
		if directed {
			b.AddEdge(v, u, w(lo, hi))
		}
	}
	for i := 1; i < vertices; i++ {
		road(graph.VertexID(i), graph.VertexID(rng.Intn(i)), 16, 160)
	}
	for e := 0; e < vertices; e++ {
		u, v := rng.Intn(vertices), rng.Intn(vertices)
		if u != v {
			b.AddEdge(graph.VertexID(u), graph.VertexID(v), w(16, 160))
		}
	}
	leaves := f.Leaves()
	for i := 0; i < pois; i++ {
		attach := graph.VertexID(rng.Intn(vertices))
		p := b.AddPoI(geo.Point{Lon: rng.Float64(), Lat: rng.Float64()}, leaves[rng.Intn(len(leaves))])
		if rng.Intn(4) == 0 {
			b.AddCategory(p, leaves[rng.Intn(len(leaves))])
		}
		road(attach, p, 2, 18)
	}
	return dataset.MustNew("dyadic", b.Build(), f)
}

func pickCats(rng *rand.Rand, f *taxonomy.Forest, n int) []taxonomy.CategoryID {
	leaves := f.Leaves()
	out := make([]taxonomy.CategoryID, n)
	for i := range out {
		out[i] = leaves[rng.Intn(len(leaves))]
	}
	return out
}

func sameSkyline(a []*route.Route, b *route.Skyline) bool {
	rb := b.Routes()
	if len(a) != len(rb) {
		return false
	}
	for i := range a {
		if math.Abs(a[i].Length()-rb[i].Length()) > 1e-9 ||
			math.Abs(a[i].Semantic()-rb[i].Semantic()) > 1e-9 {
			return false
		}
	}
	return true
}

// optionVariants enumerates the optimization configurations exercised by
// the exactness tests: all off, all on, each one alone, each one disabled.
func optionVariants() map[string]Options {
	base := WithoutOptimizations()
	all := DefaultOptions()
	variants := map[string]Options{"none": base, "all": all}
	mutate := func(o Options, f func(*Options)) Options { f(&o); return o }
	variants["init-only"] = mutate(base, func(o *Options) { o.InitialSearch = true })
	variants["queue-only"] = mutate(base, func(o *Options) { o.ProposedQueue = true })
	variants["bounds-only"] = mutate(base, func(o *Options) { o.InitialSearch = true; o.LowerBounds = true })
	variants["cache-only"] = mutate(base, func(o *Options) { o.Caching = true })
	variants["no-init"] = mutate(all, func(o *Options) { o.InitialSearch = false; o.LowerBounds = false })
	variants["no-queue"] = mutate(all, func(o *Options) { o.ProposedQueue = false })
	variants["no-bounds"] = mutate(all, func(o *Options) { o.LowerBounds = false })
	variants["no-cache"] = mutate(all, func(o *Options) { o.Caching = false })
	return variants
}

// TestBSSRMatchesBruteForce is the central exactness test (Theorem 3):
// every optimization configuration must return exactly the brute-force
// skyline on random instances. The last 12 trials let shortest paths pass
// through PoIs, where the Lemma 5.5 path filter fires; they run every
// configuration with the filter on and off.
func TestBSSRMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	f := taxonomy.Generated(3, 2, 3)
	filtered := 0
	for trial := 0; trial < 24; trial++ {
		through := trial >= 12
		d := randomRoadDataset(rng, f, 20, 16, through)
		cats := pickCats(rng, f, 2+rng.Intn(2))
		start := graph.VertexID(rng.Intn(20))
		seq := route.NewCategorySequence(f, f.WuPalmer, cats...)
		want := osr.BruteForceSkySR(d, start, seq, route.AggProduct)

		enqueued := map[bool]int64{}
		for name, opts := range optionVariants() {
			for _, disable := range []bool{false, true} {
				if disable && !through {
					continue
				}
				opts.DisablePathFilter = disable
				s := NewSearcher(d, f.WuPalmer, opts)
				res, err := s.QueryCategories(start, cats...)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if !sameSkyline(res.Routes, want) {
					t.Fatalf("trial %d %s (path filter off: %v): skyline mismatch\ngot:  %v\nwant: %v",
						trial, name, disable, res.Routes, want.Routes())
				}
				if name == "all" {
					enqueued[disable] = res.Stats.RoutesEnqueued
				}
			}
		}
		if through && enqueued[false] < enqueued[true] {
			filtered++
		}
	}
	if filtered == 0 {
		t.Error("the path filter never cut a route: the through trials do not exercise it")
	}
}

func TestBSSRMatchesBruteForceUnevenForest(t *testing.T) {
	// BSSR does not rely on uniform leaf depth (unlike the naive ancestor
	// enumeration), so it must stay exact on uneven forests too.
	rng := rand.New(rand.NewSource(32))
	fb := taxonomy.NewForestBuilder()
	a := fb.MustAddRoot("A")
	fb.MustAddChild(a, "shallow")
	mid := fb.MustAddChild(a, "mid")
	fb.MustAddChild(mid, "deep1")
	fb.MustAddChild(mid, "deep2")
	bRoot := fb.MustAddRoot("B")
	fb.MustAddChild(bRoot, "b1")
	fb.MustAddChild(bRoot, "b2")
	f := fb.Build()

	for trial := 0; trial < 10; trial++ {
		d := randomDataset(rng, f, 18, 14)
		cats := []taxonomy.CategoryID{f.MustLookup("shallow"), f.MustLookup("b1")}
		seq := route.NewCategorySequence(f, f.WuPalmer, cats...)
		want := osr.BruteForceSkySR(d, 0, seq, route.AggProduct)
		s := NewSearcher(d, f.WuPalmer, DefaultOptions())
		res, err := s.QueryCategories(0, cats...)
		if err != nil {
			t.Fatal(err)
		}
		if !sameSkyline(res.Routes, want) {
			t.Fatalf("trial %d: mismatch\ngot:  %v\nwant: %v", trial, res.Routes, want.Routes())
		}
	}
}

func TestBSSRAlternativeAggregations(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	f := taxonomy.Generated(3, 2, 3)
	for _, agg := range []route.Aggregation{route.AggMin, route.AggMean} {
		for trial := 0; trial < 6; trial++ {
			d := randomDataset(rng, f, 16, 12)
			cats := pickCats(rng, f, 2)
			seq := route.NewCategorySequence(f, f.WuPalmer, cats...)
			want := osr.BruteForceSkySR(d, 0, seq, agg)
			opts := DefaultOptions()
			opts.Aggregation = agg
			s := NewSearcher(d, f.WuPalmer, opts)
			res, err := s.QueryCategories(0, cats...)
			if err != nil {
				t.Fatal(err)
			}
			if !sameSkyline(res.Routes, want) {
				t.Fatalf("%v trial %d: mismatch\ngot:  %v\nwant: %v", agg, trial, res.Routes, want.Routes())
			}
		}
	}
}

func TestBSSRPathLengthSimilarity(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	f := taxonomy.Generated(3, 2, 3)
	for trial := 0; trial < 6; trial++ {
		d := randomDataset(rng, f, 16, 12)
		cats := pickCats(rng, f, 2)
		seq := route.NewCategorySequence(f, f.PathLength, cats...)
		want := osr.BruteForceSkySR(d, 0, seq, route.AggProduct)
		s := NewSearcher(d, f.PathLength, DefaultOptions())
		res, err := s.QueryCategories(0, cats...)
		if err != nil {
			t.Fatal(err)
		}
		if !sameSkyline(res.Routes, want) {
			t.Fatalf("trial %d: mismatch\ngot:  %v\nwant: %v", trial, res.Routes, want.Routes())
		}
	}
}

// TestBSSRPaperExample verifies the Table 4 running example end to end:
// NNinit seeds, the final skyline, and the stats the trace implies.
func TestBSSRPaperExample(t *testing.T) {
	ds, vq, cats := gen.PaperExample()
	s := NewSearcher(ds, ds.Forest.WuPalmer, DefaultOptions())
	res, err := s.QueryCategories(vq, cats...)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Routes) != 2 {
		t.Fatalf("skyline size = %d, want 2 (Table 4 step 12): %v", len(res.Routes), res.Routes)
	}
	first, second := res.Routes[0], res.Routes[1]
	// ⟨p6,p9,p8⟩ with l=10.5, s=0.5 (reconstructed weights).
	wantFirst := []graph.VertexID{6, 9, 8}
	for i, p := range first.PoIs() {
		if p != wantFirst[i] {
			t.Fatalf("first route = %v, want ⟨p6,p9,p8⟩", first.PoIs())
		}
	}
	if math.Abs(first.Length()-10.5) > 1e-9 || math.Abs(first.Semantic()-0.5) > 1e-9 {
		t.Errorf("first route scores = (%v, %v), want (10.5, 0.5)", first.Length(), first.Semantic())
	}
	// ⟨p10,p12,p13⟩ with l=13, s=0 (Table 4 step 5; threshold 13 in step 6).
	wantSecond := []graph.VertexID{10, 12, 13}
	for i, p := range second.PoIs() {
		if p != wantSecond[i] {
			t.Fatalf("second route = %v, want ⟨p10,p12,p13⟩", second.PoIs())
		}
	}
	if math.Abs(second.Length()-13) > 1e-9 || second.Semantic() != 0 {
		t.Errorf("second route scores = (%v, %v), want (13, 0)", second.Length(), second.Semantic())
	}
	// NNinit found exactly ⟨p2,p5,p7⟩ (12, 0.5) and ⟨p2,p5,p8⟩ (15, 0)
	// (Example 5.6), so 2 seeds, l̄(∅)=15 and ratio 12/15.
	if res.Stats.InitRoutes != 2 {
		t.Errorf("InitRoutes = %d, want 2 (Example 5.6)", res.Stats.InitRoutes)
	}
	if math.Abs(res.Stats.InitPerfectL-15) > 1e-9 {
		t.Errorf("InitPerfectL = %v, want 15 (Example 5.6)", res.Stats.InitPerfectL)
	}
	if math.Abs(res.Stats.InitRatio-0.8) > 1e-9 {
		t.Errorf("InitRatio = %v, want 12/15 = 0.8", res.Stats.InitRatio)
	}
	// Example 5.10: ls = {2, 1} and (on this fixture, where all A&E PoIs
	// match perfectly) lp = ls.
	if math.Abs(res.Stats.SemanticBound-3) > 1e-9 {
		t.Errorf("Σls = %v, want 3 (Example 5.10: ls={2,1})", res.Stats.SemanticBound)
	}
	if math.Abs(res.Stats.PerfectBound-3) > 1e-9 {
		t.Errorf("Σlp = %v, want 3 (see PaperExample doc)", res.Stats.PerfectBound)
	}
}

func TestBSSRPaperExampleAllVariants(t *testing.T) {
	ds, vq, cats := gen.PaperExample()
	seq := route.NewCategorySequence(ds.Forest, ds.Forest.WuPalmer, cats...)
	want := osr.BruteForceSkySR(ds, vq, seq, route.AggProduct)
	for name, opts := range optionVariants() {
		s := NewSearcher(ds, ds.Forest.WuPalmer, opts)
		res, err := s.QueryCategories(vq, cats...)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !sameSkyline(res.Routes, want) {
			t.Fatalf("%s: mismatch\ngot:  %v\nwant: %v", name, res.Routes, want.Routes())
		}
	}
}

func TestQueryValidation(t *testing.T) {
	ds, vq, cats := gen.PaperExample()
	s := NewSearcher(ds, ds.Forest.WuPalmer, DefaultOptions())
	if _, err := s.Query(vq, nil); err == nil {
		t.Error("empty sequence should fail")
	}
	if _, err := s.QueryCategories(-1, cats...); err == nil {
		t.Error("invalid start should fail")
	}
	if _, err := s.QueryCategories(9999, cats...); err == nil {
		t.Error("out-of-range start should fail")
	}
	seq := route.NewCategorySequence(ds.Forest, ds.Forest.WuPalmer, cats...)
	for _, dest := range []graph.VertexID{graph.NoVertex, -5, graph.VertexID(ds.Graph.NumVertices())} {
		if _, err := s.QueryWithDestination(vq, seq, dest); err == nil {
			t.Errorf("destination %d should fail", dest)
		}
	}
}

func TestNoMatchingPoIs(t *testing.T) {
	fb := taxonomy.NewForestBuilder()
	a := fb.MustAddRoot("A")
	b := fb.MustAddRoot("B")
	f := fb.Build()
	gb := graph.NewBuilder(false)
	v0 := gb.AddVertex(geo.Point{})
	p := gb.AddPoI(geo.Point{Lon: 1}, a)
	gb.AddEdge(v0, p, 1)
	d := dataset.MustNew("sparse", gb.Build(), f)
	s := NewSearcher(d, f.WuPalmer, DefaultOptions())
	res, err := s.QueryCategories(v0, a, b)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Routes) != 0 {
		t.Errorf("expected empty skyline, got %v", res.Routes)
	}
}

func TestSingleCategoryQuery(t *testing.T) {
	rng := rand.New(rand.NewSource(35))
	f := taxonomy.Generated(2, 2, 3)
	d := randomDataset(rng, f, 15, 10)
	cats := pickCats(rng, f, 1)
	seq := route.NewCategorySequence(f, f.WuPalmer, cats...)
	want := osr.BruteForceSkySR(d, 0, seq, route.AggProduct)
	s := NewSearcher(d, f.WuPalmer, DefaultOptions())
	res, err := s.QueryCategories(0, cats...)
	if err != nil {
		t.Fatal(err)
	}
	if !sameSkyline(res.Routes, want) {
		t.Fatalf("k=1 mismatch\ngot:  %v\nwant: %v", res.Routes, want.Routes())
	}
}

func TestDisconnectedGraph(t *testing.T) {
	fb := taxonomy.NewForestBuilder()
	a := fb.MustAddRoot("A")
	f := fb.Build()
	gb := graph.NewBuilder(false)
	v0 := gb.AddVertex(geo.Point{})
	v1 := gb.AddVertex(geo.Point{Lon: 1})
	gb.AddEdge(v0, v1, 1)
	// PoI on an island unreachable from v0.
	island := gb.AddVertex(geo.Point{Lon: 5})
	p := gb.AddPoI(geo.Point{Lon: 6}, a)
	gb.AddEdge(island, p, 1)
	d := dataset.MustNew("islands", gb.Build(), f)
	s := NewSearcher(d, f.WuPalmer, DefaultOptions())
	res, err := s.QueryCategories(v0, a)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Routes) != 0 {
		t.Errorf("unreachable PoI must not be returned: %v", res.Routes)
	}
}

// TestQueryWithDestinationMatchesBruteForce: a destination query (§6)
// returns exactly the brute-force skyline with the final leg included,
// in every optimization configuration, plain, on the category index, and
// on the index plus one SharedCache kept for the whole trial. Each
// destination query runs between two queries without one on the same
// Searcher and cache, so neither its cost-to-go rows nor the entries its
// runs could leave in the shared cache may change their answers. Weights
// are dyadic (see dyadicDataset); with float weights, routes that tie
// mathematically can sum one ULP apart in different orders, and the
// brute force then keeps a point the search rightly treats as dominated.
func TestQueryWithDestinationMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(36))
	f := taxonomy.Generated(3, 2, 3)
	variants := optionVariants()
	names := make([]string, 0, len(variants))
	for name := range variants {
		names = append(names, name)
	}
	sort.Strings(names)
	const vertices, pois = 18, 14
	for trial := 0; trial < 120; trial++ {
		d := dyadicDataset(rng, f, vertices, pois, trial%2 == 1)
		seq := route.NewCategorySequence(f, f.WuPalmer, pickCats(rng, f, 2+rng.Intn(2))...)
		start := graph.VertexID(rng.Intn(vertices))
		dest := graph.VertexID(rng.Intn(vertices))
		want := osr.BruteForceSkySRWithDestination(d, start, seq, route.AggProduct, dest)
		wantNoDest := osr.BruteForceSkySR(d, start, seq, route.AggProduct)
		ci := index.New(d, 0)
		shared := NewSharedCache(0)
		for _, profile := range []string{"plain", "index", "index+shared"} {
			for _, name := range names {
				opts := variants[name]
				if profile != "plain" {
					opts.Index = ci
				}
				if profile == "index+shared" {
					opts.Shared = shared
				}
				s := NewSearcher(d, f.WuPalmer, opts)
				check := func(what string, res *Result, err error, want *route.Skyline) {
					t.Helper()
					if err != nil {
						t.Fatalf("trial %d %s %s %s: %v", trial, profile, name, what, err)
					}
					if !sameSkyline(res.Routes, want) {
						t.Fatalf("trial %d (directed %v, %d positions) %s %s %s: mismatch\ngot:  %v\nwant: %v",
							trial, d.Graph.Directed(), len(seq), profile, name, what, res.Routes, want.Routes())
					}
				}
				res, err := s.Query(start, seq)
				check("before", res, err, wantNoDest)
				res, err = s.QueryWithDestination(start, seq, dest)
				check("destination", res, err, want)
				res, err = s.Query(start, seq)
				check("after", res, err, wantNoDest)
			}
		}
	}
}

func TestDirectedGraphQuery(t *testing.T) {
	// A directed cycle where reaching categories requires following arc
	// directions; cross-check against brute force on the same graph.
	fb := taxonomy.NewForestBuilder()
	a := fb.MustAddRoot("A")
	bCat := fb.MustAddRoot("B")
	f := fb.Build()
	gb := graph.NewBuilder(true)
	v0 := gb.AddVertex(geo.Point{})
	pa := gb.AddPoI(geo.Point{Lon: 1}, a)
	pb := gb.AddPoI(geo.Point{Lon: 2}, bCat)
	pa2 := gb.AddPoI(geo.Point{Lon: 3}, a)
	gb.AddEdge(v0, pa, 1)
	gb.AddEdge(pa, pb, 1)
	gb.AddEdge(pb, pa2, 1)
	gb.AddEdge(pa2, v0, 1)
	d := dataset.MustNew("directed", gb.Build(), f)
	seq := route.NewCategorySequence(f, f.WuPalmer, a, bCat)
	want := osr.BruteForceSkySR(d, v0, seq, route.AggProduct)
	s := NewSearcher(d, f.WuPalmer, DefaultOptions())
	res, err := s.QueryCategories(v0, a, bCat)
	if err != nil {
		t.Fatal(err)
	}
	if !sameSkyline(res.Routes, want) {
		t.Fatalf("directed mismatch\ngot:  %v\nwant: %v", res.Routes, want.Routes())
	}
	if len(res.Routes) == 0 {
		t.Fatal("expected a route on the directed cycle")
	}
	if got := res.Routes[0].Length(); math.Abs(got-2) > 1e-9 {
		t.Errorf("directed best length = %v, want 2 (v0→pa→pb)", got)
	}
}

// TestDestinationSweepAccounting: the reverse sweeps a destination query
// runs are charged like any other search — one DestLegRuns each with
// their wall time, and their settles in SettledVertices. A query of k
// positions sweeps k times: once from the destination and once per
// cost-to-go row of positions k−1 down to 1 (computePotentials). A
// directed network carrying both arcs of every edge searches exactly like
// its undirected twin, but sweeps on the reversed graph's own workspace,
// so the two must report the same work.
func TestDestinationSweepAccounting(t *testing.T) {
	rng := rand.New(rand.NewSource(52))
	f := taxonomy.Generated(3, 2, 3)
	const vertices, pois = 20, 14
	type arc struct {
		u, v graph.VertexID
		w    float64
	}
	var edges []arc
	for i := 1; i < vertices; i++ {
		edges = append(edges, arc{graph.VertexID(i), graph.VertexID(rng.Intn(i)), 1 + rng.Float64()*9})
	}
	leaves := f.Leaves()
	poiCats := make([]taxonomy.CategoryID, pois)
	for i := range poiCats {
		poiCats[i] = leaves[rng.Intn(len(leaves))]
		edges = append(edges, arc{graph.VertexID(rng.Intn(vertices)), graph.VertexID(vertices + i), 0.1 + rng.Float64()})
	}
	build := func(directed bool) *dataset.Dataset {
		b := graph.NewBuilder(directed)
		for i := 0; i < vertices; i++ {
			b.AddVertex(geo.Point{Lon: float64(i)})
		}
		for i, c := range poiCats {
			b.AddPoI(geo.Point{Lat: float64(i)}, c)
		}
		for _, e := range edges {
			b.AddEdge(e.u, e.v, e.w)
			if directed {
				b.AddEdge(e.v, e.u, e.w)
			}
		}
		return dataset.MustNew("twin", b.Build(), f)
	}
	und, dir := build(false), build(true)
	seq := route.NewCategorySequence(f, f.WuPalmer, pickCats(rng, f, 2)...)
	for trial := 0; trial < 6; trial++ {
		start := graph.VertexID(rng.Intn(vertices))
		dest := graph.VertexID(rng.Intn(vertices))
		var got [2]Stats
		for i, d := range []*dataset.Dataset{und, dir} {
			res, err := NewSearcher(d, f.WuPalmer, DefaultOptions()).QueryWithDestination(start, seq, dest)
			if err != nil {
				t.Fatal(err)
			}
			got[i] = res.Stats
			if res.Stats.DestLegRuns != int64(len(seq)) || res.Stats.DestLegTime <= 0 {
				t.Errorf("trial %d directed=%v: destination leg runs %d time %v, want each of the %d sweeps charged once",
					trial, d.Graph.Directed(), res.Stats.DestLegRuns, res.Stats.DestLegTime, len(seq))
			}
		}
		if got[0].SettledVertices != got[1].SettledVertices {
			t.Errorf("trial %d: settled undirected %d != directed twin %d",
				trial, got[0].SettledVertices, got[1].SettledVertices)
		}
	}
}

func TestMultiCategoryPoIQuery(t *testing.T) {
	// One PoI carries both categories; it may serve either position but
	// not both (Definition 3.4(iii)).
	fb := taxonomy.NewForestBuilder()
	a := fb.MustAddRoot("A")
	bCat := fb.MustAddRoot("B")
	f := fb.Build()
	gb := graph.NewBuilder(false)
	v0 := gb.AddVertex(geo.Point{})
	dual := gb.AddPoI(geo.Point{Lon: 1}, a)
	gb.AddCategory(dual, bCat)
	pb := gb.AddPoI(geo.Point{Lon: 2}, bCat)
	gb.AddEdge(v0, dual, 1)
	gb.AddEdge(dual, pb, 1)
	d := dataset.MustNew("dual", gb.Build(), f)
	seq := route.NewCategorySequence(f, f.WuPalmer, a, bCat)
	want := osr.BruteForceSkySR(d, v0, seq, route.AggProduct)
	s := NewSearcher(d, f.WuPalmer, DefaultOptions())
	res, err := s.QueryCategories(v0, a, bCat)
	if err != nil {
		t.Fatal(err)
	}
	if !sameSkyline(res.Routes, want) {
		t.Fatalf("multi-category mismatch\ngot:  %v\nwant: %v", res.Routes, want.Routes())
	}
	// The only valid route is ⟨dual, pb⟩ with length 2.
	if len(res.Routes) != 1 || math.Abs(res.Routes[0].Length()-2) > 1e-9 {
		t.Fatalf("want single route of length 2, got %v", res.Routes)
	}
}

func TestComplexRequirementsMatchBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	f := taxonomy.Generated(3, 2, 3)
	leaves := f.Leaves()
	for trial := 0; trial < 8; trial++ {
		d := randomDataset(rng, f, 18, 14)
		// Position 1: disjunction of two leaves; position 2: a leaf
		// excluding one of its tree-mates.
		l1 := leaves[rng.Intn(len(leaves))]
		l2 := leaves[rng.Intn(len(leaves))]
		l3 := leaves[rng.Intn(len(leaves))]
		excl := f.Subtree(f.Root(l3))[rng.Intn(len(f.Subtree(f.Root(l3))))]
		seq := route.Sequence{
			route.NewAnyOf(route.NewCategory(f, l1, f.WuPalmer), route.NewCategory(f, l2, f.WuPalmer)),
			route.NewExcluding(route.NewCategory(f, l3, f.WuPalmer), f, excl),
		}
		want := osr.BruteForceSkySR(d, 0, seq, route.AggProduct)
		s := NewSearcher(d, f.WuPalmer, DefaultOptions())
		res, err := s.Query(0, seq)
		if err != nil {
			t.Fatal(err)
		}
		if !sameSkyline(res.Routes, want) {
			t.Fatalf("trial %d complex requirements mismatch\ngot:  %v\nwant: %v", trial, res.Routes, want.Routes())
		}
	}
}

func TestDeterminism(t *testing.T) {
	rng := rand.New(rand.NewSource(38))
	f := taxonomy.Generated(3, 2, 3)
	d := randomDataset(rng, f, 25, 20)
	cats := pickCats(rng, f, 3)
	s := NewSearcher(d, f.WuPalmer, DefaultOptions())
	first, err := s.QueryCategories(0, cats...)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		again, err := s.QueryCategories(0, cats...)
		if err != nil {
			t.Fatal(err)
		}
		if !sameSkyline(first.Routes, skylineOf(again.Routes)) {
			t.Fatal("query results changed between runs")
		}
	}
}

func skylineOf(routes []*route.Route) *route.Skyline {
	s := route.NewSkyline()
	for _, r := range routes {
		s.Update(r)
	}
	return s
}

func TestStatsInstrumentation(t *testing.T) {
	rng := rand.New(rand.NewSource(39))
	f := taxonomy.Generated(3, 2, 3)
	d := randomRoadDataset(rng, f, 30, 25, true)
	cats := pickCats(rng, f, 3)

	s := NewSearcher(d, f.WuPalmer, DefaultOptions())
	res, err := s.QueryCategories(0, cats...)
	if err != nil {
		t.Fatal(err)
	}
	st := res.Stats
	if st.MDijkstraRuns == 0 || st.SettledVertices == 0 {
		t.Errorf("missing search stats: %+v", st)
	}
	if st.MDijkstraRequests < st.MDijkstraRuns {
		t.Errorf("requests %d < runs %d", st.MDijkstraRequests, st.MDijkstraRuns)
	}
	if st.CacheHits != st.MDijkstraRequests-st.MDijkstraRuns {
		t.Errorf("cache accounting inconsistent: %+v", st)
	}
	if st.Results != len(res.Routes) {
		t.Errorf("Results = %d, want %d", st.Results, len(res.Routes))
	}
	if st.QueryTime <= 0 {
		t.Error("QueryTime not recorded")
	}
	if st.PeakMemoryBytes(d.Graph.NumVertices()) <= 0 {
		t.Error("PeakMemoryBytes should be positive")
	}

	// Without caching, every request is a run.
	opts := DefaultOptions()
	opts.Caching = false
	s2 := NewSearcher(d, f.WuPalmer, opts)
	res2, err := s2.QueryCategories(0, cats...)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Stats.CacheHits != 0 {
		t.Error("cache hits recorded with caching disabled")
	}
	if res2.Stats.MDijkstraRuns != res2.Stats.MDijkstraRequests {
		t.Error("uncached runs should equal requests")
	}
	// Caching can only reduce executed runs.
	if res.Stats.MDijkstraRuns > res2.Stats.MDijkstraRuns {
		t.Errorf("cache increased Dijkstra executions: %d > %d",
			res.Stats.MDijkstraRuns, res2.Stats.MDijkstraRuns)
	}

	// The stages are disjoint: every init stage runs greedy Dijkstras on
	// the shared workspace, never a modified Dijkstra, and the
	// time-dependent destination legs NNinit prices count toward
	// DestLegTime alone. The intervals nest on the monotonic clock, so
	// their sum never exceeds QueryTime.
	disjoint := func(what string, st Stats) {
		t.Helper()
		if sum := st.InitTime + st.BoundsTime + st.MDijkstraTime + st.DestLegTime; sum > st.QueryTime {
			t.Errorf("%s: init %v + bounds %v + mdijkstra %v + destleg %v = %v > query %v",
				what, st.InitTime, st.BoundsTime, st.MDijkstraTime, st.DestLegTime, sum, st.QueryTime)
		}
	}
	// The work counters are pinned on the first three starts, so a change
	// to the search kernels that moves any of them fails here: the Lemma
	// 5.5 filter firing less (RoutesEnqueued; the dataset's PoIs lie on
	// roads, so it fires on start 0's destination query), a frontier cut
	// or a settle charge going missing (SettledVertices), a cache serving
	// differently (MDijkstraRuns). PeakCacheBytes must equal the largest
	// sum of entryBytes over the cache after any store.
	type pin struct{ peakCache, enqueued, settled, runs int64 }
	pinOf := func(st Stats) pin {
		return pin{st.PeakCacheBytes, st.RoutesEnqueued, st.SettledVertices, st.MDijkstraRuns}
	}
	wantPins := map[bool][3]map[string]pin{ // index → start → shape
		false: {
			{"ordered": {1384, 15, 316, 8}, "destination": {1768, 15, 519, 11}, "unordered": {3840, 44, 274, 33}, "rated": {1384, 17, 270, 8}},
			{"ordered": {1592, 10, 344, 9}, "destination": {2048, 11, 530, 11}, "unordered": {2384, 28, 196, 18}, "rated": {1592, 16, 292, 9}},
			{"ordered": {2104, 21, 433, 14}, "destination": {1744, 13, 468, 13}, "unordered": {4776, 57, 354, 33}, "rated": {2104, 22, 381, 14}},
		},
		true: {
			{"ordered": {1144, 10, 124, 8}, "destination": {1768, 15, 398, 11}, "unordered": {2184, 23, 125, 19}, "rated": {1384, 17, 148, 8}},
			{"ordered": {1392, 8, 142, 9}, "destination": {2048, 11, 413, 11}, "unordered": {1232, 14, 88, 9}, "rated": {1592, 16, 180, 9}},
			{"ordered": {1776, 15, 183, 13}, "destination": {1744, 13, 353, 13}, "unordered": {3328, 41, 197, 22}, "rated": {2056, 22, 219, 13}},
		},
	}
	seq := route.NewCategorySequence(f, f.WuPalmer, cats...)
	n := d.Graph.NumVertices()
	for _, withIndex := range []bool{false, true} {
		opts := DefaultOptions()
		if withIndex {
			opts.Index = index.New(d, 0)
		}
		s := NewSearcher(d, f.WuPalmer, opts)
		for v := 0; v < n; v++ {
			start := graph.VertexID(v)
			stats := map[string]Stats{}
			for shape, run := range map[string]func() (*Result, error){
				"ordered":     func() (*Result, error) { return s.Query(start, seq) },
				"destination": func() (*Result, error) { return s.QueryWithDestination(start, seq, graph.VertexID((v+7)%n)) },
				"unordered":   func() (*Result, error) { return s.QueryUnordered(start, seq) },
			} {
				res, err := run()
				if err != nil {
					t.Fatal(err)
				}
				stats[shape] = res.Stats
			}
			rated, err := s.QueryRated(start, seq)
			if err != nil {
				t.Fatal(err)
			}
			stats["rated"] = rated.Stats
			for shape, st := range stats {
				disjoint(fmt.Sprintf("index %v start %d %s", withIndex, v, shape), st)
			}
			if v < 3 {
				for shape, st := range stats {
					if got, want := pinOf(st), wantPins[withIndex][v][shape]; got != want {
						t.Errorf("index %v start %d %s: {PeakCacheBytes, RoutesEnqueued, SettledVertices, MDijkstraRuns} = %v, want %v",
							withIndex, v, shape, got, want)
					}
				}
			}
		}
	}
	// Time-dependent destination queries: NNinit prices an exact leg for
	// every seed it offers, from inside its own stage.
	tdRng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 40; trial++ {
		td := tdDataset(tdRng, f, 16, 10, 60, 0.6)
		tdSeq := route.NewCategorySequence(f, f.WuPalmer, pickCats(tdRng, f, 2)...)
		for q := 0; q < 5; q++ {
			opts := DefaultOptions()
			opts.DepartAt = tdRng.Float64() * 60
			start := graph.VertexID(tdRng.Intn(td.Graph.NumVertices()))
			dest := graph.VertexID(tdRng.Intn(td.Graph.NumVertices()))
			res, err := NewSearcher(td, f.WuPalmer, opts).QueryWithDestination(start, tdSeq, dest)
			if err != nil {
				t.Fatal(err)
			}
			disjoint(fmt.Sprintf("time-dependent trial %d query %d", trial, q), res.Stats)
		}
	}
}

func TestInitSearchShrinksFirstRadius(t *testing.T) {
	// Table 7's claim: with the initial search the first modified Dijkstra
	// explores a much smaller radius.
	rng := rand.New(rand.NewSource(40))
	f := taxonomy.Generated(3, 2, 3)
	d := randomDataset(rng, f, 120, 60)
	cats := pickCats(rng, f, 3)

	withInit := NewSearcher(d, f.WuPalmer, DefaultOptions())
	resWith, err := withInit.QueryCategories(0, cats...)
	if err != nil {
		t.Fatal(err)
	}
	noInit := NewSearcher(d, f.WuPalmer, WithoutOptimizations())
	resWithout, err := noInit.QueryCategories(0, cats...)
	if err != nil {
		t.Fatal(err)
	}
	if resWith.Stats.FirstMDijkstraRadius > resWithout.Stats.FirstMDijkstraRadius {
		t.Errorf("init search should not enlarge the first search radius: %v > %v",
			resWith.Stats.FirstMDijkstraRadius, resWithout.Stats.FirstMDijkstraRadius)
	}
}

func TestProposedQueueVisitsNoMoreVertices(t *testing.T) {
	// Table 8's claim, as a weak inequality on aggregate work.
	rng := rand.New(rand.NewSource(41))
	f := taxonomy.Generated(3, 2, 3)
	var proposed, distance int64
	for trial := 0; trial < 8; trial++ {
		d := randomDataset(rng, f, 60, 40)
		cats := pickCats(rng, f, 3)
		p := NewSearcher(d, f.WuPalmer, DefaultOptions())
		resP, err := p.QueryCategories(0, cats...)
		if err != nil {
			t.Fatal(err)
		}
		o := DefaultOptions()
		o.ProposedQueue = false
		dq := NewSearcher(d, f.WuPalmer, o)
		resD, err := dq.QueryCategories(0, cats...)
		if err != nil {
			t.Fatal(err)
		}
		proposed += resP.Stats.SettledVertices
		distance += resD.Stats.SettledVertices
	}
	if proposed > distance*11/10 {
		t.Errorf("proposed queue settled %d vertices, distance-based %d — expected no more (±10%%)", proposed, distance)
	}
}

func TestStartOnPoI(t *testing.T) {
	// Starting at a PoI vertex that itself matches the first category: it
	// is a valid zero-distance first stop (brute-force semantics), in
	// every optimization configuration.
	fb := taxonomy.NewForestBuilder()
	a := fb.MustAddRoot("A")
	f := fb.Build()
	gb := graph.NewBuilder(false)
	p1 := gb.AddPoI(geo.Point{}, a)
	p2 := gb.AddPoI(geo.Point{Lon: 1}, a)
	gb.AddEdge(p1, p2, 1)
	d := dataset.MustNew("poi-start", gb.Build(), f)
	seq := route.NewCategorySequence(f, f.WuPalmer, a)
	want := osr.BruteForceSkySR(d, p1, seq, route.AggProduct)
	for name, opts := range optionVariants() {
		s := NewSearcher(d, f.WuPalmer, opts)
		res, err := s.QueryCategories(p1, a)
		if err != nil {
			t.Fatal(err)
		}
		if !sameSkyline(res.Routes, want) {
			t.Fatalf("%s: PoI-start mismatch\ngot:  %v\nwant: %v", name, res.Routes, want.Routes())
		}
		if len(res.Routes) != 1 || res.Routes[0].Length() != 0 {
			t.Fatalf("%s: want the zero-length route at the start PoI, got %v", name, res.Routes)
		}
	}
}

func TestStartOnPoIRandomized(t *testing.T) {
	// Randomized cross-check with PoI starts across option variants.
	rng := rand.New(rand.NewSource(42))
	f := taxonomy.Generated(3, 2, 3)
	for trial := 0; trial < 8; trial++ {
		d := randomDataset(rng, f, 18, 14)
		pois := d.Graph.PoIVertices()
		start := pois[rng.Intn(len(pois))]
		cats := pickCats(rng, f, 2)
		seq := route.NewCategorySequence(f, f.WuPalmer, cats...)
		want := osr.BruteForceSkySR(d, start, seq, route.AggProduct)
		for name, opts := range optionVariants() {
			s := NewSearcher(d, f.WuPalmer, opts)
			res, err := s.QueryCategories(start, cats...)
			if err != nil {
				t.Fatal(err)
			}
			if !sameSkyline(res.Routes, want) {
				t.Fatalf("trial %d %s: PoI-start mismatch\ngot:  %v\nwant: %v", trial, name, res.Routes, want.Routes())
			}
		}
	}
}
