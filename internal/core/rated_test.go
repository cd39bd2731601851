package core

import (
	"math"
	"math/rand"
	"testing"

	"skysr/internal/dataset"
	"skysr/internal/geo"
	"skysr/internal/graph"
	"skysr/internal/index"
	"skysr/internal/osr"
	"skysr/internal/route"
	"skysr/internal/taxonomy"
)

// ratedDataset attaches random ratings to a random dataset.
func ratedDataset(t *testing.T, rng *rand.Rand, f *taxonomy.Forest, vertices, pois int) *dataset.Dataset {
	t.Helper()
	d := randomDataset(rng, f, vertices, pois)
	ratings := make([]float64, d.Graph.NumVertices())
	for i := range ratings {
		ratings[i] = dataset.MaxRating
	}
	for _, p := range d.Graph.PoIVertices() {
		ratings[p] = float64(rng.Intn(11)) / 2 // 0, 0.5, …, 5
	}
	if err := d.SetRatings(ratings); err != nil {
		t.Fatal(err)
	}
	return d
}

func sameSkyline3(got []RatedRoute, want []route.Point3) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range got {
		if math.Abs(got[i].Route.Length()-want[i].L) > 1e-9 ||
			math.Abs(got[i].Route.Semantic()-want[i].S) > 1e-9 ||
			math.Abs(got[i].Rating-want[i].R) > 1e-9 {
			return false
		}
	}
	return true
}

// TestRatedMatchesBruteForce is the exactness test for the three-criteria
// extension across all optimization configurations, with and without the
// category index.
func TestRatedMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(81))
	f := taxonomy.Generated(3, 2, 3)
	for trial := 0; trial < 20; trial++ {
		d := ratedDataset(t, rng, f, 16, 12)
		idx := index.New(d, 0)
		// The last 10 trials run three positions, so the §5.3.3 suffix
		// the index prune and the radius add spans a hop past the next.
		size := 2
		if trial >= 10 {
			size = 3
		}
		cats := pickCats(rng, f, size)
		start := graph.VertexID(rng.Intn(16))
		seq := route.NewCategorySequence(f, f.WuPalmer, cats...)
		want := osr.BruteForce(d, osr.Query{Start: start, Seq: seq, Dest: graph.NoVertex, Rated: true}, 1)
		for name, opts := range optionVariants() {
			for _, useIdx := range []bool{false, true} {
				opts.Index = nil
				if useIdx {
					opts.Index = idx
				}
				s := NewSearcher(d, f.WuPalmer, opts)
				res, err := s.QueryRated(start, seq)
				if err != nil {
					t.Fatalf("%s idx=%v: %v", name, useIdx, err)
				}
				if !sameSkyline3(res.Routes, want) {
					t.Fatalf("trial %d %s idx=%v: rated skyline mismatch\ngot:  %v\nwant: %v",
						trial, name, useIdx, renderRated(res.Routes), want)
				}
			}
		}
	}
}

func renderRated(rs []RatedRoute) []route.Point3 {
	out := make([]route.Point3, len(rs))
	for i, r := range rs {
		out[i] = route.Point3{L: r.Route.Length(), S: r.Route.Semantic(), R: r.Rating, Route: r.Route}
	}
	return out
}

// TestRatedWithoutRatingsCollapsesTo2D: on a dataset without ratings every
// PoI is "top-rated", so the rated skyline must equal the plain skyline
// with penalty 0 everywhere.
func TestRatedWithoutRatingsCollapsesTo2D(t *testing.T) {
	rng := rand.New(rand.NewSource(82))
	f := taxonomy.Generated(3, 2, 3)
	d := randomDataset(rng, f, 16, 12)
	cats := pickCats(rng, f, 2)
	seq := route.NewCategorySequence(f, f.WuPalmer, cats...)

	s := NewSearcher(d, f.WuPalmer, DefaultOptions())
	plain, err := s.QueryCategories(0, cats...)
	if err != nil {
		t.Fatal(err)
	}
	rated, err := s.QueryRated(0, seq)
	if err != nil {
		t.Fatal(err)
	}
	if len(rated.Routes) != len(plain.Routes) {
		t.Fatalf("rated %d routes, plain %d", len(rated.Routes), len(plain.Routes))
	}
	for i := range rated.Routes {
		if rated.Routes[i].Rating != 0 {
			t.Errorf("penalty = %v without ratings, want 0", rated.Routes[i].Rating)
		}
		if math.Abs(rated.Routes[i].Route.Length()-plain.Routes[i].Length()) > 1e-9 {
			t.Errorf("route %d lengths differ", i)
		}
	}
}

// TestRatedSurfacesBetterRatedAlternative builds the canonical scenario:
// two perfect-category PoIs, the nearer with a bad rating — the rated
// skyline must contain both, the plain skyline only the nearer.
func TestRatedSurfacesBetterRatedAlternative(t *testing.T) {
	fb := taxonomy.NewForestBuilder()
	a := fb.MustAddRoot("A")
	f := fb.Build()
	gb := graph.NewBuilder(false)
	v0 := gb.AddVertex(geo.Point{})
	near := gb.AddPoI(geo.Point{Lon: 1}, a)
	far := gb.AddPoI(geo.Point{Lon: 2}, a)
	gb.AddEdge(v0, near, 1)
	gb.AddEdge(near, far, 1)
	d := dataset.MustNew("rated", gb.Build(), f)
	ratings := []float64{5, 1, 5} // near is poorly rated
	if err := d.SetRatings(ratings); err != nil {
		t.Fatal(err)
	}
	seq := route.NewCategorySequence(f, f.WuPalmer, a)
	s := NewSearcher(d, f.WuPalmer, DefaultOptions())

	plain, err := s.QueryCategories(v0, a)
	if err != nil {
		t.Fatal(err)
	}
	if len(plain.Routes) != 1 || plain.Routes[0].Last() != near {
		t.Fatalf("plain skyline = %v, want only the near PoI", plain.Routes)
	}
	rated, err := s.QueryRated(v0, seq)
	if err != nil {
		t.Fatal(err)
	}
	if len(rated.Routes) != 2 {
		t.Fatalf("rated skyline = %v, want both PoIs", renderRated(rated.Routes))
	}
	// Near first (shorter, worse rating), far second.
	if rated.Routes[0].Route.Last() != near || rated.Routes[1].Route.Last() != far {
		t.Errorf("rated order = %v", renderRated(rated.Routes))
	}
	if rated.Routes[0].Rating <= rated.Routes[1].Rating {
		t.Errorf("near penalty %v should exceed far penalty %v",
			rated.Routes[0].Rating, rated.Routes[1].Rating)
	}
}

func TestRatedValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(83))
	f := taxonomy.Generated(2, 2, 2)
	d := randomDataset(rng, f, 10, 6)
	s := NewSearcher(d, f.WuPalmer, DefaultOptions())
	if _, err := s.QueryRated(0, nil); err == nil {
		t.Error("empty sequence should fail")
	}
	seq := route.NewCategorySequence(f, f.WuPalmer, f.Leaves()[0])
	if _, err := s.QueryRated(-1, seq); err == nil {
		t.Error("bad start should fail")
	}
}

// TestRatedRestoresPathFilterOption: the loops that run without the
// Lemma 5.5 filter (rated, unordered, top-k) must leave the searcher's
// options exactly as given, so a later plain query still filters.
func TestRatedRestoresPathFilterOption(t *testing.T) {
	rng := rand.New(rand.NewSource(84))
	f := taxonomy.Generated(2, 2, 2)
	d := ratedDataset(t, rng, f, 12, 8)
	seq := route.NewCategorySequence(f, f.WuPalmer, pickCats(rng, f, 2)...)
	topK := DefaultOptions()
	topK.TopK = 2
	for name, tc := range map[string]struct {
		opts  Options
		query func(s *Searcher) error
	}{
		"rated": {DefaultOptions(), func(s *Searcher) error {
			_, err := s.QueryRated(0, seq)
			return err
		}},
		"unordered": {DefaultOptions(), func(s *Searcher) error {
			_, err := s.QueryUnordered(0, seq)
			return err
		}},
		"top-2": {topK, func(s *Searcher) error {
			_, err := s.Query(0, seq)
			return err
		}},
	} {
		s := NewSearcher(d, f.WuPalmer, tc.opts)
		if err := tc.query(s); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if s.opts != tc.opts {
			t.Errorf("%s: options changed to %+v, want %+v", name, s.opts, tc.opts)
		}
	}
}

func TestSetRatingsValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(85))
	f := taxonomy.Generated(2, 2, 2)
	d := randomDataset(rng, f, 10, 5)
	if err := d.SetRatings(make([]float64, 3)); err == nil {
		t.Error("wrong length should fail")
	}
	bad := make([]float64, d.Graph.NumVertices())
	bad[d.Graph.PoIVertices()[0]] = 9
	if err := d.SetRatings(bad); err == nil {
		t.Error("out-of-range rating should fail")
	}
	if d.HasRatings() {
		t.Error("failed SetRatings must not mark ratings present")
	}
	if got := d.Rating(d.Graph.PoIVertices()[0]); got != dataset.MaxRating {
		t.Errorf("unrated dataset Rating = %v, want MaxRating", got)
	}
}
