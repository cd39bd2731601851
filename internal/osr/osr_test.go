package osr

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"skysr/internal/dataset"
	"skysr/internal/gen"
	"skysr/internal/geo"
	"skysr/internal/graph"
	"skysr/internal/route"
	"skysr/internal/taxonomy"
)

// randomDataset builds a small random connected dataset over the given
// forest with PoIs assigned uniformly over its leaves.
func randomDataset(rng *rand.Rand, f *taxonomy.Forest, vertices, pois int) *dataset.Dataset {
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
	}
	return dataset.MustNew("rand", b.Build(), f)
}

// pickQueryCats picks n random leaves (not necessarily distinct trees).
func pickQueryCats(rng *rand.Rand, f *taxonomy.Forest, n int) []taxonomy.CategoryID {
	leaves := f.Leaves()
	out := make([]taxonomy.CategoryID, n)
	for i := range out {
		out[i] = leaves[rng.Intn(len(leaves))]
	}
	return out
}

// bruteForceOSR finds the shortest sequenced route for explicit candidate
// membership per position, by exhaustive enumeration.
func bruteForceOSR(d *dataset.Dataset, start graph.VertexID, members []map[graph.VertexID]struct{}) float64 {
	rows := map[graph.VertexID][]float64{}
	dist := func(u, v graph.VertexID) float64 {
		if rows[u] == nil {
			rows[u] = Distances(d.Graph, u, 0)
		}
		return rows[u][v]
	}
	best := math.Inf(1)
	var rec func(pos int, from graph.VertexID, used map[graph.VertexID]bool, acc float64)
	rec = func(pos int, from graph.VertexID, used map[graph.VertexID]bool, acc float64) {
		if acc >= best {
			return
		}
		if pos == len(members) {
			best = acc
			return
		}
		for p := range members[pos] {
			if used[p] {
				continue
			}
			used[p] = true
			rec(pos+1, p, used, acc+dist(from, p))
			used[p] = false
		}
	}
	rec(0, start, map[graph.VertexID]bool{}, 0)
	return best
}

func TestOSREnginesMatchBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	f := taxonomy.Generated(3, 2, 3)
	for trial := 0; trial < 15; trial++ {
		d := randomDataset(rng, f, 20, 15)
		cats := pickQueryCats(rng, f, 2+rng.Intn(2))
		scoreSeq := route.NewCategorySequence(f, f.WuPalmer, cats...)
		members := make([]map[graph.VertexID]struct{}, len(cats))
		for i, c := range cats {
			set := map[graph.VertexID]struct{}{}
			for _, p := range d.PoIsAssociated(c) {
				set[p] = struct{}{}
			}
			members[i] = set
		}
		want := bruteForceOSR(d, 0, members)

		for _, engine := range []Engine{EngineDijkstra, EnginePNE} {
			s := NewSolver(d, engine, f.WuPalmer, route.AggProduct)
			got, err := s.OSR(0, cats, scoreSeq)
			if err != nil {
				t.Fatalf("%v: %v", engine, err)
			}
			if math.IsInf(want, 1) {
				if got != nil {
					t.Fatalf("%v: expected no route, got %v", engine, got)
				}
				continue
			}
			if got == nil {
				t.Fatalf("%v: expected length %v, got none", engine, want)
			}
			if math.Abs(got.Length()-want) > 1e-9 {
				t.Fatalf("%v: OSR length %v, brute force %v", engine, got.Length(), want)
			}
			// Every returned PoI must be a member of its position set and
			// all PoIs distinct.
			pois := got.PoIs()
			seen := map[graph.VertexID]bool{}
			for i, p := range pois {
				if _, ok := members[i][p]; !ok {
					t.Fatalf("%v: PoI %d not in position %d candidate set", engine, p, i)
				}
				if seen[p] {
					t.Fatalf("%v: duplicate PoI %d in route", engine, p)
				}
				seen[p] = true
			}
		}
	}
}

func TestOSRNoRouteWhenCategoryEmpty(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	fb := taxonomy.NewForestBuilder()
	a := fb.MustAddRoot("A")
	bCat := fb.MustAddRoot("B") // no PoIs will carry B
	f := fb.Build()
	b := graph.NewBuilder(false)
	v0 := b.AddVertex(geo.Point{})
	p := b.AddPoI(geo.Point{Lon: 1}, a)
	b.AddEdge(v0, p, 1)
	d := dataset.MustNew("empty-cat", b.Build(), f)
	_ = rng
	for _, engine := range []Engine{EngineDijkstra, EnginePNE} {
		s := NewSolver(d, engine, f.WuPalmer, route.AggProduct)
		seq := route.NewCategorySequence(f, f.WuPalmer, a, bCat)
		got, err := s.OSR(v0, []taxonomy.CategoryID{a, bCat}, seq)
		if err != nil {
			t.Fatal(err)
		}
		if got != nil {
			t.Errorf("%v: expected no route for empty category", engine)
		}
	}
}

func TestOSRValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	f := taxonomy.Generated(2, 2, 2)
	d := randomDataset(rng, f, 10, 5)
	s := NewSolver(d, EngineDijkstra, f.WuPalmer, route.AggProduct)
	if _, err := s.OSR(0, nil, nil); err == nil {
		t.Error("empty sequence should fail")
	}
	seq := route.NewCategorySequence(f, f.WuPalmer, f.Leaves()[0])
	if _, err := s.OSR(0, []taxonomy.CategoryID{f.Leaves()[0], f.Leaves()[1]}, seq); err == nil {
		t.Error("length mismatch should fail")
	}
}

func TestNaiveSkySRMatchesBruteForceUniformForest(t *testing.T) {
	// Uniform leaf depth: the paper's protocol, under which the ancestor
	// enumeration is exact.
	rng := rand.New(rand.NewSource(24))
	f := taxonomy.Generated(3, 2, 3)
	for trial := 0; trial < 12; trial++ {
		d := randomDataset(rng, f, 18, 12)
		cats := pickQueryCats(rng, f, 2)
		seq := route.NewCategorySequence(f, f.WuPalmer, cats...)
		want := BruteForce(d, Query{Start: 0, Seq: seq, Dest: graph.NoVertex}, 1)

		for _, engine := range []Engine{EngineDijkstra, EnginePNE} {
			s := NewSolver(d, engine, f.WuPalmer, route.AggProduct)
			got, err := s.SkySR(0, cats)
			if err != nil {
				t.Fatal(err)
			}
			assertSameSkyline(t, engine.String(), got, want)
			gotExact, err := s.SkySRExact(0, cats)
			if err != nil {
				t.Fatal(err)
			}
			assertSameSkyline(t, engine.String()+"-exact", gotExact, want)
		}
	}
}

func TestNaiveSkySRExactOnUnevenForest(t *testing.T) {
	// Build a forest with uneven leaf depths: querying leaf "shallow"
	// whose tree has a deeper branch can defeat the ancestor enumeration;
	// SkySRExact must still match brute force.
	rng := rand.New(rand.NewSource(25))
	fb := taxonomy.NewForestBuilder()
	rootA := fb.MustAddRoot("A")
	fb.MustAddChild(rootA, "shallow")
	deep := fb.MustAddChild(rootA, "mid")
	fb.MustAddChild(deep, "deep1")
	fb.MustAddChild(deep, "deep2")
	rootB := fb.MustAddRoot("B")
	fb.MustAddChild(rootB, "b1")
	fb.MustAddChild(rootB, "b2")
	f := fb.Build()

	mismatches := 0
	for trial := 0; trial < 15; trial++ {
		d := randomDataset(rng, f, 16, 14)
		cats := []taxonomy.CategoryID{f.MustLookup("shallow"), f.MustLookup("b1")}
		seq := route.NewCategorySequence(f, f.WuPalmer, cats...)
		want := BruteForce(d, Query{Start: 0, Seq: seq, Dest: graph.NoVertex}, 1)

		s := NewSolver(d, EnginePNE, f.WuPalmer, route.AggProduct)
		gotExact, err := s.SkySRExact(0, cats)
		if err != nil {
			t.Fatal(err)
		}
		assertSameSkyline(t, "exact-uneven", gotExact, want)

		gotAncestor, err := s.SkySR(0, cats)
		if err != nil {
			t.Fatal(err)
		}
		if !sameSkyline(gotAncestor, want) {
			mismatches++ // expected occasionally: the documented gap
		}
	}
	t.Logf("ancestor-mode mismatches on uneven forest: %d/15 (>0 demonstrates the documented gap)", mismatches)
}

func TestBudgetExceeded(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	f := taxonomy.Generated(3, 2, 3)
	d := randomDataset(rng, f, 30, 20)
	cats := pickQueryCats(rng, f, 3)
	s := NewSolver(d, EngineDijkstra, f.WuPalmer, route.AggProduct)
	s.Budget = 2
	_, err := s.SkySR(0, cats)
	if !errors.Is(err, ErrBudgetExceeded) {
		t.Errorf("expected ErrBudgetExceeded, got %v", err)
	}
}

func TestStatsAccumulate(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	f := taxonomy.Generated(2, 2, 2)
	d := randomDataset(rng, f, 15, 10)
	cats := pickQueryCats(rng, f, 2)
	s := NewSolver(d, EnginePNE, f.WuPalmer, route.AggProduct)
	if _, err := s.SkySR(0, cats); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.OSRQueries == 0 || st.RoutePops == 0 || st.SettledVerts == 0 {
		t.Errorf("stats not recorded: %+v", st)
	}
	if st.OSRQueries != f.CountSuperSequences(cats) {
		t.Errorf("OSRQueries = %d, want %d super-sequences", st.OSRQueries, f.CountSuperSequences(cats))
	}
	if s.MemoryFootprintBytes() <= 0 {
		t.Error("memory footprint should be positive")
	}
	s.ResetStats()
	if s.Stats().OSRQueries != 0 {
		t.Error("ResetStats did not clear")
	}
}

func TestEngineString(t *testing.T) {
	if EngineDijkstra.String() != "Dij" || EnginePNE.String() != "PNE" {
		t.Error("engine names wrong")
	}
	if Engine(9).String() == "" {
		t.Error("unknown engine should render")
	}
}

func TestPaperExampleNaive(t *testing.T) {
	// The naive baseline on the reconstructed Figure 1 network must find
	// the Table 4 skyline: {⟨p10,p12,p13⟩ (13, 0), ⟨p6,p9,p8⟩ (10.5, 0.5)}.
	ds, vq, cats := gen.PaperExample()
	for _, engine := range []Engine{EngineDijkstra, EnginePNE} {
		s := NewSolver(ds, engine, ds.Forest.WuPalmer, route.AggProduct)
		sky, err := s.SkySR(vq, cats)
		if err != nil {
			t.Fatal(err)
		}
		assertPaperSkyline(t, engine.String(), sky)
	}
}

// assertPaperSkyline checks the Table 4 final answer.
func assertPaperSkyline(t *testing.T, name string, sky *route.Skyline) {
	t.Helper()
	rs := sky.Routes()
	if len(rs) != 2 {
		t.Fatalf("%s: skyline size = %d, want 2 (Table 4): %v", name, len(rs), rs)
	}
	// Sorted by length: ⟨p6,p9,p8⟩ (10.5, 0.5) then ⟨p10,p12,p13⟩ (13, 0).
	first, second := rs[0], rs[1]
	if math.Abs(first.Length()-10.5) > 1e-9 || math.Abs(first.Semantic()-0.5) > 1e-9 {
		t.Errorf("%s: first route = (%v, %v), want (10.5, 0.5)", name, first.Length(), first.Semantic())
	}
	wantFirst := []graph.VertexID{6, 9, 8}
	for i, p := range first.PoIs() {
		if p != wantFirst[i] {
			t.Errorf("%s: first route PoIs = %v, want ⟨p6,p9,p8⟩", name, first.PoIs())
			break
		}
	}
	if math.Abs(second.Length()-13) > 1e-9 || second.Semantic() != 0 {
		t.Errorf("%s: second route = (%v, %v), want (13, 0)", name, second.Length(), second.Semantic())
	}
	wantSecond := []graph.VertexID{10, 12, 13}
	for i, p := range second.PoIs() {
		if p != wantSecond[i] {
			t.Errorf("%s: second route PoIs = %v, want ⟨p10,p12,p13⟩", name, second.PoIs())
			break
		}
	}
}

// points lists a skyline's routes as the oracle's points.
func points(sky *route.Skyline) []route.Point3 {
	var out []route.Point3
	for _, r := range sky.Routes() {
		out = append(out, route.Point3{L: r.Length(), S: r.Semantic(), Route: r})
	}
	return out
}

func sameSkyline(got *route.Skyline, want []route.Point3) bool {
	gp := points(got)
	if len(gp) != len(want) {
		return false
	}
	for i := range gp {
		if math.Abs(gp[i].L-want[i].L) > 1e-9 || math.Abs(gp[i].S-want[i].S) > 1e-9 {
			return false
		}
	}
	return true
}

func assertSameSkyline(t *testing.T, name string, got *route.Skyline, want []route.Point3) {
	t.Helper()
	if !sameSkyline(got, want) {
		t.Fatalf("%s: skyline mismatch\ngot:  %v\nwant: %v", name, got.Routes(), want)
	}
}
