package skysr

import (
	"math"
	"slices"
	"strings"
	"testing"

	"skysr/internal/core"
	"skysr/internal/osr"
	"skysr/internal/route"
	"skysr/internal/taxonomy"
)

func TestPaperExampleThroughPublicAPI(t *testing.T) {
	eng, vq, catNames := PaperExample()
	via := make([]Requirement, len(catNames))
	for i, n := range catNames {
		via[i] = Category(n)
	}
	ans, err := eng.Search(Query{Start: vq, Via: via})
	if err != nil {
		t.Fatal(err)
	}
	if len(ans.Routes) != 2 {
		t.Fatalf("routes = %d, want 2 (Table 4)", len(ans.Routes))
	}
	if math.Abs(ans.Routes[0].LengthScore-10.5) > 1e-9 || math.Abs(ans.Routes[0].SemanticScore-0.5) > 1e-9 {
		t.Errorf("first route = %v", ans.Routes[0])
	}
	if math.Abs(ans.Routes[1].LengthScore-13) > 1e-9 || ans.Routes[1].SemanticScore != 0 {
		t.Errorf("second route = %v", ans.Routes[1])
	}
	if ans.Stats == nil || ans.Stats.Results != 2 {
		t.Error("BSSR stats missing")
	}
	if !strings.Contains(ans.Routes[1].String(), "Gift Shop") {
		t.Errorf("route rendering = %q", ans.Routes[1].String())
	}
}

// TestAllAlgorithmsAgreeOnPaperExample checks the Engine's BSSR answer
// against BSSR w/o Opt and both naive baselines, run directly on the
// Engine's dataset: the same PoIs, lengths and semantic scores.
func TestAllAlgorithmsAgreeOnPaperExample(t *testing.T) {
	eng, vq, catNames := PaperExample()
	via := make([]Requirement, len(catNames))
	for i, n := range catNames {
		via[i] = Category(n)
	}
	base, err := eng.SearchWith(Query{Start: vq, Via: via}, SearchOptions{ExpandPaths: true})
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range base.Routes {
		if len(r.Path) == 0 {
			t.Fatalf("BSSR route %d has no path", i)
		}
	}
	ds := eng.internalDataset()
	cats := make([]taxonomy.CategoryID, len(catNames))
	for i, n := range catNames {
		cats[i], _ = ds.Forest.Lookup(n)
	}
	noOpt, err := core.NewSearcher(ds, ds.Forest.WuPalmer, core.WithoutOptimizations()).QueryCategories(vq, cats...)
	if err != nil {
		t.Fatal(err)
	}
	answers := map[string][]*route.Route{"BSSR w/o Opt": noOpt.Routes}
	for _, engine := range []osr.Engine{osr.EngineDijkstra, osr.EnginePNE} {
		sky, err := osr.NewSolver(ds, engine, ds.Forest.WuPalmer, Product).SkySRExact(vq, cats)
		if err != nil {
			t.Fatalf("%v: %v", engine, err)
		}
		answers[engine.String()] = sky.Routes()
	}
	for alg, routes := range answers {
		if len(routes) != len(base.Routes) {
			t.Fatalf("%s returned %d routes, BSSR %d", alg, len(routes), len(base.Routes))
		}
		for i, r := range routes {
			want := base.Routes[i]
			if !slices.Equal(r.PoIs(), want.PoIs) ||
				math.Abs(r.Length()-want.LengthScore) > 1e-9 ||
				math.Abs(r.Semantic()-want.SemanticScore) > 1e-9 {
				t.Fatalf("%s route %d = %v (%v, %v), BSSR %v", alg, i, r.PoIs(), r.Length(), r.Semantic(), want)
			}
		}
	}
}

func TestGenerateAndWorkload(t *testing.T) {
	eng, err := Generate("tokyo", 0.1, 7)
	if err != nil {
		t.Fatal(err)
	}
	if eng.NumVertices() == 0 || eng.NumPoIs() == 0 || eng.NumEdges() == 0 {
		t.Fatal("degenerate generated engine")
	}
	if eng.Name() != "Tokyo" {
		t.Errorf("name = %q", eng.Name())
	}
	if !strings.Contains(eng.Stats(), "Tokyo") {
		t.Errorf("stats = %q", eng.Stats())
	}
	qs, err := eng.Workload(5, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(qs) != 5 {
		t.Fatalf("workload = %d queries", len(qs))
	}
	for _, q := range qs {
		ans, err := eng.Search(q)
		if err != nil {
			t.Fatal(err)
		}
		if len(ans.Routes) == 0 {
			t.Error("workload query returned no routes")
		}
	}
	if _, err := Generate("atlantis", 1, 1); err == nil {
		t.Error("unknown preset should fail")
	}
	if len(Presets()) != 4 {
		t.Error("want 4 presets")
	}
}

func TestSaveOpenRoundTrip(t *testing.T) {
	eng, vq, catNames := PaperExample()
	path := t.TempDir() + "/paper.skysr"
	if err := eng.Save(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	via := make([]Requirement, len(catNames))
	for i, n := range catNames {
		via[i] = Category(n)
	}
	a, err := eng.Search(Query{Start: vq, Via: via})
	if err != nil {
		t.Fatal(err)
	}
	b, err := loaded.Search(Query{Start: vq, Via: via})
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Routes) != len(b.Routes) {
		t.Fatal("round-tripped engine answers differently")
	}
	for i := range a.Routes {
		if a.Routes[i].LengthScore != b.Routes[i].LengthScore {
			t.Fatal("round-tripped route lengths differ")
		}
	}
	if _, err := Open(t.TempDir() + "/missing"); err == nil {
		t.Error("missing file should fail")
	}
}

// identicalAnswers requires bit-identical results: same routes, same PoIs,
// same score bits — not just equivalence.
func identicalAnswers(t *testing.T, tag string, want, got *Answer) {
	t.Helper()
	if len(want.Routes) != len(got.Routes) {
		t.Fatalf("%s: %d routes != %d routes", tag, len(got.Routes), len(want.Routes))
	}
	for i := range want.Routes {
		w, g := want.Routes[i], got.Routes[i]
		if math.Float64bits(w.LengthScore) != math.Float64bits(g.LengthScore) ||
			math.Float64bits(w.SemanticScore) != math.Float64bits(g.SemanticScore) {
			t.Fatalf("%s route %d: scores (%v,%v) != (%v,%v)", tag, i,
				g.LengthScore, g.SemanticScore, w.LengthScore, w.SemanticScore)
		}
		if len(w.PoIs) != len(g.PoIs) {
			t.Fatalf("%s route %d: PoI count differs", tag, i)
		}
		for j := range w.PoIs {
			if w.PoIs[j] != g.PoIs[j] {
				t.Fatalf("%s route %d: PoI %d: %d != %d", tag, i, j, g.PoIs[j], w.PoIs[j])
			}
		}
	}
}

// TestBinaryRoundTripThroughEngine: destination queries on an engine
// opened from SaveBinary's memory-mapped file answer bit-identically to
// the engine opened from Save's text file.
func TestBinaryRoundTripThroughEngine(t *testing.T) {
	eng, err := Generate("nyc", 0.2, 5)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	binPath := dir + "/nyc.skysrb"
	textPath := dir + "/nyc.skysr"
	if err := eng.SaveBinary(binPath); err != nil {
		t.Fatal(err)
	}
	if err := eng.Save(textPath); err != nil {
		t.Fatal(err)
	}
	binEng, err := Open(binPath)
	if err != nil {
		t.Fatal(err)
	}
	textEng, err := Open(textPath)
	if err != nil {
		t.Fatal(err)
	}
	queries, err := eng.Workload(6, 3, 31)
	if err != nil {
		t.Fatal(err)
	}
	for i, q := range queries {
		q.HasDestination = true
		q.Destination = eng.RandomVertex(int64(50 + i))
		want, err := textEng.SearchWith(q, SearchOptions{})
		if err != nil {
			t.Fatal(err)
		}
		got, err := binEng.SearchWith(q, SearchOptions{})
		if err != nil {
			t.Fatal(err)
		}
		identicalAnswers(t, "binary-vs-text", want, got)
	}
}

func TestReadWriteStream(t *testing.T) {
	eng, _, _ := PaperExample()
	var sb strings.Builder
	if err := eng.Write(&sb); err != nil {
		t.Fatal(err)
	}
	loaded, err := Read(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	if loaded.NumPoIs() != eng.NumPoIs() {
		t.Error("stream round trip changed PoI count")
	}
	if _, err := Read(strings.NewReader("junk")); err == nil {
		t.Error("junk input should fail")
	}
}

func TestSearchOptionsAndErrors(t *testing.T) {
	eng, vq, catNames := PaperExample()
	via := []Requirement{Category(catNames[0])}

	if _, err := eng.Search(Query{Start: vq}); err == nil {
		t.Error("query without requirements should fail")
	}
	if _, err := eng.Search(Query{Start: vq, Via: []Requirement{Category("Nope")}}); err == nil {
		t.Error("unknown category should fail")
	}
	if _, err := eng.SearchWith(Query{Start: vq, Via: via}, SearchOptions{Similarity: Similarity(99)}); err == nil {
		t.Error("unknown similarity should fail")
	}
	if _, err := eng.Search(Query{Start: vq, Via: []Requirement{AnyOf()}}); err == nil {
		t.Error("empty AnyOf should fail")
	}
	if _, err := eng.Search(Query{Start: vq, Via: []Requirement{Excluding(Category(catNames[0]), "Nope")}}); err == nil {
		t.Error("unknown excluded category should fail")
	}
}

func TestDestinationQueryPublicAPI(t *testing.T) {
	eng, vq, catNames := PaperExample()
	via := make([]Requirement, len(catNames))
	for i, n := range catNames {
		via[i] = Category(n)
	}
	plain, err := eng.Search(Query{Start: vq, Via: via})
	if err != nil {
		t.Fatal(err)
	}
	withDest, err := eng.Search(Query{Start: vq, Via: via, Destination: vq, HasDestination: true})
	if err != nil {
		t.Fatal(err)
	}
	// Returning to the start can only lengthen routes.
	if withDest.Routes[0].LengthScore < plain.Routes[0].LengthScore {
		t.Errorf("destination shortened the best route: %v < %v",
			withDest.Routes[0].LengthScore, plain.Routes[0].LengthScore)
	}
}

func TestUnorderedQueryPublicAPI(t *testing.T) {
	eng, vq, catNames := PaperExample()
	via := make([]Requirement, len(catNames))
	for i, n := range catNames {
		via[i] = Category(n)
	}
	ordered, err := eng.Search(Query{Start: vq, Via: via})
	if err != nil {
		t.Fatal(err)
	}
	unordered, err := eng.Search(Query{Start: vq, Via: via, Unordered: true})
	if err != nil {
		t.Fatal(err)
	}
	if unordered.Routes[0].LengthScore > ordered.Routes[0].LengthScore {
		t.Errorf("unordered best (%v) should not exceed ordered best (%v)",
			unordered.Routes[0].LengthScore, ordered.Routes[0].LengthScore)
	}
}

func TestExpandPathsOption(t *testing.T) {
	eng, vq, catNames := PaperExample()
	via := make([]Requirement, len(catNames))
	for i, n := range catNames {
		via[i] = Category(n)
	}
	ans, err := eng.SearchWith(Query{Start: vq, Via: via}, SearchOptions{ExpandPaths: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range ans.Routes {
		if len(r.Path) == 0 {
			t.Fatal("expected expanded paths")
		}
		if r.Path[0] != vq {
			t.Errorf("path starts at %d", r.Path[0])
		}
		if r.Path[len(r.Path)-1] != r.PoIs[len(r.PoIs)-1] {
			t.Error("path should end at the last PoI")
		}
	}
}

func TestBuilders(t *testing.T) {
	tb := NewTaxonomyBuilder().
		Root("Food").
		Child("Food", "Ramen").
		Child("Food", "Curry").
		Root("Shopping").
		Child("Shopping", "Books")
	if tb.Err() != nil {
		t.Fatal(tb.Err())
	}
	nb := NewNetworkBuilder("mini", tb)
	v0 := nb.AddVertex(0, 0)
	ramen, err := nb.AddPoI(1, 0, "Ramen")
	if err != nil {
		t.Fatal(err)
	}
	books, err := nb.AddPoI(2, 0, "Books")
	if err != nil {
		t.Fatal(err)
	}
	curry, err := nb.AddPoI(3, 0, "Curry")
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range [][2]VertexID{{v0, ramen}, {ramen, books}, {books, curry}} {
		if err := nb.AddRoad(e[0], e[1], 1); err != nil {
			t.Fatal(err)
		}
	}
	eng, err := nb.Build()
	if err != nil {
		t.Fatal(err)
	}
	ans, err := eng.Search(Query{Start: v0, Via: []Requirement{Category("Ramen"), Category("Books")}})
	if err != nil {
		t.Fatal(err)
	}
	if len(ans.Routes) != 1 || ans.Routes[0].LengthScore != 2 {
		t.Fatalf("routes = %v", ans.Routes)
	}
	// Curry is a semantic sibling of Ramen: querying Curry should surface
	// both the exact and the flexible option.
	ans, err = eng.Search(Query{Start: v0, Via: []Requirement{Category("Curry")}})
	if err != nil {
		t.Fatal(err)
	}
	if len(ans.Routes) != 2 {
		t.Fatalf("expected skyline of 2 (exact Curry + nearer Ramen), got %v", ans.Routes)
	}
}

func TestBuilderErrors(t *testing.T) {
	tb := NewTaxonomyBuilder().Child("Missing", "X")
	if tb.Err() == nil {
		t.Error("child of unknown parent should fail")
	}
	if _, err := NewNetworkBuilder("bad", tb).Build(); err == nil {
		t.Error("Build should surface taxonomy errors")
	}

	tb2 := NewTaxonomyBuilder().Root("A")
	nb := NewNetworkBuilder("x", tb2)
	if _, err := nb.AddPoI(0, 0); err == nil {
		t.Error("AddPoI without categories should fail")
	}
	if _, err := nb.AddPoI(0, 0, "Unknown"); err == nil {
		t.Error("AddPoI with unknown category should fail")
	}
	v0 := nb.AddVertex(0, 0)
	v1 := nb.AddVertex(1, 0)
	if err := nb.AddRoad(v0, v1, -1); err == nil {
		t.Error("negative weight should fail")
	}
	if err := nb.AddRoad(v0, v0, 1); err == nil {
		t.Error("self-loop should fail")
	}
	if _, err := nb.EmbedPoI(0, 0, "A"); err == nil {
		t.Error("EmbedPoI before any road should fail")
	}

	// Names the text format cannot reproduce fail at Build, so a built
	// engine always saves to a file Open reads back.
	for _, tc := range []struct{ name, category string }{
		{"", "A"},
		{"a\nb", "A"},
		{"city ", "A"},
		{"city", ""},
		{"city", "Su\nshi"},
		{"city", "Sushi "},
	} {
		nb := NewNetworkBuilder(tc.name, NewTaxonomyBuilder().Root(tc.category))
		nb.AddVertex(0, 0)
		if _, err := nb.Build(); err == nil {
			t.Errorf("Build accepted dataset %q with category %q", tc.name, tc.category)
		}
	}
}

// TestNetworkBuilderRejectsBadInput feeds the builder endpoints, weights,
// ratings and coordinates it cannot build an engine from. Each must fail
// with an error, at the call when atCall is set and at Build otherwise,
// and never panic.
func TestNetworkBuilderRejectsBadInput(t *testing.T) {
	for _, tc := range []struct {
		name   string
		atCall bool
		edit   func(nb *NetworkBuilder, a, p VertexID) error
	}{
		{"road to an unknown vertex", true, func(nb *NetworkBuilder, a, _ VertexID) error { return nb.AddRoad(a, 99, 1) }},
		{"road from a negative vertex", true, func(nb *NetworkBuilder, a, _ VertexID) error { return nb.AddRoad(-1, a, 1) }},
		{"NaN road weight", true, func(nb *NetworkBuilder, a, p VertexID) error { return nb.AddRoad(a, p, math.NaN()) }},
		{"NaN rating", true, func(nb *NetworkBuilder, _, p VertexID) error { return nb.SetRating(p, math.NaN()) }},
		{"rating of a negative vertex", false, func(nb *NetworkBuilder, _, _ VertexID) error { return nb.SetRating(-1, 3) }},
		{"rating of an unknown vertex", false, func(nb *NetworkBuilder, _, _ VertexID) error { return nb.SetRating(99, 3) }},
		{"NaN PoI coordinate", false, func(nb *NetworkBuilder, _, _ VertexID) error {
			_, err := nb.AddPoI(math.NaN(), 0, "Ramen")
			return err
		}},
		{"infinite vertex coordinate", false, func(nb *NetworkBuilder, _, _ VertexID) error {
			nb.AddVertex(0, math.Inf(1))
			return nil
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("panicked: %v", r)
				}
			}()
			nb := NewNetworkBuilder("bad", NewTaxonomyBuilder().Root("Food").Child("Food", "Ramen"))
			a := nb.AddVertex(0, 0)
			p, err := nb.AddPoI(1, 0, "Ramen")
			if err != nil {
				t.Fatal(err)
			}
			if err := nb.AddRoad(a, p, 1); err != nil {
				t.Fatal(err)
			}
			if err := tc.edit(nb, a, p); err != nil || tc.atCall {
				if err == nil {
					t.Fatal("the call accepted the input")
				}
				return
			}
			if _, err := nb.Build(); err == nil {
				t.Fatal("Build accepted the input")
			}
		})
	}
}

func TestFoursquareBuilderAndEmbedding(t *testing.T) {
	nb := NewFoursquareNetworkBuilder("manhattan-ish")
	a := nb.AddVertex(-73.99, 40.73)
	b := nb.AddVertex(-73.97, 40.75)
	c := nb.AddVertex(-73.95, 40.77)
	if err := nb.AddRoad(a, b, 2500); err != nil {
		t.Fatal(err)
	}
	if err := nb.AddRoad(b, c, 2500); err != nil {
		t.Fatal(err)
	}
	if _, err := nb.EmbedPoI(-73.98, 40.74, "Cupcake Shop"); err != nil {
		t.Fatal(err)
	}
	if _, err := nb.EmbedPoI(-73.96, 40.76, "Jazz Club"); err != nil {
		t.Fatal(err)
	}
	eng, err := nb.Build()
	if err != nil {
		t.Fatal(err)
	}
	if eng.NumPoIs() != 2 {
		t.Fatalf("PoIs = %d", eng.NumPoIs())
	}
	ans, err := eng.Search(Query{Start: a, Via: []Requirement{Category("Cupcake Shop"), Category("Jazz Club")}})
	if err != nil {
		t.Fatal(err)
	}
	if len(ans.Routes) == 0 {
		t.Fatal("expected at least one route")
	}
	n, err := eng.CategoryCount("Cupcake Shop")
	if err != nil || n != 1 {
		t.Errorf("CategoryCount = %d, %v", n, err)
	}
	if _, err := eng.CategoryCount("Nope"); err == nil {
		t.Error("unknown category count should fail")
	}
	if len(eng.Categories()) == 0 || len(eng.LeafCategories()) == 0 {
		t.Error("category listings empty")
	}
	lon, lat := eng.Position(a)
	if lon != -73.99 || lat != 40.73 {
		t.Error("Position wrong")
	}
	if eng.PoIName(a) != "v0" {
		t.Errorf("road vertex name = %q", eng.PoIName(a))
	}
}
