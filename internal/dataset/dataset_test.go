package dataset

import (
	"strings"
	"testing"

	"skysr/internal/geo"
	"skysr/internal/graph"
	"skysr/internal/taxonomy"
)

// fixture builds a small dataset: Food{Asian, Italian{Pizza}}, Shop{Gift}
// over a 6-vertex path with 4 PoIs.
func fixture(t testing.TB) (*Dataset, map[string]taxonomy.CategoryID, map[string]graph.VertexID) {
	t.Helper()
	fb := taxonomy.NewForestBuilder()
	food := fb.MustAddRoot("Food")
	asian := fb.MustAddChild(food, "Asian")
	italian := fb.MustAddChild(food, "Italian")
	pizza := fb.MustAddChild(italian, "Pizza")
	shop := fb.MustAddRoot("Shop")
	gift := fb.MustAddChild(shop, "Gift")
	f := fb.Build()

	b := graph.NewBuilder(false)
	v0 := b.AddVertex(geo.Point{Lon: 0})
	pAsian := b.AddPoI(geo.Point{Lon: 1}, asian)
	pPizza := b.AddPoI(geo.Point{Lon: 2}, pizza)
	pGift := b.AddPoI(geo.Point{Lon: 3}, gift)
	pMulti := b.AddPoI(geo.Point{Lon: 4}, italian)
	b.AddCategory(pMulti, gift)
	prev := v0
	for _, v := range []graph.VertexID{pAsian, pPizza, pGift, pMulti} {
		b.AddEdge(prev, v, 1)
		prev = v
	}
	d, err := New("fixture", b.Build(), f)
	if err != nil {
		t.Fatal(err)
	}
	cats := map[string]taxonomy.CategoryID{"Food": food, "Asian": asian, "Italian": italian, "Pizza": pizza, "Shop": shop, "Gift": gift}
	verts := map[string]graph.VertexID{"v0": v0, "pAsian": pAsian, "pPizza": pPizza, "pGift": pGift, "pMulti": pMulti}
	return d, cats, verts
}

func hasVertex(vs []graph.VertexID, v graph.VertexID) bool {
	for _, x := range vs {
		if x == v {
			return true
		}
	}
	return false
}

func TestPoIIndexes(t *testing.T) {
	d, cats, verts := fixture(t)

	// P_Food (association includes descendants): pAsian, pPizza, pMulti.
	food := d.PoIsAssociated(cats["Food"])
	if len(food) != 3 || !hasVertex(food, verts["pAsian"]) || !hasVertex(food, verts["pPizza"]) || !hasVertex(food, verts["pMulti"]) {
		t.Errorf("P_Food = %v", food)
	}
	// P_Italian: pPizza (descendant) and pMulti (direct).
	it := d.PoIsAssociated(cats["Italian"])
	if len(it) != 2 || !hasVertex(it, verts["pPizza"]) || !hasVertex(it, verts["pMulti"]) {
		t.Errorf("P_Italian = %v", it)
	}
	// Exact Italian: only pMulti.
	exact := d.PoIsExact(cats["Italian"])
	if len(exact) != 1 || exact[0] != verts["pMulti"] {
		t.Errorf("exact Italian = %v", exact)
	}
	// Tree of Pizza = Food tree.
	tree := d.PoIsInTree(cats["Pizza"])
	if len(tree) != 3 {
		t.Errorf("P_t(Food) = %v", tree)
	}
	// Multi-category PoI appears in both trees.
	shopTree := d.PoIsInTree(cats["Gift"])
	if len(shopTree) != 2 || !hasVertex(shopTree, verts["pGift"]) || !hasVertex(shopTree, verts["pMulti"]) {
		t.Errorf("P_t(Shop) = %v", shopTree)
	}
}

func TestNewRejectsForeignCategory(t *testing.T) {
	fb := taxonomy.NewForestBuilder()
	fb.MustAddRoot("OnlyRoot")
	f := fb.Build()
	b := graph.NewBuilder(false)
	p := b.AddPoI(geo.Point{}, 5) // category 5 does not exist
	v := b.AddVertex(geo.Point{Lon: 1})
	b.AddEdge(p, v, 1)
	if _, err := New("bad", b.Build(), f); err == nil {
		t.Error("New should reject categories outside the forest")
	}
}

func TestCategoriesWithAtLeast(t *testing.T) {
	d, cats, _ := fixture(t)
	got := d.CategoriesWithAtLeast(1)
	// Leaves with ≥1 exact PoI: Asian(1), Pizza(1), Gift(1). Italian is
	// not a leaf; pMulti's Italian is exact but Italian has a child.
	want := map[taxonomy.CategoryID]bool{cats["Asian"]: true, cats["Pizza"]: true, cats["Gift"]: true}
	if len(got) != len(want) {
		t.Fatalf("CategoriesWithAtLeast(1) = %v", got)
	}
	for _, c := range got {
		if !want[c] {
			t.Errorf("unexpected category %s", d.Forest.Name(c))
		}
	}
	// Gift has two exact PoIs: pGift plus pMulti's extra category.
	two := d.CategoriesWithAtLeast(2)
	if len(two) != 1 || two[0] != cats["Gift"] {
		t.Errorf("CategoriesWithAtLeast(2) = %v, want [Gift]", two)
	}
	if len(d.CategoriesWithAtLeast(3)) != 0 {
		t.Error("no leaf has 3 exact PoIs")
	}
}

func TestStats(t *testing.T) {
	d, _, _ := fixture(t)
	s := d.Stats()
	if s.RoadVertices != 1 || s.PoIVertices != 4 || s.Edges != 4 {
		t.Errorf("stats = %+v", s)
	}
	if s.Categories != 6 || s.Trees != 2 {
		t.Errorf("stats = %+v", s)
	}
	if !strings.Contains(s.String(), "fixture") {
		t.Errorf("String = %q", s.String())
	}
	if d.MemoryFootprintBytes() <= 0 {
		t.Error("memory footprint should be positive")
	}
}

func TestRoundTrip(t *testing.T) {
	d, _, _ := fixture(t)
	var buf strings.Builder
	if err := Write(&buf, d); err != nil {
		t.Fatal(err)
	}
	got, err := Read(strings.NewReader(buf.String()))
	if err != nil {
		t.Fatalf("Read failed: %v\nfile:\n%s", err, buf.String())
	}
	if got.Name != d.Name {
		t.Errorf("name = %q, want %q", got.Name, d.Name)
	}
	if got.Graph.NumVertices() != d.Graph.NumVertices() ||
		got.Graph.NumEdges() != d.Graph.NumEdges() ||
		got.Graph.NumPoIs() != d.Graph.NumPoIs() {
		t.Fatal("graph sizes changed in round trip")
	}
	if got.Forest.NumCategories() != d.Forest.NumCategories() || got.Forest.NumTrees() != d.Forest.NumTrees() {
		t.Fatal("forest changed in round trip")
	}
	for v := graph.VertexID(0); int(v) < d.Graph.NumVertices(); v++ {
		if got.Graph.Point(v) != d.Graph.Point(v) {
			t.Fatalf("vertex %d coordinates changed", v)
		}
		a, b := got.Graph.Categories(v), d.Graph.Categories(v)
		if len(a) != len(b) {
			t.Fatalf("vertex %d categories changed: %v vs %v", v, a, b)
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("vertex %d categories changed: %v vs %v", v, a, b)
			}
		}
	}
	// Edge weights preserved.
	for u := graph.VertexID(0); int(u) < d.Graph.NumVertices(); u++ {
		ts, ws := d.Graph.Neighbors(u)
		for i, tgt := range ts {
			w2, ok := got.Graph.EdgeWeight(u, tgt)
			if !ok || w2 != ws[i] {
				t.Fatalf("edge %d-%d weight changed", u, tgt)
			}
		}
	}
	// Category names preserved.
	for c := taxonomy.CategoryID(0); int(c) < d.Forest.NumCategories(); c++ {
		if got.Forest.Name(c) != d.Forest.Name(c) {
			t.Fatalf("category %d name changed", c)
		}
	}
}

func TestRoundTripFile(t *testing.T) {
	d, _, _ := fixture(t)
	path := t.TempDir() + "/ds.txt"
	if err := WriteFile(path, d); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Graph.NumVertices() != d.Graph.NumVertices() {
		t.Error("file round trip changed sizes")
	}
	if _, err := ReadFile(t.TempDir() + "/missing.txt"); err == nil {
		t.Error("missing file should fail")
	}
}

func TestReadRejectsMalformedInput(t *testing.T) {
	d, _, _ := fixture(t)
	var buf strings.Builder
	if err := Write(&buf, d); err != nil {
		t.Fatal(err)
	}
	good := buf.String()

	cases := map[string]string{
		"empty":              "",
		"bad header":         "not-a-dataset v9\n",
		"missing name":       "skysr-dataset v1\ndirected false\n",
		"bad directed":       strings.Replace(good, "directed false", "directed maybe", 1),
		"bad category count": strings.Replace(good, "categories 6", "categories banana", 1),
		"truncated cats":     strings.Replace(good, "categories 6", "categories 99", 1),
		"bad vertex line":    strings.Replace(good, "v 0 0", "v zero zero", 1),
		"bad poi category":   strings.Replace(good, "p 1 0 1", "p 1 0 77", 1),
		"bad edge endpoint":  strings.Replace(good, "e 0 1 1", "e 0 99 1", 1),
		"negative weight":    strings.Replace(good, "e 0 1 1", "e 0 1 -5", 1),
		"NaN weight":         strings.Replace(good, "e 0 1 1", "e 0 1 NaN", 1),
		"self loop":          strings.Replace(good, "e 0 1 1", "e 1 1 1", 1),
		"missing end":        strings.TrimSuffix(strings.TrimSpace(good), "end"),
	}
	for name, input := range cases {
		t.Run(name, func(t *testing.T) {
			if _, err := Read(strings.NewReader(input)); err == nil {
				t.Errorf("%s should fail to parse", name)
			}
		})
	}
	// Comments and blank lines are tolerated.
	commented := "# a comment\n\n" + strings.Replace(good, "vertices 5", "# inline comment\nvertices 5", 1)
	if _, err := Read(strings.NewReader(commented)); err != nil {
		t.Errorf("comments should be tolerated: %v", err)
	}
}

func TestWriteDirectedRoundTrip(t *testing.T) {
	fb := taxonomy.NewForestBuilder()
	root := fb.MustAddRoot("R")
	f := fb.Build()
	b := graph.NewBuilder(true)
	p0 := b.AddPoI(geo.Point{Lon: 0}, root)
	v1 := b.AddVertex(geo.Point{Lon: 1})
	b.AddEdge(p0, v1, 2)
	b.AddEdge(v1, p0, 3) // asymmetric weights
	d, err := New("directed", b.Build(), f)
	if err != nil {
		t.Fatal(err)
	}
	var buf strings.Builder
	if err := Write(&buf, d); err != nil {
		t.Fatal(err)
	}
	got, err := Read(strings.NewReader(buf.String()))
	if err != nil {
		t.Fatal(err)
	}
	if !got.Graph.Directed() {
		t.Fatal("directedness lost")
	}
	if w, ok := got.Graph.EdgeWeight(p0, v1); !ok || w != 2 {
		t.Error("forward arc lost")
	}
	if w, ok := got.Graph.EdgeWeight(v1, p0); !ok || w != 3 {
		t.Error("backward arc lost")
	}
}
