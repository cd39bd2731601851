package skysr

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

func readFileT(t *testing.T, path string) []byte {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// randomTaxonomy builds a small random forest through the public builder:
// `trees` roots, each with `mid` children carrying `leaves` leaves each.
func randomTaxonomy(trees, mid, leaves int) (*TaxonomyBuilder, []string, []string) {
	tb := NewTaxonomyBuilder()
	var leafNames, allNames []string
	for t := 0; t < trees; t++ {
		root := fmt.Sprintf("T%d", t)
		tb.Root(root)
		allNames = append(allNames, root)
		for m := 0; m < mid; m++ {
			midName := fmt.Sprintf("T%d-M%d", t, m)
			tb.Child(root, midName)
			allNames = append(allNames, midName)
			for l := 0; l < leaves; l++ {
				leaf := fmt.Sprintf("T%d-M%d-L%d", t, m, l)
				tb.Child(midName, leaf)
				leafNames = append(leafNames, leaf)
				allNames = append(allNames, leaf)
			}
		}
	}
	return tb, leafNames, allNames
}

// randomEngine builds a random connected network through the public
// builder, directed or undirected.
func randomEngine(t *testing.T, rng *rand.Rand, directed bool, vertices, pois int) (*Engine, []string) {
	tb, leaves, _ := randomTaxonomy(3, 2, 2)
	var nb *NetworkBuilder
	if directed {
		nb = NewDirectedNetworkBuilder("prop", tb)
	} else {
		nb = NewNetworkBuilder("prop", tb)
	}
	for i := 0; i < vertices; i++ {
		nb.AddVertex(rng.Float64(), rng.Float64())
	}
	for i := 1; i < vertices; i++ {
		j := VertexID(rng.Intn(i))
		if err := nb.AddRoad(VertexID(i), j, 1+rng.Float64()*9); err != nil {
			t.Fatal(err)
		}
		if directed {
			if err := nb.AddRoad(j, VertexID(i), 1+rng.Float64()*9); err != nil {
				t.Fatal(err)
			}
		}
	}
	for i := 0; i < pois; i++ {
		attach := VertexID(rng.Intn(vertices))
		cats := []string{leaves[rng.Intn(len(leaves))]}
		if rng.Intn(4) == 0 { // some multi-category PoIs
			cats = append(cats, leaves[rng.Intn(len(leaves))])
		}
		p, err := nb.AddPoI(rng.Float64(), rng.Float64(), cats...)
		if err != nil {
			t.Fatal(err)
		}
		if err := nb.AddRoad(attach, p, 0.5); err != nil {
			t.Fatal(err)
		}
		if directed {
			if err := nb.AddRoad(p, attach, 0.5); err != nil {
				t.Fatal(err)
			}
		}
	}
	eng, err := nb.Build()
	if err != nil {
		t.Fatal(err)
	}
	return eng, leaves
}

// randomRequirement composes a mixed requirement: plain Category, AnyOf,
// AllOf or Excluding over random leaf categories.
func randomRequirement(rng *rand.Rand, leaves []string) Requirement {
	pick := func() string { return leaves[rng.Intn(len(leaves))] }
	switch rng.Intn(6) {
	case 0:
		return AnyOf(Category(pick()), Category(pick()))
	case 1:
		return AllOf(Category(pick()))
	case 2:
		return Excluding(Category(pick()), pick())
	default:
		return Category(pick())
	}
}

// TestSearchWithCategoryIndexIdenticalAnswers is the satellite property
// test at API level: across random directed and undirected networks and
// mixed requirement types (Category/AnyOf/AllOf/Excluding), SearchWith
// under UseCategoryIndex must return answers identical — same PoIs, paths
// and bit-equal scores — to the no-index baseline. Mixed requirements
// exercise the fallback (the index cannot cover them); plain category
// queries exercise the covered fast path.
func TestSearchWithCategoryIndexIdenticalAnswers(t *testing.T) {
	rng := rand.New(rand.NewSource(97))
	for _, directed := range []bool{false, true} {
		for trial := 0; trial < 8; trial++ {
			eng, leaves := randomEngine(t, rng, directed, 30, 20)
			for qi := 0; qi < 6; qi++ {
				k := 2 + rng.Intn(2)
				via := make([]Requirement, k)
				for i := range via {
					via[i] = randomRequirement(rng, leaves)
				}
				q := Query{Start: VertexID(rng.Intn(30)), Via: via}
				want, err := eng.SearchWith(q, SearchOptions{})
				if err != nil {
					t.Fatal(err)
				}
				got, err := eng.SearchWith(q, SearchOptions{UseCategoryIndex: true})
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got.Routes, want.Routes) {
					t.Fatalf("directed=%v trial %d query %d: indexed answers differ\ngot:  %v\nwant: %v",
						directed, trial, qi, got.Routes, want.Routes)
				}
			}
		}
	}
}

// TestEngineSaveOpenIndexRoundTrip: build → Save → Open must round-trip
// the index sidecar bit-exactly — the reopened engine reports the same
// resident rows without rebuilding and serves identical answers.
func TestEngineSaveOpenIndexRoundTrip(t *testing.T) {
	eng, err := Generate("tokyo", 0.05, 7)
	if err != nil {
		t.Fatal(err)
	}
	// Build rows (roots + populated leaves), then persist dataset + sidecar.
	warmed, err := eng.WarmCategoryIndex()
	if err != nil {
		t.Fatal(err)
	}
	if warmed == 0 {
		t.Fatal("nothing warmed")
	}
	path := filepath.Join(t.TempDir(), "tokyo.skysr")
	if err := eng.Save(path); err != nil {
		t.Fatal(err)
	}

	reopened, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	st, st2 := eng.CategoryIndexStats(), reopened.CategoryIndexStats()
	if !st2.FromSidecar {
		t.Fatal("reopened engine did not adopt the sidecar index")
	}
	if st2.RowsBuilt != st.RowsBuilt || st2.Bytes != st.Bytes {
		t.Fatalf("sidecar rows = %d (%d B), want %d (%d B)", st2.RowsBuilt, st2.Bytes, st.RowsBuilt, st.Bytes)
	}

	qs, err := eng.Workload(12, 3, 5)
	if err != nil {
		t.Fatal(err)
	}
	for i, q := range qs {
		want, err := eng.SearchWith(q, SearchOptions{UseCategoryIndex: true})
		if err != nil {
			t.Fatal(err)
		}
		got, err := reopened.SearchWith(q, SearchOptions{UseCategoryIndex: true})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got.Routes, want.Routes) {
			t.Fatalf("query %d: answers differ after Save/Open round-trip", i)
		}
		base, err := reopened.SearchWith(q, SearchOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got.Routes, base.Routes) {
			t.Fatalf("query %d: sidecar-indexed answers differ from baseline", i)
		}
	}
	// The loaded rows must re-serialize to the identical byte stream.
	side1 := filepath.Join(t.TempDir(), "a.cidx")
	side2 := filepath.Join(t.TempDir(), "b.cidx")
	if err := eng.SaveIndex(side1); err != nil {
		t.Fatal(err)
	}
	if err := reopened.SaveIndex(side2); err != nil {
		t.Fatal(err)
	}
	b1, b2 := readFileT(t, side1), readFileT(t, side2)
	if string(b1) != string(b2) {
		t.Fatal("sidecar bytes differ after round-trip")
	}
}

// TestStaleSidecarIgnored: a sidecar from a different dataset next to the
// file must be ignored, not crash or corrupt answers.
func TestStaleSidecarIgnored(t *testing.T) {
	dir := t.TempDir()
	other, err := Generate("tokyo", 0.04, 9)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := other.WarmCategoryIndex(); err != nil {
		t.Fatal(err)
	}
	eng, err := Generate("tokyo", 0.05, 7)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "ds.skysr")
	if err := eng.Save(path); err != nil { // no index built: dataset only
		t.Fatal(err)
	}
	if err := other.SaveIndex(IndexSidecarPath(path)); err != nil { // stale sidecar
		t.Fatal(err)
	}
	reopened, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if st := reopened.CategoryIndexStats(); st.FromSidecar {
		t.Fatal("stale sidecar must be ignored")
	}
	q := Query{Start: reopened.RandomVertex(3), Via: []Requirement{Category(reopened.LeafCategories()[0]), Category(reopened.LeafCategories()[1])}}
	want, err := reopened.SearchWith(q, SearchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := reopened.SearchWith(q, SearchOptions{UseCategoryIndex: true})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Routes, want.Routes) {
		t.Fatal("answers differ after ignoring a stale sidecar")
	}
}

// TestConfigureCategoryIndexBudget: a tiny budget must deny row builds
// (recorded in stats) while answers stay exact via the fallback path.
func TestConfigureCategoryIndexBudget(t *testing.T) {
	eng, err := Generate("tokyo", 0.05, 7)
	if err != nil {
		t.Fatal(err)
	}
	eng.ConfigureCategoryIndex(int64(eng.NumVertices()) * 4) // one row only
	q := Query{Start: eng.RandomVertex(2), Via: []Requirement{
		Category(eng.LeafCategories()[0]), Category(eng.LeafCategories()[3]),
	}}
	want, err := eng.SearchWith(q, SearchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := eng.SearchWith(q, SearchOptions{UseCategoryIndex: true})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Routes, want.Routes) {
		t.Fatal("answers differ under a tiny index budget")
	}
	st := eng.CategoryIndexStats()
	if st.Bytes > st.MaxBytes {
		t.Fatalf("index footprint %d exceeds budget %d", st.Bytes, st.MaxBytes)
	}
	if st.SkippedBuilds == 0 {
		t.Fatal("expected the budget to deny at least one row build")
	}
}

// TestWarmCategoryIndexCountsDistinctRows: a childless root that holds
// PoIs is both a tree root and a populated leaf, so the default warm-up
// requests it twice. WarmCategoryIndex must report the distinct rows it
// left resident, once each, as do the index stats; so must a named list
// that repeats a category.
func TestWarmCategoryIndexCountsDistinctRows(t *testing.T) {
	tb := NewTaxonomyBuilder().Root("Solo").Root("Food").Child("Food", "Sushi")
	nb := NewNetworkBuilder("solo", tb)
	v := nb.AddVertex(0, 0)
	for i, cat := range []string{"Solo", "Sushi"} {
		p, err := nb.AddPoI(float64(i+1), 0, cat)
		if err != nil {
			t.Fatal(err)
		}
		if err := nb.AddRoad(v, p, float64(i+1)); err != nil {
			t.Fatal(err)
		}
	}
	eng, err := nb.Build()
	if err != nil {
		t.Fatal(err)
	}
	warmed, err := eng.WarmCategoryIndex()
	if err != nil {
		t.Fatal(err)
	}
	if st := eng.CategoryIndexStats(); warmed != 3 || st.RowsBuilt != 3 {
		t.Fatalf("WarmCategoryIndex() = %d with %d rows resident, want 3 and 3 (Solo, Food, Sushi)", warmed, st.RowsBuilt)
	}
	if warmed, err := eng.WarmCategoryIndex("Sushi", "Solo", "Sushi"); err != nil || warmed != 2 {
		t.Fatalf("WarmCategoryIndex(Sushi, Solo, Sushi) = %d, %v; want 2", warmed, err)
	}
}
