package skysr

import (
	"math"
	"strings"
	"testing"
)

// ratedEngine builds a line network where the nearest matching PoI has a
// poor rating and a farther one is top-rated.
func ratedEngine(t *testing.T) (*Engine, VertexID) {
	t.Helper()
	tb := NewTaxonomyBuilder().Root("Food").Child("Food", "Ramen")
	nb := NewNetworkBuilder("rated", tb)
	start := nb.AddVertex(0, 0)
	near, err := nb.AddPoI(1, 0, "Ramen")
	if err != nil {
		t.Fatal(err)
	}
	far, err := nb.AddPoI(2, 0, "Ramen")
	if err != nil {
		t.Fatal(err)
	}
	if err := nb.AddRoad(start, near, 100); err != nil {
		t.Fatal(err)
	}
	if err := nb.AddRoad(near, far, 100); err != nil {
		t.Fatal(err)
	}
	if err := nb.SetRating(near, 1.5); err != nil {
		t.Fatal(err)
	}
	if err := nb.SetRating(far, 5); err != nil {
		t.Fatal(err)
	}
	eng, err := nb.Build()
	if err != nil {
		t.Fatal(err)
	}
	return eng, start
}

func TestRatedQueryPublicAPI(t *testing.T) {
	eng, start := ratedEngine(t)
	via := []Requirement{Category("Ramen")}

	plain, err := eng.Search(Query{Start: start, Via: via})
	if err != nil {
		t.Fatal(err)
	}
	if len(plain.Routes) != 1 {
		t.Fatalf("plain skyline = %v, want only the near PoI", plain.Routes)
	}
	if plain.Routes[0].RatingScore != -1 {
		t.Errorf("plain RatingScore = %v, want -1 sentinel", plain.Routes[0].RatingScore)
	}

	rated, err := eng.Search(Query{Start: start, Via: via, IncludeRatings: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(rated.Routes) != 2 {
		t.Fatalf("rated skyline = %v, want near + far", rated.Routes)
	}
	// Near first (100 m, penalty 0.7), far second (200 m, penalty 0).
	if math.Abs(rated.Routes[0].RatingScore-0.7) > 1e-9 {
		t.Errorf("near penalty = %v, want 0.7", rated.Routes[0].RatingScore)
	}
	if rated.Routes[1].RatingScore != 0 {
		t.Errorf("far penalty = %v, want 0", rated.Routes[1].RatingScore)
	}
	if !strings.Contains(rated.Routes[0].String(), "rating penalty") {
		t.Errorf("rated rendering = %q", rated.Routes[0].String())
	}
}

func TestRatedQueryRejectsCombinations(t *testing.T) {
	eng, start := ratedEngine(t)
	via := []Requirement{Category("Ramen")}
	if _, err := eng.Search(Query{Start: start, Via: via, IncludeRatings: true, Unordered: true}); err == nil {
		t.Error("IncludeRatings+Unordered should fail")
	}
	if _, err := eng.Search(Query{Start: start, Via: via, IncludeRatings: true, Destination: start, HasDestination: true}); err == nil {
		t.Error("IncludeRatings+Destination should fail")
	}
}

func TestRatedQueryExpandPaths(t *testing.T) {
	eng, start := ratedEngine(t)
	ans, err := eng.SearchWith(
		Query{Start: start, Via: []Requirement{Category("Ramen")}, IncludeRatings: true},
		SearchOptions{ExpandPaths: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range ans.Routes {
		if len(r.Path) == 0 || r.Path[0] != start {
			t.Errorf("bad expanded path %v", r.Path)
		}
	}
}

func TestRatingsSurviveSaveLoad(t *testing.T) {
	eng, start := ratedEngine(t)
	path := t.TempDir() + "/rated.skysr"
	if err := eng.Save(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	via := []Requirement{Category("Ramen")}
	a, err := eng.Search(Query{Start: start, Via: via, IncludeRatings: true})
	if err != nil {
		t.Fatal(err)
	}
	b, err := loaded.Search(Query{Start: start, Via: via, IncludeRatings: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Routes) != len(b.Routes) {
		t.Fatal("rated skyline changed across save/load")
	}
	for i := range a.Routes {
		if a.Routes[i].RatingScore != b.Routes[i].RatingScore {
			t.Fatal("rating scores changed across save/load")
		}
	}
}

func TestSetRatingValidation(t *testing.T) {
	tb := NewTaxonomyBuilder().Root("A")
	nb := NewNetworkBuilder("x", tb)
	p, err := nb.AddPoI(0, 0, "A")
	if err != nil {
		t.Fatal(err)
	}
	if err := nb.SetRating(p, 6); err == nil {
		t.Error("rating > 5 should fail")
	}
	if err := nb.SetRating(p, -1); err == nil {
		t.Error("negative rating should fail")
	}
	if err := nb.SetRating(p, 4.5); err != nil {
		t.Error(err)
	}
}

func TestGeneratedPresetsCarryRatings(t *testing.T) {
	eng, err := Generate("tokyo", 0.05, 3)
	if err != nil {
		t.Fatal(err)
	}
	qs, err := eng.Workload(3, 2, 5)
	if err != nil {
		t.Fatal(err)
	}
	q := qs[0]
	q.IncludeRatings = true
	ans, err := eng.Search(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(ans.Routes) == 0 {
		t.Fatal("no rated routes on generated dataset")
	}
	// At least one route should have a nonzero penalty on a realistic
	// rating distribution; and the rated skyline is a superset-or-equal
	// of the plain one in size.
	plain, err := eng.Search(qs[0])
	if err != nil {
		t.Fatal(err)
	}
	if len(ans.Routes) < len(plain.Routes) {
		t.Errorf("rated skyline (%d) smaller than plain (%d)", len(ans.Routes), len(plain.Routes))
	}
}
