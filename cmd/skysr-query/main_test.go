package main

import (
	"testing"

	"skysr"
)

func TestParseVia(t *testing.T) {
	reqs := parseVia("Sushi Restaurant, Gift Shop ,,  Bar")
	if len(reqs) != 3 {
		t.Fatalf("got %d requirements, want 3", len(reqs))
	}
	if len(parseVia("")) != 0 {
		t.Error("empty via should produce no requirements")
	}
}

// TestEndToEndThroughCLIHelpers drives the same flow main performs, minus
// flag parsing: save a dataset, reopen it, query it.
func TestEndToEndThroughCLIHelpers(t *testing.T) {
	eng, vq, cats := skysr.PaperExample()
	path := t.TempDir() + "/paper.skysr"
	if err := eng.Save(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := skysr.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	via := parseVia(cats[0] + "," + cats[1] + "," + cats[2])
	ans, err := loaded.SearchWith(skysr.Query{Start: vq, Via: via}, skysr.SearchOptions{ExpandPaths: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(ans.Routes) != 2 {
		t.Fatalf("routes = %d, want 2", len(ans.Routes))
	}
	// The -k flag's flow: a top-3 run must return ranked alternatives
	// superset-ing the skyline, with ranks 1..n.
	ans, err = loaded.SearchWith(skysr.Query{Start: vq, Via: via},
		skysr.SearchOptions{TopK: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(ans.Routes) < 2 {
		t.Fatalf("top-3 routes = %d, want >= 2", len(ans.Routes))
	}
	for i, r := range ans.Routes {
		if r.Rank != i+1 {
			t.Fatalf("route %d has rank %d", i, r.Rank)
		}
	}
}
