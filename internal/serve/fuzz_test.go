package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"skysr"
	"skysr/internal/logx"
)

// fuzzRoute is the fixed query FuzzUpdateEndpoint asks before comparing
// with a fresh engine: the paper example's Table 4 query.
const fuzzRoute = "/api/route?start=0&via=Asian+Restaurant,Arts+%26+Entertainment,Gift+Shop"

// FuzzUpdateEndpoint feeds mutated JSON bodies to POST /api/update on a
// paper-example server that serves on the category index, warmed in full,
// so every accepted batch drives the index's Evolve: rows rebuilt, repaired
// and carried. The endpoint must never panic and must answer 200, 400 or
// 413; the epoch advances by exactly one on 200 and stays put otherwise.
// After a 200, the fixed route query must return the same (length,
// semantic) list as plain BSSR on a fresh engine read from the updated
// engine's Write output. The committed inputs under
// testdata/fuzz/FuzzUpdateEndpoint are a valid batch that shortens a road,
// adds one, removes a PoI and moves another to a second tree, and a weight
// edit from a vertex outside the graph, which once panicked ApplyUpdates.
func FuzzUpdateEndpoint(f *testing.F) {
	f.Fuzz(func(t *testing.T, body []byte) {
		eng, _, _ := skysr.PaperExample()
		if _, err := eng.WarmCategoryIndex(); err != nil {
			t.Fatal(err)
		}
		mux := New(eng, Config{
			Logger:         logx.Discard(),
			BaseOpts:       skysr.SearchOptions{UseCategoryIndex: true},
			DisableTracing: true,
		}).Handler()
		before := eng.Epoch()
		rec := httptest.NewRecorder()
		mux.ServeHTTP(rec, httptest.NewRequest("POST", "/api/update", bytes.NewReader(body)))
		switch rec.Code {
		case http.StatusOK, http.StatusBadRequest, http.StatusRequestEntityTooLarge:
		default:
			t.Fatalf("update status %d: %s", rec.Code, rec.Body.String())
		}
		want := before
		if rec.Code == http.StatusOK {
			want++
		}
		if got := eng.Epoch(); got != want {
			t.Fatalf("status %d moved the epoch from %d to %d", rec.Code, before, got)
		}
		if rec.Code != http.StatusOK {
			return
		}

		rec = httptest.NewRecorder()
		mux.ServeHTTP(rec, httptest.NewRequest("GET", fuzzRoute, nil))
		if rec.Code != http.StatusOK {
			t.Fatalf("route status %d after the update: %s", rec.Code, rec.Body.String())
		}
		var got routeResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &got); err != nil {
			t.Fatal(err)
		}
		var text bytes.Buffer
		if err := eng.Write(&text); err != nil {
			t.Fatalf("Write of the updated engine: %v", err)
		}
		fresh, err := skysr.Read(&text)
		if err != nil {
			t.Fatalf("the updated engine's Write output does not read back: %v", err)
		}
		ans, err := fresh.SearchWith(skysr.Query{Start: 0, Via: []skysr.Requirement{
			skysr.Category("Asian Restaurant"), skysr.Category("Arts & Entertainment"), skysr.Category("Gift Shop"),
		}}, skysr.SearchOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if len(got.Routes) != len(ans.Routes) {
			t.Fatalf("route answers %d routes, a fresh engine %d", len(got.Routes), len(ans.Routes))
		}
		for i, r := range ans.Routes {
			if g := got.Routes[i]; g.Length != r.LengthScore || g.Semantic != r.SemanticScore {
				t.Fatalf("route %d: (%v, %v), a fresh engine (%v, %v)", i, g.Length, g.Semantic, r.LengthScore, r.SemanticScore)
			}
		}
	})
}
