package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
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

// FuzzBatchEndpoint feeds mutated JSON bodies to POST /api/batch on a
// paper-example server that serves on the category index, with tracing
// off. The endpoint must never panic and must answer 200, 400, 413 or
// 504. After a 200, each answer must list the same (length, semantic)
// points as SearchWith on the same engine with that query's k and
// departure time: a batch runs every query through the snapshot's
// SharedCache, a single query through none. The committed input under
// testdata/fuzz/FuzzBatchEndpoint mixes ordered, destination, unordered
// and k = 2 queries.
func FuzzBatchEndpoint(f *testing.F) {
	f.Fuzz(func(t *testing.T, body []byte) {
		eng, _, _ := skysr.PaperExample()
		base := skysr.SearchOptions{UseCategoryIndex: true}
		srv := New(eng, Config{Logger: logx.Discard(), BaseOpts: base, DisableTracing: true})
		rec := httptest.NewRecorder()
		srv.Handler().ServeHTTP(rec, httptest.NewRequest("POST", "/api/batch", bytes.NewReader(body)))
		switch rec.Code {
		case http.StatusOK:
		case http.StatusBadRequest, http.StatusRequestEntityTooLarge, http.StatusGatewayTimeout:
			return
		default:
			t.Fatalf("batch status %d: %s", rec.Code, rec.Body.String())
		}
		var req batchRequest
		if err := json.NewDecoder(bytes.NewReader(body)).Decode(&req); err != nil {
			t.Fatalf("batch answered 200 to a body that does not decode: %v", err)
		}
		var resp batchResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Fatal(err)
		}
		if len(resp.Answers) != len(req.Queries) {
			t.Fatalf("%d answers to %d queries", len(resp.Answers), len(req.Queries))
		}
		for i, bq := range req.Queries {
			q, err := srv.makeQuery(bq.Start, bq.Via, bq.Dest, bq.Unordered)
			if err != nil {
				t.Fatalf("query %d answered, but it does not build: %v", i, err)
			}
			opts := base
			opts.TopK, opts.DepartAt = bq.K, bq.Depart
			ans, err := eng.SearchWith(q, opts)
			if err != nil {
				t.Fatalf("query %d answered in the batch, but SearchWith fails: %v", i, err)
			}
			got := resp.Answers[i].Routes
			if len(got) != len(ans.Routes) {
				t.Fatalf("query %d: batch answers %d routes, SearchWith %d", i, len(got), len(ans.Routes))
			}
			for j, r := range ans.Routes {
				if g := got[j]; g.Length != r.LengthScore || g.Semantic != r.SemanticScore {
					t.Fatalf("query %d route %d: batch (%v, %v), SearchWith (%v, %v)", i, j, g.Length, g.Semantic, r.LengthScore, r.SemanticScore)
				}
			}
		}
	})
}

// FuzzRouteEndpoint feeds mutated query strings to GET /api/route on a
// paper-example server that serves on the category index, with tracing
// off. The bytes go in as the raw query, so malformed escapes and pairs
// reach the handler's decoder (httptest.NewRequest would panic on such a
// target). The endpoint must never panic and must answer 200, 400 or
// 504. After a 200, the answer must list the same (length, semantic)
// points as SearchWith on the same engine with the start, via, dest,
// unordered flag, k and departure time the request carried. The route
// endpoint never changes the engine, so one server answers every input,
// as a long-running one would. The seed below is the paper's Table 4
// query, ordered, with a destination, k = 2, a departure time and
// expand=1; the committed input under testdata/fuzz/FuzzRouteEndpoint is
// its unordered twin.
func FuzzRouteEndpoint(f *testing.F) {
	f.Add([]byte("start=0&via=Asian+Restaurant,Arts+%26+Entertainment,Gift+Shop&dest=3&k=2&depart=2.5&expand=1"))
	eng, _, _ := skysr.PaperExample()
	base := skysr.SearchOptions{UseCategoryIndex: true}
	srv := New(eng, Config{Logger: logx.Discard(), BaseOpts: base, DisableTracing: true})
	mux := srv.Handler()
	f.Fuzz(func(t *testing.T, rawQuery []byte) {
		req := httptest.NewRequest("GET", "/api/route", nil)
		req.URL.RawQuery = string(rawQuery)
		rec := httptest.NewRecorder()
		mux.ServeHTTP(rec, req)
		switch rec.Code {
		case http.StatusOK:
		case http.StatusBadRequest, http.StatusGatewayTimeout:
			return
		default:
			t.Fatalf("route status %d: %s", rec.Code, rec.Body.String())
		}
		qv := req.URL.Query()
		start, err := strconv.Atoi(qv.Get("start"))
		if err != nil {
			t.Fatalf("answered 200 to start %q", qv.Get("start"))
		}
		var dest *int
		if raw := qv.Get("dest"); raw != "" {
			d, err := strconv.Atoi(raw)
			if err != nil {
				t.Fatalf("answered 200 to dest %q", raw)
			}
			dest = &d
		}
		q, err := srv.makeQuery(start, strings.Split(qv.Get("via"), ","), dest, qv.Get("unordered") == "1")
		if err != nil {
			t.Fatalf("answered 200, but the query does not build: %v", err)
		}
		opts := base
		if opts.TopK, err = parseTopK(qv.Get("k")); err != nil {
			t.Fatalf("answered 200 to k %q", qv.Get("k"))
		}
		if opts.DepartAt, err = parseDepart(qv.Get("depart")); err != nil {
			t.Fatalf("answered 200 to depart %q", qv.Get("depart"))
		}
		ans, err := eng.SearchWith(q, opts)
		if err != nil {
			t.Fatalf("answered 200, but SearchWith fails: %v", err)
		}
		var got routeResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &got); err != nil {
			t.Fatal(err)
		}
		if len(got.Routes) != len(ans.Routes) {
			t.Fatalf("route answers %d routes, SearchWith %d", len(got.Routes), len(ans.Routes))
		}
		for i, r := range ans.Routes {
			if g := got.Routes[i]; g.Length != r.LengthScore || g.Semantic != r.SemanticScore {
				t.Fatalf("route %d: (%v, %v), SearchWith (%v, %v)", i, g.Length, g.Semantic, r.LengthScore, r.SemanticScore)
			}
		}
	})
}
