package core

import (
	"context"
	"strconv"
	"strings"
	"testing"

	"skysr/internal/faults"
	"skysr/internal/gen"
	"skysr/internal/route"
	"skysr/internal/trace"
)

// attrMap flattens a span's attributes for assertions.
func attrMap(sp *trace.Span) map[string]string {
	out := map[string]string{}
	for _, a := range sp.Attrs() {
		out[a.Key] = a.Val
	}
	return out
}

func findChild(sp *trace.Span, name string) *trace.Span {
	for _, c := range sp.Children() {
		if c.Name() == name {
			return c
		}
	}
	return nil
}

func TestQuerySpanTreeMirrorsStats(t *testing.T) {
	ds, vq, cats := gen.PaperExample()
	opts := DefaultOptions()
	tr := trace.New("route")
	opts.Context = trace.NewContext(context.Background(), tr)
	s := NewSearcher(ds, ds.Forest.WuPalmer, opts)
	res, err := s.QueryCategories(vq, cats...)
	if err != nil {
		t.Fatal(err)
	}
	tr.Finish()

	kids := tr.Root().Children()
	if len(kids) != 1 || kids[0].Name() != "search" {
		t.Fatalf("root children = %v, want one search span", kids)
	}
	search := kids[0]
	attrs := attrMap(search)
	checks := map[string]string{
		"results":          strconv.Itoa(res.Stats.Results),
		"popped":           strconv.FormatInt(res.Stats.RoutesPopped, 10),
		"enqueued":         strconv.FormatInt(res.Stats.RoutesEnqueued, 10),
		"settled":          strconv.FormatInt(res.Stats.SettledVertices, 10),
		"md_runs":          strconv.FormatInt(res.Stats.MDijkstraRuns, 10),
		"md_requests":      strconv.FormatInt(res.Stats.MDijkstraRequests, 10),
		"cache_hits":       strconv.FormatInt(res.Stats.CacheHits, 10),
		"pruned_threshold": strconv.FormatInt(res.Stats.PrunedThreshold, 10),
		"pruned_bounds":    strconv.FormatInt(res.Stats.PrunedByBounds, 10),
		"pruned_index":     strconv.FormatInt(res.Stats.PrunedByIndex, 10),
	}
	for k, want := range checks {
		if attrs[k] != want {
			t.Errorf("search attr %s = %q, want %q", k, attrs[k], want)
		}
	}
	if _, ok := attrs["interrupted"]; ok {
		t.Error("completed query marked interrupted")
	}

	nninit := findChild(search, "nninit")
	if nninit == nil {
		t.Fatal("no nninit span")
	}
	na := attrMap(nninit)
	if na["routes"] != strconv.Itoa(res.Stats.InitRoutes) {
		t.Errorf("nninit routes = %q, want %d", na["routes"], res.Stats.InitRoutes)
	}
	if findChild(search, "bounds") == nil {
		t.Fatal("no bounds span")
	}

	// One leg span per position, with counters summing to the totals.
	var legRuns, legSettled, legPopped int64
	for i := range cats {
		leg := findChild(search, "leg["+strconv.Itoa(i)+"]")
		if leg == nil {
			t.Fatalf("no leg[%d] span", i)
		}
		la := attrMap(leg)
		for _, key := range []string{"runs", "settled", "popped", "enqueued", "cache_hits"} {
			if _, ok := la[key]; !ok {
				t.Fatalf("leg[%d] missing attr %s: %v", i, la, key)
			}
		}
		r, _ := strconv.ParseInt(la["runs"], 10, 64)
		sv, _ := strconv.ParseInt(la["settled"], 10, 64)
		p, _ := strconv.ParseInt(la["popped"], 10, 64)
		legRuns += r
		legSettled += sv
		legPopped += p
	}
	if legRuns != res.Stats.MDijkstraRuns {
		t.Errorf("Σ leg runs = %d, want MDijkstraRuns %d", legRuns, res.Stats.MDijkstraRuns)
	}
	if legPopped != res.Stats.RoutesPopped {
		t.Errorf("Σ leg popped = %d, want RoutesPopped %d", legPopped, res.Stats.RoutesPopped)
	}
	// Leg settles exclude the shared-workspace searches (NNinit, bounds),
	// so they can only bound the total from below.
	if legSettled > res.Stats.SettledVertices {
		t.Errorf("Σ leg settled = %d > total %d", legSettled, res.Stats.SettledVertices)
	}
}

func TestQueryWithoutSpanIsUntraced(t *testing.T) {
	ds, vq, cats := gen.PaperExample()
	s := NewSearcher(ds, ds.Forest.WuPalmer, DefaultOptions())
	if _, err := s.QueryCategories(vq, cats...); err != nil {
		t.Fatal(err)
	}
	if s.span != nil || s.legs != nil {
		t.Fatal("untraced query left span state armed")
	}
}

func TestCancelledQueryRecordsInterruptedSpan(t *testing.T) {
	ds, vq, cats := gen.PaperExample()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	opts := DefaultOptions()
	tr := trace.New("route")
	opts.Context = trace.NewContext(ctx, tr)
	s := NewSearcher(ds, ds.Forest.WuPalmer, opts)
	if _, err := s.QueryCategories(vq, cats...); err == nil {
		t.Fatal("pre-cancelled query should fail")
	}
	tr.Finish()
	// A pre-cancelled context trips initCancel before the span arms; no
	// partial tree is recorded. Cancel mid-run instead via the fault
	// seam, which fires inside the first modified-Dijkstra run.
	ctx2, cancel2 := context.WithCancel(context.Background())
	defer cancel2()
	restore := faults.Set(faults.MDijkstraRun, func(int64) { cancel2() })
	defer restore()
	tr2 := trace.New("route")
	opts.Context = trace.NewContext(ctx2, tr2)
	s2 := NewSearcher(ds, ds.Forest.WuPalmer, opts)
	_, err := s2.QueryCategories(vq, cats...)
	tr2.Finish()
	if err == nil {
		t.Fatal("mid-run cancellation did not surface")
	}
	kids := tr2.Root().Children()
	if len(kids) != 1 {
		t.Fatalf("children = %d, want 1", len(kids))
	}
	if _, ok := attrMap(kids[0])["interrupted"]; !ok {
		t.Fatal("interrupted query span lacks the interrupted attr")
	}
}

// TestUnorderedQuerySpanIsCoarse: the unordered and rated loops record one
// search span annotated with the run's totals, without per-leg children
// (their modified Dijkstras do not map onto one sequence position each).
func TestUnorderedQuerySpanIsCoarse(t *testing.T) {
	ds, vq, cats := gen.PaperExample()
	seq := route.NewCategorySequence(ds.Forest, ds.Forest.WuPalmer, cats...)
	for _, tc := range []struct {
		name  string
		query func(s *Searcher) (Stats, error)
	}{
		{"unordered", func(s *Searcher) (Stats, error) {
			res, err := s.QueryUnordered(vq, seq)
			if err != nil {
				return Stats{}, err
			}
			return res.Stats, nil
		}},
		{"rated", func(s *Searcher) (Stats, error) {
			res, err := s.QueryRated(vq, seq)
			if err != nil {
				return Stats{}, err
			}
			return res.Stats, nil
		}},
	} {
		opts := DefaultOptions()
		tr := trace.New("route")
		opts.Context = trace.NewContext(context.Background(), tr)
		st, err := tc.query(NewSearcher(ds, ds.Forest.WuPalmer, opts))
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		tr.Finish()
		kids := tr.Root().Children()
		if len(kids) != 1 || kids[0].Name() != "search" {
			t.Fatalf("%s: root children = %v", tc.name, kids)
		}
		attrs := attrMap(kids[0])
		if attrs["results"] != strconv.Itoa(st.Results) {
			t.Errorf("%s: results attr = %q, want %d", tc.name, attrs["results"], st.Results)
		}
		if attrs["popped"] != strconv.FormatInt(st.RoutesPopped, 10) {
			t.Errorf("%s: popped attr = %q, want %d", tc.name, attrs["popped"], st.RoutesPopped)
		}
		for _, c := range kids[0].Children() {
			if strings.HasPrefix(c.Name(), "leg") {
				t.Fatalf("%s: produced a per-leg span %s", tc.name, c.Name())
			}
		}
	}
}

func TestTracedQueryAnswersIdentical(t *testing.T) {
	ds, vq, cats := gen.PaperExample()
	plain := NewSearcher(ds, ds.Forest.WuPalmer, DefaultOptions())
	want, err := plain.QueryCategories(vq, cats...)
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultOptions()
	tr := trace.New("route")
	opts.Context = trace.NewContext(context.Background(), tr)
	traced := NewSearcher(ds, ds.Forest.WuPalmer, opts)
	got, err := traced.QueryCategories(vq, cats...)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Routes) != len(want.Routes) {
		t.Fatalf("traced skyline size %d != %d", len(got.Routes), len(want.Routes))
	}
	for i := range got.Routes {
		if got.Routes[i].Length() != want.Routes[i].Length() ||
			got.Routes[i].Semantic() != want.Routes[i].Semantic() {
			t.Fatalf("route %d differs traced vs untraced", i)
		}
	}
	if got.Stats.RoutesPopped != want.Stats.RoutesPopped ||
		got.Stats.MDijkstraRuns != want.Stats.MDijkstraRuns {
		t.Fatalf("traced work differs: %+v vs %+v", got.Stats, want.Stats)
	}
}
