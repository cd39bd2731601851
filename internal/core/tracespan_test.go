package core

import (
	"context"
	"strconv"
	"testing"

	"skysr/internal/faults"
	"skysr/internal/gen"
	"skysr/internal/index"
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

// TestQuerySpanTreeMirrorsStats: every query shape records a search span
// annotated with its Stats and one leg span per hop whose counters sum to
// the totals. On the category index, legs of an ordered or rated query
// name their position's category; a hop of an unordered query serves no
// one position, so its leg names none.
func TestQuerySpanTreeMirrorsStats(t *testing.T) {
	ds, vq, cats := gen.PaperExample()
	seq := route.NewCategorySequence(ds.Forest, ds.Forest.WuPalmer, cats...)
	shapes := []struct {
		name  string
		query func(s *Searcher) (Stats, error)
	}{
		{"ordered", func(s *Searcher) (Stats, error) {
			res, err := s.Query(vq, seq)
			if err != nil {
				return Stats{}, err
			}
			return res.Stats, nil
		}},
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
	}
	for _, sh := range shapes {
		for _, variant := range []string{"bssr", "noopt", "index"} {
			opts := DefaultOptions()
			switch variant {
			case "noopt":
				opts = WithoutOptimizations()
			case "index":
				opts.Index = index.New(ds, 0)
			}
			name := sh.name + " " + variant
			tr := trace.New("route")
			opts.Context = trace.NewContext(context.Background(), tr)
			st, err := sh.query(NewSearcher(ds, ds.Forest.WuPalmer, opts))
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			tr.Finish()
			checkSpanTree(t, name, tr, st, len(cats), opts, sh.name != "unordered")
		}
	}
}

// checkSpanTree checks one traced query's span tree against its Stats.
func checkSpanTree(t *testing.T, name string, tr *trace.Trace, st Stats, k int, opts Options, positional bool) {
	t.Helper()
	kids := tr.Root().Children()
	if len(kids) != 1 || kids[0].Name() != "search" {
		t.Fatalf("%s: root children = %v, want one search span", name, kids)
	}
	search := kids[0]
	attrs := attrMap(search)
	checks := map[string]string{
		"results":          strconv.Itoa(st.Results),
		"popped":           strconv.FormatInt(st.RoutesPopped, 10),
		"enqueued":         strconv.FormatInt(st.RoutesEnqueued, 10),
		"settled":          strconv.FormatInt(st.SettledVertices, 10),
		"md_runs":          strconv.FormatInt(st.MDijkstraRuns, 10),
		"md_requests":      strconv.FormatInt(st.MDijkstraRequests, 10),
		"cache_hits":       strconv.FormatInt(st.CacheHits, 10),
		"pruned_threshold": strconv.FormatInt(st.PrunedThreshold, 10),
		"pruned_bounds":    strconv.FormatInt(st.PrunedByBounds, 10),
		"pruned_index":     strconv.FormatInt(st.PrunedByIndex, 10),
	}
	for key, want := range checks {
		if attrs[key] != want {
			t.Errorf("%s: search attr %s = %q, want %q", name, key, attrs[key], want)
		}
	}
	if _, ok := attrs["interrupted"]; ok {
		t.Errorf("%s: completed query marked interrupted", name)
	}

	if opts.InitialSearch {
		nninit := findChild(search, "nninit")
		if nninit == nil {
			t.Fatalf("%s: no nninit span", name)
		}
		if got := attrMap(nninit)["routes"]; got != strconv.Itoa(st.InitRoutes) {
			t.Errorf("%s: nninit routes = %q, want %d", name, got, st.InitRoutes)
		}
	}
	if wantBounds := opts.LowerBounds && positional; (findChild(search, "bounds") != nil) != wantBounds {
		t.Errorf("%s: bounds span present = %v, want %v", name, !wantBounds, wantBounds)
	}

	// One leg span per hop, with counters summing to the totals.
	var legRuns, legSettled, legPopped, legEnqueued, legHits int64
	for i := 0; i < k; i++ {
		leg := findChild(search, "leg["+strconv.Itoa(i)+"]")
		if leg == nil {
			t.Fatalf("%s: no leg[%d] span", name, i)
		}
		la := attrMap(leg)
		for _, key := range []string{"runs", "settled", "popped", "enqueued", "cache_hits"} {
			if _, ok := la[key]; !ok {
				t.Fatalf("%s: leg[%d] missing attr %s: %v", name, i, key, la)
			}
		}
		if _, ok := la["category"]; ok != (positional && opts.Index != nil) {
			t.Errorf("%s: leg[%d] category attr present = %v, want %v", name, i, ok, !ok)
		}
		count := func(key string) int64 {
			n, _ := strconv.ParseInt(la[key], 10, 64)
			return n
		}
		legRuns += count("runs")
		legSettled += count("settled")
		legPopped += count("popped")
		legEnqueued += count("enqueued")
		legHits += count("cache_hits")
	}
	if legRuns != st.MDijkstraRuns {
		t.Errorf("%s: Σ leg runs = %d, want MDijkstraRuns %d", name, legRuns, st.MDijkstraRuns)
	}
	if legPopped != st.RoutesPopped {
		t.Errorf("%s: Σ leg popped = %d, want RoutesPopped %d", name, legPopped, st.RoutesPopped)
	}
	if legEnqueued != st.RoutesEnqueued {
		t.Errorf("%s: Σ leg enqueued = %d, want RoutesEnqueued %d", name, legEnqueued, st.RoutesEnqueued)
	}
	if legHits != st.CacheHits {
		t.Errorf("%s: Σ leg cache hits = %d, want CacheHits %d", name, legHits, st.CacheHits)
	}
	// Leg settles exclude the searches outside the modified Dijkstra
	// (NNinit, bounds), so with either on they only bound the total from
	// below; without both they are the total.
	if opts.InitialSearch || opts.LowerBounds {
		if legSettled > st.SettledVertices {
			t.Errorf("%s: Σ leg settled = %d > total %d", name, legSettled, st.SettledVertices)
		}
	} else if legSettled != st.SettledVertices {
		t.Errorf("%s: Σ leg settled = %d, want SettledVertices %d", name, legSettled, st.SettledVertices)
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
