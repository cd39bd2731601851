package core

import (
	"math/rand"
	"testing"

	"skysr/internal/gen"
	"skysr/internal/graph"
	"skysr/internal/index"
	"skysr/internal/osr"
	"skysr/internal/route"
	"skysr/internal/taxonomy"
)

// TestIndexPreservesExactness: the §9 preprocessing index must never change
// results when it runs alongside a cross-query SharedCache — the profile
// Engine.SearchBatch serves — with every other optimization on or off. One
// cache serves all variants of a trial, so later variants read entries the
// earlier ones wrote.
func TestIndexPreservesExactness(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	f := taxonomy.Generated(3, 2, 3)
	var sharedHits int64
	for trial := 0; trial < 10; trial++ {
		d := randomDataset(rng, f, 20, 16)
		idx := index.New(d, 0)
		shared := NewSharedCache(0)
		cats := pickCats(rng, f, 2+rng.Intn(2))
		start := graph.VertexID(rng.Intn(20))
		seq := route.NewCategorySequence(f, f.WuPalmer, cats...)
		want := osr.BruteForce(d, osr.Query{Start: start, Seq: seq, Dest: graph.NoVertex}, 1)
		for name, opts := range optionVariants() {
			opts.Index = idx
			opts.Shared = shared
			s := NewSearcher(d, f.WuPalmer, opts)
			res, err := s.QueryCategories(start, cats...)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if !sameSkyline(res.Routes, want) {
				t.Fatalf("trial %d %s+index+shared: mismatch\ngot:  %v\nwant: %v",
					trial, name, res.Routes, want)
			}
			sharedHits += res.Stats.SharedCacheHits
		}
	}
	if sharedHits == 0 {
		t.Error("no variant was served from the shared cache")
	}
}

// TestCategoryIndexPreservesExactness: the category-index profile — index
// rows built per category, §5.3.3 bounds derived from lookups, tightened
// expansion radii — must return the exact brute-force skyline under every
// optimization variant.
func TestCategoryIndexPreservesExactness(t *testing.T) {
	rng := rand.New(rand.NewSource(75))
	f := taxonomy.Generated(3, 2, 3)
	for trial := 0; trial < 12; trial++ {
		d := randomDataset(rng, f, 24, 18)
		idx := index.New(d, 0)
		cats := pickCats(rng, f, 2+rng.Intn(3))
		start := graph.VertexID(rng.Intn(24))
		seq := route.NewCategorySequence(f, f.WuPalmer, cats...)
		want := osr.BruteForce(d, osr.Query{Start: start, Seq: seq, Dest: graph.NoVertex}, 1)
		for name, opts := range optionVariants() {
			opts.Index = idx
			s := NewSearcher(d, f.WuPalmer, opts)
			res, err := s.QueryCategories(start, cats...)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if !sameSkyline(res.Routes, want) {
				t.Fatalf("trial %d %s+catindex: mismatch\ngot:  %v\nwant: %v",
					trial, name, res.Routes, want)
			}
		}
	}
}

// TestCategoryIndexAnswersIdenticalToBaseline: beyond score equality, the
// indexed profile must return byte-identical answers — same PoI ids in the
// same order with bit-equal scores — as the no-index default.
func TestCategoryIndexAnswersIdenticalToBaseline(t *testing.T) {
	rng := rand.New(rand.NewSource(76))
	f := taxonomy.Generated(4, 2, 3)
	for trial := 0; trial < 15; trial++ {
		d := randomDataset(rng, f, 40, 25)
		idx := index.New(d, 0)
		cats := pickCats(rng, f, 2+rng.Intn(3))
		start := graph.VertexID(rng.Intn(40))

		base := NewSearcher(d, f.WuPalmer, DefaultOptions())
		want, err := base.QueryCategories(start, cats...)
		if err != nil {
			t.Fatal(err)
		}
		opts := DefaultOptions()
		opts.Index = idx
		s := NewSearcher(d, f.WuPalmer, opts)
		got, err := s.QueryCategories(start, cats...)
		if err != nil {
			t.Fatal(err)
		}
		if len(got.Routes) != len(want.Routes) {
			t.Fatalf("trial %d: %d routes vs %d", trial, len(got.Routes), len(want.Routes))
		}
		for i := range want.Routes {
			if got.Routes[i].Length() != want.Routes[i].Length() ||
				got.Routes[i].Semantic() != want.Routes[i].Semantic() {
				t.Fatalf("trial %d route %d: scores differ bit-for-bit", trial, i)
			}
			gp, wp := got.Routes[i].PoIs(), want.Routes[i].PoIs()
			for j := range wp {
				if gp[j] != wp[j] {
					t.Fatalf("trial %d route %d: PoIs %v vs %v", trial, i, gp, wp)
				}
			}
		}
	}
}

// TestCategoryIndexBudgetFallback: when the budget denies rows, queries
// must transparently fall back to the per-query path with exact answers.
func TestCategoryIndexBudgetFallback(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	f := taxonomy.Generated(3, 2, 3)
	for trial := 0; trial < 6; trial++ {
		d := randomDataset(rng, f, 24, 16)
		idx := index.New(d, int64(d.Graph.NumVertices())*4) // one row only
		cats := pickCats(rng, f, 3)
		start := graph.VertexID(rng.Intn(24))
		seq := route.NewCategorySequence(f, f.WuPalmer, cats...)
		want := osr.BruteForce(d, osr.Query{Start: start, Seq: seq, Dest: graph.NoVertex}, 1)
		opts := DefaultOptions()
		opts.Index = idx
		s := NewSearcher(d, f.WuPalmer, opts)
		res, err := s.QueryCategories(start, cats...)
		if err != nil {
			t.Fatal(err)
		}
		if !sameSkyline(res.Routes, want) {
			t.Fatalf("trial %d: budget fallback mismatch\ngot:  %v\nwant: %v", trial, res.Routes, want)
		}
	}
}

// TestIndexPrunes verifies the index actually removes work on a workload
// where it can (a spread-out dataset with distant category clusters).
func TestIndexPrunes(t *testing.T) {
	rng := rand.New(rand.NewSource(72))
	f := taxonomy.Generated(3, 2, 3)
	var prunedTotal int64
	for trial := 0; trial < 10; trial++ {
		d := randomDataset(rng, f, 60, 30)
		idx := index.New(d, 0)
		cats := pickCats(rng, f, 3)
		opts := DefaultOptions()
		opts.Index = idx
		s := NewSearcher(d, f.WuPalmer, opts)
		res, err := s.QueryCategories(0, cats...)
		if err != nil {
			t.Fatal(err)
		}
		prunedTotal += res.Stats.PrunedByIndex
	}
	// Not every instance prunes, but across ten random instances the
	// index should fire at least once.
	if prunedTotal == 0 {
		t.Log("index never pruned on this workload (acceptable but unusual)")
	}
}

// TestIndexNeverIncreasesWork: for ordered, unordered and rated queries,
// settled vertices with the index must be ≤ without (it only removes
// expansions).
func TestIndexNeverIncreasesWork(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	f := taxonomy.Generated(3, 2, 3)
	with, without := map[string]int64{}, map[string]int64{}
	for trial := 0; trial < 8; trial++ {
		d := randomDataset(rng, f, 50, 30)
		idx := index.New(d, 0)
		seq := route.NewCategorySequence(f, f.WuPalmer, pickCats(rng, f, 3)...)
		for _, ci := range []*index.CategoryDistances{nil, idx} {
			opts := DefaultOptions()
			opts.Index = ci
			s := NewSearcher(d, f.WuPalmer, opts)
			settled := without
			if ci != nil {
				settled = with
			}
			for shape, run := range map[string]func() (*Result, error){
				"ordered":   func() (*Result, error) { return s.Query(0, seq) },
				"unordered": func() (*Result, error) { return s.QueryUnordered(0, seq) },
			} {
				res, err := run()
				if err != nil {
					t.Fatal(err)
				}
				settled[shape] += res.Stats.SettledVertices
			}
			rated, err := s.QueryRated(0, seq)
			if err != nil {
				t.Fatal(err)
			}
			settled["rated"] += rated.Stats.SettledVertices
		}
	}
	for _, shape := range []string{"ordered", "unordered", "rated"} {
		if with[shape] > without[shape] {
			t.Errorf("%s: index increased settled vertices: %d > %d", shape, with[shape], without[shape])
		}
		t.Logf("%s: settled vertices %d without the index, %d with it", shape, without[shape], with[shape])
	}
}

// TestPathFilterAblationPreservesExactness runs every trial with and
// without the Lemma 5.5 path filter. Both must be exact, and the filter
// must earn its keep: it may never enqueue more routes than the
// unfiltered run, and it must enqueue strictly fewer on some trial, so a
// filter that silently stops filtering fails here.
func TestPathFilterAblationPreservesExactness(t *testing.T) {
	rng := rand.New(rand.NewSource(74))
	f := taxonomy.Generated(3, 2, 3)
	fewer := 0
	for trial := 0; trial < 16; trial++ {
		// A PoI hanging off a single edge never lies on a path to another
		// candidate, so the filter has nothing to do on the first trials.
		// The later ones put every PoI on a second edge and ask for the
		// leaves' parents, which no PoI matches perfectly: the runs then
		// never stop at a perfect match, and the filter acts through the
		// blockers the runs pass downstream alone.
		vertices, pois, k, through := 18, 14, 2, false
		if trial >= 8 {
			vertices, pois, k, through = 24, 20, 3, true
		}
		d := randomRoadDataset(rng, f, vertices, pois, through)
		cats := pickCats(rng, f, k)
		if through {
			for i := range cats {
				cats[i] = f.Parent(cats[i])
			}
		}
		seq := route.NewCategorySequence(f, f.WuPalmer, cats...)
		want := osr.BruteForce(d, osr.Query{Start: 0, Seq: seq, Dest: graph.NoVertex}, 1)
		enqueued := map[bool]int64{}
		for _, disable := range []bool{false, true} {
			opts := DefaultOptions()
			opts.DisablePathFilter = disable
			s := NewSearcher(d, f.WuPalmer, opts)
			res, err := s.QueryCategories(0, cats...)
			if err != nil {
				t.Fatal(err)
			}
			if !sameSkyline(res.Routes, want) {
				t.Fatalf("trial %d filter disabled %v: mismatch\ngot:  %v\nwant: %v", trial, disable, res.Routes, want)
			}
			enqueued[disable] = res.Stats.RoutesEnqueued
		}
		if enqueued[false] > enqueued[true] {
			t.Errorf("trial %d: the filter enqueued %d routes, more than the %d without it", trial, enqueued[false], enqueued[true])
		}
		if enqueued[false] < enqueued[true] {
			fewer++
		}
		t.Logf("trial %d: %d routes enqueued with the filter, %d without", trial, enqueued[false], enqueued[true])
	}
	if fewer == 0 {
		t.Error("the path filter enqueued no fewer routes than the unfiltered run on any trial")
	}
}

// TestTraceEventsPaperExample checks the Table 4 run's Stats for the
// bookkeeping of Algorithm 1: the queue drains (every enqueued route is
// popped), every modified-Dijkstra request is a run or a cache hit, and
// threshold prunes fire at pop.
func TestTraceEventsPaperExample(t *testing.T) {
	ds, vq, cats := gen.PaperExample()
	s := NewSearcher(ds, ds.Forest.WuPalmer, DefaultOptions())
	res, err := s.QueryCategories(vq, cats...)
	if err != nil {
		t.Fatal(err)
	}
	st := res.Stats
	if st.RoutesPopped == 0 || st.RoutesPopped != st.RoutesEnqueued {
		t.Errorf("popped %d, enqueued %d: the queue must drain", st.RoutesPopped, st.RoutesEnqueued)
	}
	if st.MDijkstraRequests != st.MDijkstraRuns+st.CacheHits {
		t.Errorf("requests %d != runs %d + cache hits %d", st.MDijkstraRequests, st.MDijkstraRuns, st.CacheHits)
	}
	// Table 4's trace has pruned fetches (steps 6, 9 and 12's route died
	// earlier or at fetch): at least one threshold prune must fire.
	if st.PrunedThreshold == 0 {
		t.Error("expected threshold prunes on the Table 4 trace")
	}
}

// recordingSet wraps a result set and logs every route offered to it,
// with whether the set accepted it.
type recordingSet struct {
	resultSet
	offered  [][]graph.VertexID
	accepted []bool
}

func (rs *recordingSet) Update(r *route.Route) bool {
	ok := rs.resultSet.Update(r)
	rs.offered = append(rs.offered, r.PoIs())
	rs.accepted = append(rs.accepted, ok)
	return ok
}

// TestTable4SkylineEvolution follows the skyline set through the Table 4
// trace: ⟨p10,p12,p13⟩ must evict ⟨p2,p5,p8⟩ (step 5), ⟨p1,p9,p8⟩ must
// evict ⟨p2,p5,p7⟩ (step 8), and ⟨p6,p9,p8⟩ must evict ⟨p1,p9,p8⟩
// (step 11).
func TestTable4SkylineEvolution(t *testing.T) {
	ds, vq, cats := gen.PaperExample()
	var rec *recordingSet
	orig := newResultSet
	defer func() { newResultSet = orig }()
	newResultSet = func(k int) resultSet {
		rec = &recordingSet{resultSet: orig(k)}
		return rec
	}
	s := NewSearcher(ds, ds.Forest.WuPalmer, DefaultOptions())
	res, err := s.QueryCategories(vq, cats...)
	if err != nil {
		t.Fatal(err)
	}
	// NNinit offers its Example 5.6 seeds ⟨p2,p5,p7⟩ and ⟨p2,p5,p8⟩ first;
	// Table 4 starts after them.
	var accepted [][]graph.VertexID
	for i := res.Stats.InitRoutes; i < len(rec.offered); i++ {
		if rec.accepted[i] {
			accepted = append(accepted, rec.offered[i])
		}
	}
	want := [][]graph.VertexID{
		{10, 12, 13}, // step 5
		{1, 9, 8},    // step 8
		{6, 9, 8},    // step 11
	}
	if len(accepted) != len(want) {
		t.Fatalf("accepted sequence %v, want %v", accepted, want)
	}
	for i := range want {
		for j := range want[i] {
			if accepted[i][j] != want[i][j] {
				t.Fatalf("accepted sequence %v, want %v", accepted, want)
			}
		}
	}
}
