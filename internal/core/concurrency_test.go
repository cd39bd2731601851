package core

import (
	"math/rand"
	"sync"
	"testing"

	"skysr/internal/graph"
	"skysr/internal/index"
	"skysr/internal/osr"
	"skysr/internal/route"
	"skysr/internal/taxonomy"
)

// TestConcurrentSearchersShareDataset: the documented concurrency model is
// one Searcher per goroutine over a shared immutable Dataset (and shared
// CategoryDistances index). Run under -race this verifies there is no hidden
// shared mutable state.
func TestConcurrentSearchersShareDataset(t *testing.T) {
	rng := rand.New(rand.NewSource(91))
	f := taxonomy.Generated(3, 2, 3)
	d := randomDataset(rng, f, 60, 40)
	idx := index.New(d, 0)

	type job struct {
		start graph.VertexID
		cats  []taxonomy.CategoryID
	}
	jobs := make([]job, 16)
	for i := range jobs {
		jobs[i] = job{
			start: graph.VertexID(rng.Intn(60)),
			cats:  pickCats(rng, f, 2+rng.Intn(2)),
		}
	}
	// Reference answers, sequentially.
	wantLens := make([][]float64, len(jobs))
	for i, j := range jobs {
		s := NewSearcher(d, f.WuPalmer, DefaultOptions())
		res, err := s.QueryCategories(j.start, j.cats...)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range res.Routes {
			wantLens[i] = append(wantLens[i], r.Length())
		}
	}

	var wg sync.WaitGroup
	errs := make(chan error, len(jobs))
	for i, j := range jobs {
		wg.Add(1)
		go func(i int, j job) {
			defer wg.Done()
			opts := DefaultOptions()
			opts.Index = idx
			s := NewSearcher(d, f.WuPalmer, opts)
			for rep := 0; rep < 3; rep++ {
				res, err := s.QueryCategories(j.start, j.cats...)
				if err != nil {
					errs <- err
					return
				}
				if len(res.Routes) != len(wantLens[i]) {
					t.Errorf("job %d: got %d routes, want %d", i, len(res.Routes), len(wantLens[i]))
					return
				}
				for k, r := range res.Routes {
					if r.Length() != wantLens[i][k] {
						t.Errorf("job %d route %d: length %v, want %v", i, k, r.Length(), wantLens[i][k])
						return
					}
				}
			}
		}(i, j)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// radiusSpy is a result set that, whenever the search asks it for a
// threshold, compares the searcher's on-the-fly cache with what it saw the
// last time: an entry replaced under the same key by one of a larger
// radius is a re-run at a larger radius.
type radiusSpy struct {
	resultSet
	s      *Searcher
	seen   map[cacheKey]*cacheEntry
	reRuns *int
}

func (rs *radiusSpy) Threshold(sem float64) float64 {
	for k, e := range rs.s.cache {
		if old, ok := rs.seen[k]; ok && old != e && e.radius > old.radius {
			*rs.reRuns++
		}
		rs.seen[k] = e
	}
	return rs.resultSet.Threshold(sem)
}

// TestCacheRadiusReRun checks the on-the-fly cache across radii: an
// entry serves later expansions of its key at smaller radii, and a larger
// radius re-runs the search. Ordered and unordered queries, plain and on
// the category index, on undirected and directed dyadic networks, must
// return the brute-force skyline, and the trials must both hit the cache
// and re-run a key at a larger radius, or they would not exercise reuse.
func TestCacheRadiusReRun(t *testing.T) {
	var cur *Searcher
	var shape string
	reRuns := map[string]*int{"ordered": new(int), "unordered": new(int)}
	orig := newResultSet
	defer func() { newResultSet = orig }()
	newResultSet = func(k int) resultSet {
		return &radiusSpy{resultSet: orig(k), s: cur, seen: map[cacheKey]*cacheEntry{}, reRuns: reRuns[shape]}
	}
	rng := rand.New(rand.NewSource(92))
	f := taxonomy.Generated(2, 2, 3)
	hits := map[string]int64{}
	const vertices, pois = 25, 18
	for trial := 0; trial < 40; trial++ {
		d := dyadicDataset(rng, f, vertices, pois, trial%2 == 1)
		seq := route.NewCategorySequence(f, f.WuPalmer, pickCats(rng, f, 3)...)
		start := graph.VertexID(rng.Intn(vertices))
		want := map[string][]route.Point3{
			"ordered":   osr.BruteForce(d, osr.Query{Start: start, Seq: seq, Dest: graph.NoVertex}, 1),
			"unordered": osr.BruteForce(d, osr.Query{Start: start, Seq: seq, Dest: graph.NoVertex, Unordered: true}, 1),
		}
		ci := index.New(d, 0)
		for _, idx := range []*index.CategoryDistances{nil, ci} {
			opts := DefaultOptions()
			opts.Index = idx
			cur = NewSearcher(d, f.WuPalmer, opts)
			for _, shape = range []string{"ordered", "unordered"} {
				var res *Result
				var err error
				if shape == "ordered" {
					res, err = cur.Query(start, seq)
				} else {
					res, err = cur.QueryUnordered(start, seq)
				}
				if err != nil {
					t.Fatal(err)
				}
				st := res.Stats
				if !sameSkyline(res.Routes, want[shape]) {
					t.Fatalf("trial %d (directed %v) index=%v %s: mismatch\ngot:  %v\nwant: %v",
						trial, d.Graph.Directed(), idx != nil, shape, res.Routes, want[shape])
				}
				if st.MDijkstraRuns+st.CacheHits != st.MDijkstraRequests {
					t.Fatalf("accounting broken: runs=%d hits=%d requests=%d",
						st.MDijkstraRuns, st.CacheHits, st.MDijkstraRequests)
				}
				hits[shape] += st.CacheHits
			}
		}
	}
	for _, shape := range []string{"ordered", "unordered"} {
		if hits[shape] == 0 || *reRuns[shape] == 0 {
			t.Errorf("%s: %d cache hits and %d re-runs at a larger radius; the trials must exercise both",
				shape, hits[shape], *reRuns[shape])
		}
		t.Logf("%s: %d cache hits, %d re-runs at a larger radius", shape, hits[shape], *reRuns[shape])
	}
}
