package core

import (
	"math/rand"
	"sync"
	"testing"
	"unsafe"

	"skysr/internal/graph"
	"skysr/internal/taxonomy"
)

// TestPooledSearchersWithSharedCache: searchers recycled through a
// SearcherPool and attached to one SharedCache must return exactly the
// skylines of fresh, unshared searchers — from many goroutines at once
// (run under -race).
func TestPooledSearchersWithSharedCache(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	f := taxonomy.Generated(3, 2, 3)
	d := randomDataset(rng, f, 60, 40)

	type job struct {
		start graph.VertexID
		cats  []taxonomy.CategoryID
	}
	jobs := make([]job, 24)
	templates := make([][]taxonomy.CategoryID, 4)
	for i := range templates {
		templates[i] = pickCats(rng, f, 2+rng.Intn(2))
	}
	for i := range jobs {
		// Recurring category templates over varied starts: the workload
		// shape that actually exercises cross-query sharing.
		jobs[i] = job{start: graph.VertexID(rng.Intn(60)), cats: templates[i%len(templates)]}
	}
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

	pool := NewSearcherPool(d)
	shared := NewSharedCache(0)
	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			opts := DefaultOptions()
			opts.Shared = shared
			for i, j := range jobs {
				s := pool.Get(f.WuPalmer, opts)
				res, err := s.QueryCategories(j.start, j.cats...)
				if err != nil {
					t.Error(err)
					pool.Put(s)
					return
				}
				if len(res.Routes) != len(wantLens[i]) {
					t.Errorf("job %d: got %d routes, want %d", i, len(res.Routes), len(wantLens[i]))
				} else {
					for k, r := range res.Routes {
						if r.Length() != wantLens[i][k] {
							t.Errorf("job %d route %d: length %v, want %v", i, k, r.Length(), wantLens[i][k])
						}
					}
				}
				pool.Put(s)
			}
		}()
	}
	wg.Wait()

	st := shared.Stats()
	if st.Hits == 0 {
		t.Error("recurring templates produced no shared-cache hits")
	}
	if st.Entries == 0 || st.Bytes == 0 {
		t.Errorf("empty shared cache after workload: %+v", st)
	}
}

// TestSharedCacheAccounting: with a shared cache attached, every
// modified-Dijkstra request is either a run, a per-query cache hit or a
// shared-cache hit — and repeating a query makes the shared hits nonzero.
func TestSharedCacheAccounting(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	f := taxonomy.Generated(2, 2, 3)
	d := randomDataset(rng, f, 40, 25)
	cats := pickCats(rng, f, 3)
	start := graph.VertexID(rng.Intn(40))

	opts := DefaultOptions()
	opts.Shared = NewSharedCache(0)
	s := NewSearcher(d, f.WuPalmer, opts)
	for rep := 0; rep < 2; rep++ {
		res, err := s.QueryCategories(start, cats...)
		if err != nil {
			t.Fatal(err)
		}
		st := res.Stats
		if st.MDijkstraRuns+st.CacheHits+st.SharedCacheHits != st.MDijkstraRequests {
			t.Fatalf("rep %d accounting broken: runs=%d hits=%d shared=%d requests=%d",
				rep, st.MDijkstraRuns, st.CacheHits, st.SharedCacheHits, st.MDijkstraRequests)
		}
		if rep == 1 && st.SharedCacheHits == 0 && st.MDijkstraRuns > 0 {
			t.Error("repeat of an identical query re-ran every modified Dijkstra despite the shared cache")
		}
	}
}

// TestSharedCacheByteCapFlush: a cap smaller than one workload's entries
// forces flushes without ever changing results.
func TestSharedCacheByteCapFlush(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	f := taxonomy.Generated(2, 2, 3)
	d := randomDataset(rng, f, 40, 25)
	shared := NewSharedCache(256) // absurdly small: a few entries at most
	for trial := 0; trial < 10; trial++ {
		cats := pickCats(rng, f, 3)
		start := graph.VertexID(rng.Intn(40))
		want, err := NewSearcher(d, f.WuPalmer, DefaultOptions()).QueryCategories(start, cats...)
		if err != nil {
			t.Fatal(err)
		}
		opts := DefaultOptions()
		opts.Shared = shared
		got, err := NewSearcher(d, f.WuPalmer, opts).QueryCategories(start, cats...)
		if err != nil {
			t.Fatal(err)
		}
		if len(got.Routes) != len(want.Routes) {
			t.Fatalf("trial %d: %d routes, want %d", trial, len(got.Routes), len(want.Routes))
		}
		for k := range got.Routes {
			if got.Routes[k].Length() != want.Routes[k].Length() ||
				got.Routes[k].Semantic() != want.Routes[k].Semantic() {
				t.Fatalf("trial %d route %d differs under byte-capped sharing", trial, k)
			}
		}
	}
	if shared.Stats().Flushes == 0 {
		t.Error("256-byte cap never flushed across 10 workloads")
	}
	if shared.Stats().Bytes > 256+48+40*64 {
		t.Errorf("cache bytes %d far exceed the cap", shared.Stats().Bytes)
	}
}

// TestCandidateStaysPacked pins the candidate layout at 40 bytes. Every
// cached modified-Dijkstra result is a slice of them, and the SharedCache
// under SearchBatch holds hundreds of thousands: widening pos to an int
// makes each one 48 bytes, a fifth more resident memory per entry.
func TestCandidateStaysPacked(t *testing.T) {
	if got := unsafe.Sizeof(candidate{}); got != 40 {
		t.Fatalf("candidate is %d bytes, want 40", got)
	}
}
