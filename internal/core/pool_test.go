package core

import (
	"math/rand"
	"sync"
	"testing"
	"unsafe"

	"skysr/internal/graph"
	"skysr/internal/index"
	"skysr/internal/osr"
	"skysr/internal/route"
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

// TestSharedCacheByteCapRows: cost-to-go rows count against the byte cap.
// A cap of one and a half rows holds one row but not two: a query that
// builds both of its rows flushes the cache when it stores the second, and
// only that row stays. A cap below one row builds none and records no
// missed key. Answers stay exact either way.
// The path filter is off, so runs publish no entries and only rows and
// missed keys fill the cap.
func TestSharedCacheByteCapRows(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	f := taxonomy.Generated(2, 2, 3)
	d := randomDataset(rng, f, 40, 25)
	row := rowBytes(d.Graph.NumVertices())
	for _, c := range []struct {
		cap  int64
		rows bool
	}{{row + row/2, true}, {row - 1, false}} {
		shared := NewSharedCache(c.cap)
		opts := DefaultOptions()
		opts.Index = index.New(d, 0)
		opts.Shared = shared
		opts.DisablePathFilter = true
		var built int
		for trial := 0; trial < 10; trial++ {
			cats := pickCats(rng, f, 3)
			start := graph.VertexID(rng.Intn(40))
			want, err := NewSearcher(d, f.WuPalmer, DefaultOptions()).QueryCategories(start, cats...)
			if err != nil {
				t.Fatal(err)
			}
			// The first run misses the rows, the second builds them.
			for rep := 0; rep < 2; rep++ {
				if rep == 1 {
					payAllRows(shared)
				}
				flushes := shared.Stats().Flushes
				got, err := NewSearcher(d, f.WuPalmer, opts).QueryCategories(start, cats...)
				if err != nil {
					t.Fatal(err)
				}
				if !routesMatch(got.Routes, want.Routes) {
					t.Fatalf("cap %d trial %d run %d: answer differs under byte-capped rows\ngot:  %v\nwant: %v", c.cap, trial, rep, got.Routes, want.Routes)
				}
				st := shared.Stats()
				switch sweeps := got.Stats.DestLegRuns; {
				case !c.rows && (sweeps != 0 || st.Rows != 0 || st.Bytes != 0):
					t.Fatalf("cap %d trial %d: %d sweeps, %d rows, %d bytes; a cap below one row wants none", c.cap, trial, sweeps, st.Rows, st.Bytes)
				case sweeps == 2:
					built++
					if st.Rows != 1 || st.Flushes == flushes || st.Bytes > c.cap {
						t.Fatalf("cap %d trial %d: after building two rows the cache holds %d rows in %d bytes with %d new flushes, want 1 row, a flush, at most %d bytes",
							c.cap, trial, st.Rows, st.Bytes, st.Flushes-flushes, c.cap)
					}
				}
			}
		}
		if c.rows && built == 0 {
			t.Errorf("cap %d: no query built both of its rows", c.cap)
		}
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

// TestSharedRunKeysNameTheirSuffix: a run cut by an ordered query's
// cost-to-go row leaves out the candidates that cannot finish that
// query's later positions in time, so its SharedCache entry may serve
// only queries with the same tree roots after its position. Each trial
// runs, from one start on one cache, a query of three positions twice (the
// second run with its rows), then its first two positions alone and with a
// last position from another tree. Both must return the brute-force
// skyline, which they miss when the second run's entries for position 1
// serve them.
func TestSharedRunKeysNameTheirSuffix(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	f := taxonomy.Generated(3, 2, 3)
	leaves := f.Leaves()
	for trial := 0; trial < 60; trial++ {
		d := dyadicDataset(rng, f, 20, 16, trial%2 == 1)
		cats := pickCats(rng, f, 3)
		other := cats[2]
		for f.Root(other) == f.Root(cats[2]) {
			other = leaves[rng.Intn(len(leaves))]
		}
		start := graph.VertexID(rng.Intn(20))
		opts := DefaultOptions()
		opts.Index = index.New(d, 0)
		opts.Shared = NewSharedCache(0)
		s := NewSearcher(d, f.WuPalmer, opts)
		// The first query misses its rows and pays for them; its repeat
		// builds them and publishes the runs they cut.
		for i, cs := range [][]taxonomy.CategoryID{cats, cats, cats[:2], {cats[0], cats[1], other}} {
			if i == 1 {
				payAllRows(opts.Shared)
			}
			seq := route.NewCategorySequence(f, f.WuPalmer, cs...)
			res, err := s.Query(start, seq)
			if err != nil {
				t.Fatal(err)
			}
			if want := osr.BruteForce(d, osr.Query{Start: start, Seq: seq, Dest: graph.NoVertex}, 1); !sameSkyline(res.Routes, want) {
				t.Fatalf("trial %d from %d via %v after %v: mismatch\ngot:  %v\nwant: %v", trial, start, cs, cats, res.Routes, want)
			}
		}
	}
}

// TestSharedEntriesAreExactLength: every entry a SharedCache holds keeps
// its candidates at their exact length, so the byte cap and Bytes count
// what the cache holds rather than what the runs' appends reserved.
func TestSharedEntriesAreExactLength(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	f := taxonomy.Generated(3, 2, 3)
	d := randomDataset(rng, f, 60, 40)
	opts := DefaultOptions()
	opts.Index = index.New(d, 0)
	opts.Shared = NewSharedCache(0)
	s := NewSearcher(d, f.WuPalmer, opts)
	for range 20 {
		if _, err := s.QueryCategories(graph.VertexID(rng.Intn(60)), pickCats(rng, f, 2+rng.Intn(2))...); err != nil {
			t.Fatal(err)
		}
	}
	c := opts.Shared
	c.mu.RLock()
	defer c.mu.RUnlock()
	if len(c.entries) == 0 {
		t.Fatal("the workload published no entry")
	}
	var bytes int64
	for key, e := range c.entries {
		if cap(e.items) != len(e.items) {
			t.Errorf("entry %+v holds %d candidates in a capacity of %d", key, len(e.items), cap(e.items))
		}
		bytes += entryBytes(e)
	}
	for _, row := range c.rows {
		bytes += rowBytes(len(row))
	}
	for key := range c.missed {
		bytes += missBytes(key)
	}
	if bytes != c.bytes {
		t.Errorf("the cache counts %d bytes, its entries, rows and missed keys %d", c.bytes, bytes)
	}
}
