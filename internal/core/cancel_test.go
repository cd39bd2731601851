package core

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"sync/atomic"
	"testing"
	"time"

	"skysr/internal/faults"
	"skysr/internal/graph"
	"skysr/internal/index"
	"skysr/internal/route"
	"skysr/internal/taxonomy"
)

// routesMatch compares two result skylines by score vector.
func routesMatch(a, b []*route.Route) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Abs(a[i].Length()-b[i].Length()) > 1e-9 ||
			math.Abs(a[i].Semantic()-b[i].Semantic()) > 1e-9 {
			return false
		}
	}
	return true
}

// TestPreExpiredDeadlineCore: a deadline already in the past must return
// ErrDeadlineExceeded from initCancel before any traversal happens.
func TestPreExpiredDeadlineCore(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	f := taxonomy.Generated(3, 2, 3)
	d := randomDataset(rng, f, 20, 16)
	cats := pickCats(rng, f, 3)

	expired, cancelExpired := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancelExpired()
	opts := DefaultOptions()
	opts.Context = expired
	s := NewSearcher(d, f.WuPalmer, opts)
	res, err := s.QueryCategories(0, cats...)
	if !errors.Is(err, ErrDeadlineExceeded) {
		t.Fatalf("err = %v, want ErrDeadlineExceeded", err)
	}
	if res != nil {
		t.Fatalf("res = %+v, want nil before any traversal", res)
	}

	// A cancelled context reports the cancellation sentinel and wraps the
	// context's own error.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	opts = DefaultOptions()
	opts.Context = ctx
	s = NewSearcher(d, f.WuPalmer, opts)
	if _, err := s.QueryCategories(0, cats...); !errors.Is(err, ErrCancelled) || !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want ErrCancelled wrapping context.Canceled", err)
	}
}

// TestCancelledRunStoresNothing: a search cancelled inside a
// modified-Dijkstra run or inside the sweep of a cost-to-go row must not
// publish the truncated result — neither into the cross-query SharedCache
// nor into its own per-query cache — and the same searcher must answer the
// identical query correctly afterwards.
func TestCancelledRunStoresNothing(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	f := taxonomy.Generated(3, 2, 3)
	for _, c := range []struct {
		name           string
		at             faults.Point
		n              int64
		vertices, pois int
		index          bool
	}{
		// The first run after the start run: start runs are never shared,
		// so a cancellation in one would leave the cache empty whatever
		// the guard does.
		{"run", faults.MDijkstraRun, 2, 24, 18, false},
		// The first row's sweep, once a first query has missed the rows and
		// they are paid for. It settles more vertices than one cancellation
		// stride, so the cancellation halts it midway.
		{"row sweep", faults.DestLeg, 1, 3000, 300, true},
	} {
		d := randomDataset(rng, f, c.vertices, c.pois)
		cats := pickCats(rng, f, 3)
		shared := NewSharedCache(0)
		opts := DefaultOptions()
		opts.Shared = shared
		if c.index {
			opts.Index = index.New(d, 0)
			if _, err := NewSearcher(d, f.WuPalmer, opts).QueryCategories(0, cats...); err != nil {
				t.Fatal(err)
			}
			payAllRows(shared)
		}
		before := shared.Stats()

		ctx, cancel := context.WithCancel(context.Background())
		restore := faults.Set(c.at, func(n int64) {
			if n == c.n {
				cancel()
			}
		})
		copts := opts
		copts.Context = ctx
		s := NewSearcher(d, f.WuPalmer, copts)
		res, err := s.QueryCategories(0, cats...)
		restore()
		if !errors.Is(err, ErrCancelled) {
			t.Fatalf("%s: err = %v, want ErrCancelled", c.name, err)
		}
		if res == nil || res.Routes != nil {
			t.Fatalf("%s: cancelled result = %+v, want partial stats with no routes", c.name, res)
		}
		if st := shared.Stats(); st.Entries != before.Entries || st.Rows != 0 {
			t.Fatalf("%s: SharedCache holds %d entries and %d rows after a cancelled query, want %d and none (truncated results must not be published)", c.name, st.Entries, st.Rows, before.Entries)
		}

		// The same searcher, reconfigured without the dead context, must
		// match a fresh searcher exactly — no poisoned workspace state
		// survives.
		s.Reconfigure(f.WuPalmer, opts)
		got, err := s.QueryCategories(0, cats...)
		if err != nil {
			t.Fatal(err)
		}
		fresh, err := NewSearcher(d, f.WuPalmer, DefaultOptions()).QueryCategories(0, cats...)
		if err != nil {
			t.Fatal(err)
		}
		if !routesMatch(got.Routes, fresh.Routes) {
			t.Fatalf("%s: post-cancel answer diverged\ngot:  %v\nwant: %v", c.name, got.Routes, fresh.Routes)
		}
		st := shared.Stats()
		if st.Entries <= before.Entries {
			t.Fatalf("%s: completed query stored no entry in the SharedCache — the cancelled-run guard is too broad", c.name)
		}
		if c.index && st.Rows != len(cats)-1 {
			t.Fatalf("%s: completed query left %d rows in the SharedCache, want %d", c.name, st.Rows, len(cats)-1)
		}
	}
}

// TestTickUnwindsPromptly: once the canceller trips, every later tick must
// report it immediately (the error check precedes the stride counter), so
// a cancelled search cannot run another full stride per loop.
func TestTickUnwindsPromptly(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	s := &Searcher{opts: Options{Context: ctx}}
	if err := s.initCancel(); err != nil {
		t.Fatal(err)
	}
	cancel()
	s.cc.budget = 1 // force the very next tick to consult the context
	if !s.cc.tick() {
		t.Fatal("tick did not observe the cancel at the stride boundary")
	}
	s.cc.budget = cancelStride // a fresh stride must NOT hide the tripped state
	if !s.cc.tick() {
		t.Fatal("tick forgot a tripped canceller mid-stride")
	}
	if !errors.Is(s.cc.err, ErrCancelled) {
		t.Fatalf("cc.err = %v, want ErrCancelled", s.cc.err)
	}
}

// TestPoolClearsCancellation: a pooled searcher must come back without the
// previous query's context or canceller state.
func TestPoolClearsCancellation(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	f := taxonomy.Generated(3, 2, 3)
	d := randomDataset(rng, f, 20, 14)
	cats := pickCats(rng, f, 2)

	pool := NewSearcherPool(d)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	opts := DefaultOptions()
	opts.Context = ctx
	s := pool.Get(f.WuPalmer, opts)
	if _, err := s.QueryCategories(0, cats...); !errors.Is(err, ErrCancelled) {
		t.Fatalf("err = %v, want ErrCancelled", err)
	}
	pool.Put(s)

	s2 := pool.Get(f.WuPalmer, DefaultOptions())
	if s2.opts.Context != nil {
		t.Fatal("pooled searcher kept the cancelled context")
	}
	if s2.cc.on || s2.cc.err != nil {
		t.Fatalf("pooled searcher kept canceller state: %+v", s2.cc)
	}
	res, err := s2.QueryCategories(0, cats...)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := NewSearcher(d, f.WuPalmer, DefaultOptions()).QueryCategories(0, cats...)
	if err != nil {
		t.Fatal(err)
	}
	if !routesMatch(res.Routes, fresh.Routes) {
		t.Fatalf("pooled searcher diverged after a cancelled predecessor\ngot:  %v\nwant: %v", res.Routes, fresh.Routes)
	}
	pool.Put(s2)
}

// expiringContext is a context whose deadline passes when expire is
// called, so a test decides the exact point inside a search where it
// does, whatever the machine's load.
type expiringContext struct {
	context.Context
	expired atomic.Bool
}

func (c *expiringContext) expire() { c.expired.Store(true) }

func (c *expiringContext) Err() error {
	if c.expired.Load() {
		return context.DeadlineExceeded
	}
	return nil
}

// TestDeadlineTripsMidSearch: a deadline passing during the search (in
// the first modified-Dijkstra run, after the upfront check) unwinds with
// partial stats.
func TestDeadlineTripsMidSearch(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	f := taxonomy.Generated(3, 2, 3)
	d := randomDataset(rng, f, 24, 18)
	cats := pickCats(rng, f, 3)

	ctx := &expiringContext{Context: context.Background()}
	restore := faults.Set(faults.MDijkstraRun, func(int64) { ctx.expire() })
	defer restore()
	opts := DefaultOptions()
	opts.Context = ctx
	s := NewSearcher(d, f.WuPalmer, opts)
	res, err := s.QueryCategories(graph.VertexID(0), cats...)
	if !errors.Is(err, ErrDeadlineExceeded) {
		t.Fatalf("err = %v, want ErrDeadlineExceeded", err)
	}
	if res == nil {
		t.Fatal("interrupted search returned no partial stats")
	}
}

// TestContextError checks the one classification both the search core and
// the public pre-dispatch check use.
func TestContextError(t *testing.T) {
	var unset context.Context // SearchOptions.Context left nil
	if err := ContextError(unset); err != nil {
		t.Errorf("nil context: %v", err)
	}
	if err := ContextError(context.Background()); err != nil {
		t.Errorf("live context: %v", err)
	}
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	if err := ContextError(cancelled); !errors.Is(err, ErrCancelled) || !errors.Is(err, context.Canceled) || errors.Is(err, ErrDeadlineExceeded) {
		t.Errorf("cancelled context: %v", err)
	}
	expired, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	if err := ContextError(expired); !errors.Is(err, ErrDeadlineExceeded) || !errors.Is(err, context.DeadlineExceeded) || errors.Is(err, ErrCancelled) {
		t.Errorf("expired context: %v", err)
	}
}
