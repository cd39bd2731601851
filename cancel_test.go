package skysr

import (
	"context"
	"errors"
	"math/rand"
	"testing"
	"time"

	"skysr/internal/faults"
)

// servingProfile is one serving configuration: the options a query runs
// with, and whether it runs as a one-query SearchBatch — the only path
// that shares m-Dijkstra results across queries.
type servingProfile struct {
	opts  SearchOptions
	batch bool
}

// servingProfiles enumerates the serving configurations the cancellation,
// update, time-dependent, top-k and metrics suites sweep: plain BSSR, the
// category-index profile, and SearchBatch's shared cache.
func servingProfiles() map[string]servingProfile {
	return map[string]servingProfile{
		"plain":          {},
		"category-index": {opts: SearchOptions{UseCategoryIndex: true}},
		"share-cache":    {batch: true},
	}
}

// search answers q on eng with opts (the profile's options plus whatever
// the caller layered on) through the profile's path.
func (p servingProfile) search(eng *Engine, q Query, opts SearchOptions) (*Answer, error) {
	if !p.batch {
		return eng.SearchWith(q, opts)
	}
	answers, err := eng.SearchBatch([]Query{q}, BatchOptions{Workers: 1, Options: opts})
	if err != nil {
		return nil, err
	}
	return answers[0], nil
}

// queryShapes builds one query of every public shape from a base ordered
// query: ordered, destination, unordered, and rated. Top-k rides through
// SearchTopK in the tests themselves.
func queryShapes(base Query) map[string]Query {
	dest := base
	dest.Destination = base.Start
	dest.HasDestination = true
	unordered := base
	unordered.Unordered = true
	rated := base
	rated.IncludeRatings = true
	return map[string]Query{
		"ordered":     base,
		"destination": dest,
		"unordered":   unordered,
		"rated":       rated,
	}
}

// TestPreExpiredDeadlineAllShapes: a deadline already in the past (or a
// context already cancelled) must return the matching typed error from
// every query shape under every serving profile, without starting the
// search.
func TestPreExpiredDeadlineAllShapes(t *testing.T) {
	eng, err := Generate("tokyo", 0.2, 7)
	if err != nil {
		t.Fatal(err)
	}
	queries, err := eng.Workload(1, 3, 11)
	if err != nil {
		t.Fatal(err)
	}
	shapes := queryShapes(queries[0])

	deadCtx, cancel := context.WithCancel(context.Background())
	cancel()
	expiredCtx, cancelExpired := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancelExpired()

	for pname, p := range servingProfiles() {
		for sname, q := range shapes {
			opts := p.opts
			opts.Context = expiredCtx
			if _, err := p.search(eng, q, opts); !errors.Is(err, ErrDeadlineExceeded) {
				t.Errorf("%s/%s: expired deadline err = %v, want ErrDeadlineExceeded", pname, sname, err)
			}

			opts = p.opts
			opts.Context = deadCtx
			_, err := p.search(eng, q, opts)
			if !errors.Is(err, ErrSearchCancelled) || !errors.Is(err, context.Canceled) {
				t.Errorf("%s/%s: cancelled context err = %v, want ErrSearchCancelled wrapping context.Canceled", pname, sname, err)
			}
		}

		// Ranked top-k flows through the same pre-dispatch check.
		opts := p.opts
		opts.TopK = 3
		opts.Context = expiredCtx
		if _, err := p.search(eng, shapes["ordered"], opts); !errors.Is(err, ErrDeadlineExceeded) {
			t.Errorf("%s/topk: expired deadline err = %v, want ErrDeadlineExceeded", pname, err)
		}
		opts = p.opts
		opts.TopK = 3
		opts.Context = deadCtx
		if _, err := p.search(eng, shapes["ordered"], opts); !errors.Is(err, ErrSearchCancelled) {
			t.Errorf("%s/topk: cancelled context err = %v, want ErrSearchCancelled", pname, err)
		}
	}

	// A pre-cancelled batch context is charged to the caller, not to any
	// query, and carries the typed sentinel.
	_, err = eng.SearchBatch(queries, BatchOptions{Workers: 2, Context: deadCtx})
	if !errors.Is(err, ErrSearchCancelled) || !errors.Is(err, context.Canceled) {
		t.Errorf("batch: cancelled context err = %v, want ErrSearchCancelled wrapping context.Canceled", err)
	}

	assertPinsReleased(t, eng, "refused searches")
}

// TestCancelledThenIdentical: a query cancelled mid-search (inside its
// first m-Dijkstra run, forced by a fault hook) must leave no trace — the
// same engine, asked the same query afterwards under the cache-bearing
// profiles, must answer exactly like a fresh engine that never saw a
// cancellation. Run under -race in CI.
func TestCancelledThenIdentical(t *testing.T) {
	eng, err := Generate("tokyo", 0.2, 7)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := Generate("tokyo", 0.2, 7)
	if err != nil {
		t.Fatal(err)
	}
	queries, err := eng.Workload(6, 3, 13)
	if err != nil {
		t.Fatal(err)
	}

	for pname, p := range servingProfiles() {
		for i, q := range queries {
			// Cancel deterministically inside the search: the hook fires at
			// the first m-Dijkstra entry, before that run's checkpoint, so
			// the search always dies mid-flight rather than racing the loop.
			ctx, cancel := context.WithCancel(context.Background())
			restore := faults.Set(faults.MDijkstraRun, func(n int64) {
				if n == 1 {
					cancel()
				}
			})
			opts := p.opts
			opts.Context = ctx
			_, serr := p.search(eng, q, opts)
			restore()
			cancel()
			if !errors.Is(serr, ErrSearchCancelled) {
				t.Fatalf("%s/query %d: err = %v, want ErrSearchCancelled", pname, i, serr)
			}

			// The identical query, uncancelled, on the engine that just
			// aborted — against an engine that never cancelled anything.
			got, err := p.search(eng, q, p.opts)
			if err != nil {
				t.Fatal(err)
			}
			want, err := p.search(fresh, q, p.opts)
			if err != nil {
				t.Fatal(err)
			}
			if !answersEqual(got, want) {
				t.Fatalf("%s/query %d: post-cancel answer diverged from fresh engine", pname, i)
			}
		}
	}
	assertPinsReleased(t, eng, "cancelled searches")
}

// TestBatchMidFlightCancellation: cancelling a batch while its workers are
// deep inside BSSR pop loops must abandon the batch with the typed
// sentinel, release every snapshot pin, and leave the engine fully
// usable.
func TestBatchMidFlightCancellation(t *testing.T) {
	eng, err := Generate("tokyo", 0.2, 7)
	if err != nil {
		t.Fatal(err)
	}
	queries, err := eng.Workload(8, 3, 17)
	if err != nil {
		t.Fatal(err)
	}
	batch := make([]Query, 0, 32)
	for len(batch) < 32 {
		batch = append(batch, queries...)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	restore := faults.Set(faults.RoutePop, func(n int64) {
		if n == 50 {
			cancel()
		}
	})
	_, err = eng.SearchBatch(batch, BatchOptions{Workers: 4, Context: ctx})
	restore()
	if !errors.Is(err, ErrSearchCancelled) {
		t.Fatalf("mid-flight cancelled batch err = %v, want ErrSearchCancelled", err)
	}

	// Full recovery: the same batch without the dead context succeeds and
	// matches a serial rerun; no snapshot pin leaked.
	answers, err := eng.SearchBatch(batch[:8], BatchOptions{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	for i, ans := range answers {
		want, err := eng.SearchWith(batch[i], SearchOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if !answersEqual(ans, want) {
			t.Fatalf("answer %d diverged after the cancelled batch", i)
		}
	}
	assertPinsReleased(t, eng, "a cancelled batch")
}

// assertPinsReleased supersedes eng's snapshot with one update batch and
// checks nothing still pins the old one: a leaked pin only shows once
// its snapshot is no longer current.
func assertPinsReleased(t *testing.T, eng *Engine, after string) {
	t.Helper()
	if _, err := eng.ApplyUpdates(randomBatch(eng, rand.New(rand.NewSource(1)), false)); err != nil {
		t.Fatal(err)
	}
	if n := eng.LiveSnapshots(); n != 1 {
		t.Fatalf("engine holds %d live snapshots after %s and an update, want 1 (pin leak)", n, after)
	}
}
