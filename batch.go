package skysr

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// BatchOptions tunes a SearchBatch. The zero value means: one worker per
// CPU, default SearchOptions for every query, no cancellation.
type BatchOptions struct {
	// Workers bounds the number of queries answered concurrently; 0 means
	// GOMAXPROCS. Each in-flight query holds one pooled searcher workspace,
	// so Workers also bounds the batch's transient memory.
	Workers int
	// Options applies to every query.
	Options SearchOptions
	// PerQuery, when non-nil, overrides Options query by query; its length
	// must equal the number of queries.
	PerQuery []SearchOptions
	// Context, when non-nil, cancels the batch: queries not yet started
	// are abandoned, and in-flight queries observe the context too — it is
	// installed as each query's SearchOptions.Context (unless PerQuery set
	// one explicitly), so the BSSR expansion itself unwinds within one
	// check stride of the cancel. The batch returns an error wrapping both
	// ErrSearchCancelled/ErrDeadlineExceeded and the context's error.
	// Servers should pass the request context so disconnected clients stop
	// consuming workers.
	Context context.Context
}

// SearchBatch answers a whole workload over a bounded worker pool, reusing
// pooled searcher workspaces and sharing cacheable state across the batch:
// compiled requirements and, for every query whatever its UseCategoryIndex
// says, the category index plus the cross-query cache of the dataset
// version the batch runs on. That cache holds m-Dijkstra results and the
// cost-to-go rows of ordered queries without a destination: for each
// suffix of positions, a lower bound on the rest of the route from every
// vertex, which cuts the searches of every query sharing that suffix of
// category trees, its first search from the start included. A row costs
// one sweep of the graph, so it is built only for a suffix that recurs:
// the queries that miss it pay rent, the work at its position, until that
// rent covers several sweeps, and later queries read it. Answers are
// returned in query order and are
// identical to what a serial Search loop would produce. The whole batch
// runs against the dataset version current when the call starts: a
// concurrent ApplyUpdates never splits one batch across two epochs. Each
// version has its own cache, so later batches on the same version reuse
// this batch's entries and rows, and the first batch after an update
// starts on an empty cache.
//
// Per-query options flow through unchanged, including SearchOptions.TopK:
// a batch may mix classic and ranked top-k queries freely (k > 1 queries
// skip the cross-query m-Dijkstra sharing — see SearchTopK — but still
// read the cost-to-go rows and share the index and compiled matchers).
//
// The batch fails fast: the first query error cancels the queries not yet
// started and is returned with its query index; already-computed answers
// are discarded.
func (e *Engine) SearchBatch(queries []Query, opts BatchOptions) ([]*Answer, error) {
	if opts.PerQuery != nil && len(opts.PerQuery) != len(queries) {
		return nil, fmt.Errorf("skysr: PerQuery has %d options for %d queries", len(opts.PerQuery), len(queries))
	}
	answers := make([]*Answer, len(queries))
	if len(queries) == 0 {
		return answers, nil
	}
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(queries) {
		workers = len(queries)
	}
	sn := e.pin()
	defer sn.release()

	var (
		next    atomic.Int64
		failed  atomic.Bool
		mu      sync.Mutex
		firstEr error
		wg      sync.WaitGroup
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(queries) || failed.Load() {
					return
				}
				so := opts.Options
				if opts.PerQuery != nil {
					so = opts.PerQuery[i]
				}
				if so.Context == nil {
					// The batch context governs every query it starts: a
					// cancel between the claim above and the search below —
					// or at any depth inside the search — is observed by
					// searchOn's own pre-dispatch check and the core's
					// cancellation seam, closing the start race a standalone
					// pre-check here would leave open.
					so.Context = opts.Context
				}
				ans, err := searchRecovered(e, sn, queries[i], so, i)
				if err != nil {
					failed.Store(true)
					mu.Lock()
					if firstEr == nil {
						firstEr = fmt.Errorf("skysr: batch query %d: %w", i, err)
					}
					mu.Unlock()
					return
				}
				answers[i] = ans
			}
		}()
	}
	wg.Wait()
	if firstEr != nil {
		return nil, firstEr
	}
	return answers, nil
}

// searchRecovered runs one batch query, converting a panic into an error.
// Batch workers run on their own goroutines, where a panic — a bug, or a
// fault-injection hook — would kill the whole process instead of the one
// request an HTTP middleware could contain; recovering here turns it into
// the batch's fail-fast error path. The search's deferred pool.Put and
// snapshot release run during the unwind, so no workspace or pin leaks.
func searchRecovered(e *Engine, sn *snapshot, q Query, so SearchOptions, i int) (ans *Answer, err error) {
	defer func() {
		if p := recover(); p != nil {
			ans, err = nil, fmt.Errorf("skysr: batch query %d panicked: %v", i, p)
		}
	}()
	return e.searchOn(sn, q, so, true)
}
