package skysr

import (
	"context"
	"strings"
	"testing"
	"time"

	"skysr/internal/faults"
	"skysr/internal/metrics"
)

// answersEqual compares the score vectors of two answers.
func answersEqual(a, b *Answer) bool {
	if len(a.Routes) != len(b.Routes) {
		return false
	}
	for i := range a.Routes {
		if a.Routes[i].LengthScore != b.Routes[i].LengthScore ||
			a.Routes[i].SemanticScore != b.Routes[i].SemanticScore {
			return false
		}
	}
	return true
}

// TestSearchBatchMatchesSerial: SearchBatch must return, in order, exactly
// the answers a serial Search loop produces — across worker counts and
// under mixed index options (run under -race; this also races the lazy
// index and per-category row builds, the hop-bound cache, and the shared
// m-Dijkstra cache).
func TestSearchBatchMatchesSerial(t *testing.T) {
	eng, err := Generate("tokyo", 0.2, 7)
	if err != nil {
		t.Fatal(err)
	}
	queries, err := eng.Workload(30, 3, 11)
	if err != nil {
		t.Fatal(err)
	}
	// Mixed options: alternate no-index and category-index across the
	// batch.
	perQuery := make([]SearchOptions, len(queries))
	for i := range perQuery {
		perQuery[i] = SearchOptions{UseCategoryIndex: i%2 == 1}
	}
	want := make([]*Answer, len(queries))
	for i, q := range queries {
		if want[i], err = eng.SearchWith(q, perQuery[i]); err != nil {
			t.Fatal(err)
		}
	}

	for _, workers := range []int{0, 1, 4, 8} {
		got, err := eng.SearchBatch(queries, BatchOptions{Workers: workers, PerQuery: perQuery})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if len(got) != len(want) {
			t.Fatalf("workers=%d: %d answers, want %d", workers, len(got), len(want))
		}
		for i := range got {
			if got[i] == nil {
				t.Fatalf("workers=%d: answer %d missing", workers, i)
			}
			if !answersEqual(got[i], want[i]) {
				t.Errorf("workers=%d: answer %d differs from serial Search", workers, i)
			}
		}
	}
}

// TestSearchBatchRunsCategoryIndex pins the batch serving profile: every
// query of a SearchBatch runs the category index plus the shared
// m-Dijkstra cache whatever its UseCategoryIndex says, and still answers
// bit-identically to a serial zero-value SearchWith.
func TestSearchBatchRunsCategoryIndex(t *testing.T) {
	eng, err := Generate("tokyo", 0.2, 7)
	if err != nil {
		t.Fatal(err)
	}
	base, err := eng.Workload(8, 3, 11)
	if err != nil {
		t.Fatal(err)
	}
	// Every template twice from the same start: the second copy must be
	// served from the shared cache.
	queries := append(append([]Query(nil), base...), base...)
	want := make([]*Answer, len(queries))
	for i, q := range queries {
		if want[i], err = eng.SearchWith(q, SearchOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	// The second batch leaves UseCategoryIndex false in every PerQuery
	// entry.
	perQuery := make([]SearchOptions, len(queries))

	for _, tc := range []struct {
		name string
		opts BatchOptions
	}{
		{"zero-value options", BatchOptions{Workers: 1}},
		{"per-query options", BatchOptions{Workers: 1, PerQuery: perQuery}},
	} {
		answers, err := eng.SearchBatch(queries, tc.opts)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		var sharedHits int64
		for i := range queries {
			st := answers[i].Stats
			if !st.IndexCovered {
				t.Errorf("%s: query %d not covered by the category index", tc.name, i)
			}
			sharedHits += st.SharedCacheHits
			if !answersMatch(answers[i], want[i]) {
				t.Errorf("%s: query %d differs from serial SearchWith", tc.name, i)
			}
		}
		if sharedHits == 0 {
			t.Errorf("%s: no shared-cache hits on a batch that repeats every template", tc.name)
		}
	}
}

// TestSearchBatchPaperExample pins the batch path to the paper's Table 4
// ground truth, duplicated many times so every worker sees the query.
func TestSearchBatchPaperExample(t *testing.T) {
	eng, vq, catNames := PaperExample()
	via := make([]Requirement, len(catNames))
	for i, n := range catNames {
		via[i] = Category(n)
	}
	queries := make([]Query, 16)
	for i := range queries {
		queries[i] = Query{Start: vq, Via: via}
	}
	answers, err := eng.SearchBatch(queries, BatchOptions{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	for i, ans := range answers {
		if len(ans.Routes) != 2 {
			t.Fatalf("answer %d: %d routes, want 2 (Table 4)", i, len(ans.Routes))
		}
		if ans.Routes[0].LengthScore != 10.5 || ans.Routes[1].LengthScore != 13 {
			t.Errorf("answer %d lengths = %v, %v; want 10.5, 13",
				i, ans.Routes[0].LengthScore, ans.Routes[1].LengthScore)
		}
	}
}

// TestSearchBatchErrors: option/length mismatches and failing queries
// surface as errors, fail-fast with the query index.
func TestSearchBatchErrors(t *testing.T) {
	eng, vq, catNames := PaperExample()
	via := []Requirement{Category(catNames[0])}
	good := Query{Start: vq, Via: via}

	if _, err := eng.SearchBatch([]Query{good}, BatchOptions{PerQuery: []SearchOptions{{}, {}}}); err == nil {
		t.Error("PerQuery length mismatch not rejected")
	}
	if answers, err := eng.SearchBatch(nil, BatchOptions{}); err != nil || len(answers) != 0 {
		t.Errorf("empty batch: %v, %v", answers, err)
	}
	bad := Query{Start: vq, Via: []Requirement{Category("No Such Category")}}
	_, err := eng.SearchBatch([]Query{good, bad, good}, BatchOptions{Workers: 2})
	if err == nil || !strings.Contains(err.Error(), "query 1") {
		t.Errorf("bad query error = %v, want it to name query 1", err)
	}
}

// TestSearchBatchCancellation: a cancelled context abandons the batch and
// surfaces the context error (servers pass the request context so
// disconnected clients stop consuming workers).
func TestSearchBatchCancellation(t *testing.T) {
	eng, vq, catNames := PaperExample()
	via := make([]Requirement, len(catNames))
	for i, n := range catNames {
		via[i] = Category(n)
	}
	queries := make([]Query, 64)
	for i := range queries {
		queries[i] = Query{Start: vq, Via: via}
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // already cancelled: no query should be charged to the caller
	_, err := eng.SearchBatch(queries, BatchOptions{Workers: 2, Context: ctx})
	if err == nil || !strings.Contains(err.Error(), "cancelled") {
		t.Errorf("cancelled batch error = %v", err)
	}

	// A live context behaves as before.
	ctx2, cancel2 := context.WithCancel(context.Background())
	defer cancel2()
	answers, err := eng.SearchBatch(queries[:4], BatchOptions{Workers: 2, Context: ctx2})
	if err != nil || len(answers) != 4 {
		t.Fatalf("live-context batch: %v, %d answers", err, len(answers))
	}
}

// TestSearchBatchWorkersShareRows: a cost-to-go row is built once the
// queries that missed it have paid its rent, and batch workers that miss
// the same rows at once each build them; the SharedCache keeps one row per
// suffix of tree roots, which every later query reads. One query alone
// builds no row. A fault hook holds each worker in its first row sweep
// until every worker is in one. The batch must answer like SearchWith,
// leave one row per position but the last, and a second batch must build
// no row and answer the same.
func TestSearchBatchWorkersShareRows(t *testing.T) {
	eng, err := Generate("tokyo", 0.05, 7)
	if err != nil {
		t.Fatal(err)
	}
	reg := metrics.New()
	eng.EnableMetrics(reg)
	tmpl, err := eng.Workload(1, 3, 29)
	if err != nil {
		t.Fatal(err)
	}
	const workers = 4
	// Sequentially, the rows' rent is paid after 20 of these queries, so
	// every worker still has queries to take when it is.
	queries := make([]Query, 64)
	want := make([]*Answer, len(queries))
	for i := range queries {
		queries[i] = tmpl[0]
		queries[i].Start = VertexID(i * eng.NumVertices() / len(queries))
		if want[i], err = eng.SearchWith(queries[i], SearchOptions{}); err != nil {
			t.Fatal(err)
		}
	}

	one, err := eng.SearchBatch(queries[:1], BatchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if sweeps := one[0].Stats.DestLegRuns; sweeps != 0 {
		t.Errorf("one query ran %d row sweeps, want 0: a suffix no other query names is not worth a row", sweeps)
	}

	// Each worker's first sweep fires the hook once before it waits, so
	// the workers-th firing finds every worker in a sweep.
	release := make(chan struct{})
	restore := faults.Set(faults.DestLeg, func(n int64) {
		if n > workers {
			return
		}
		if n == workers {
			close(release)
		}
		select {
		case <-release:
		case <-time.After(10 * time.Second):
			t.Error("the batch workers never were in a row sweep at once")
		}
	})
	first, err := eng.SearchBatch(queries, BatchOptions{Workers: workers})
	restore()
	if err != nil {
		t.Fatal(err)
	}
	var sweeps int64
	for i, a := range first {
		sweeps += a.Stats.DestLegRuns
		if !answersMatch(a, want[i]) {
			t.Errorf("query %d differs from SearchWith", i)
		}
	}
	if sweeps < workers {
		t.Errorf("the batch ran %d row sweeps, want at least one per worker (%d)", sweeps, workers)
	}
	if rows := scrapeRegistry(t, reg)["skysr_shared_cache_rows"]; rows != float64(len(tmpl[0].Via)-1) {
		t.Errorf("skysr_shared_cache_rows = %v, want one row per position but the last (%d)", rows, len(tmpl[0].Via)-1)
	}

	again, err := eng.SearchBatch(queries, BatchOptions{Workers: workers})
	if err != nil {
		t.Fatal(err)
	}
	for i, a := range again {
		if a.Stats.DestLegRuns != 0 {
			t.Errorf("query %d of the second batch ran %d row sweeps, want 0", i, a.Stats.DestLegRuns)
		}
		if !answersMatch(a, want[i]) {
			t.Errorf("query %d of the second batch differs from SearchWith", i)
		}
	}
}
