package skysr

// The metrics-exactness suite: the scraped /metrics counters must equal,
// exactly, the sums of the per-query Stats the engine already reports —
// across every serving profile, query shape and the batch path. The
// fold-from-Stats design (core.Metrics.ObserveSearch) makes this an
// invariant rather than an approximation, and this suite is the gate
// that keeps it one: any code path that starts double-observing, or a
// new path that forgets to observe, breaks an equality here.

import (
	"bytes"
	"context"
	"errors"
	"testing"
	"time"

	"skysr/internal/core"
	"skysr/internal/faults"
	"skysr/internal/metrics"
)

// statsSums accumulates the Stats fields the counters are folded from.
type statsSums struct {
	searches, results, mdRuns, mdRequests    int64
	queryHits, sharedHits, settled           int64
	popped, enqueued, topKExtra, destLegRuns int64
	indexCovered                             int64
}

func (s *statsSums) add(st *core.Stats) {
	s.searches++
	s.results += int64(st.Results)
	s.mdRuns += st.MDijkstraRuns
	s.mdRequests += st.MDijkstraRequests
	s.queryHits += st.CacheHits
	s.sharedHits += st.SharedCacheHits
	s.settled += st.SettledVertices
	s.popped += st.RoutesPopped
	s.enqueued += st.RoutesEnqueued
	s.topKExtra += st.TopKExtraPops
	s.destLegRuns += st.DestLegRuns
	if st.IndexCovered {
		s.indexCovered++
	}
}

// scrapeRegistry renders reg to text and parses it back, so every
// exactness assertion also proves the exposition round-trips.
func scrapeRegistry(t *testing.T, reg *metrics.Registry) map[string]float64 {
	t.Helper()
	var buf bytes.Buffer
	if err := reg.WriteText(&buf); err != nil {
		t.Fatalf("WriteText: %v", err)
	}
	samples, err := metrics.ParseText(buf.Bytes())
	if err != nil {
		t.Fatalf("scrape does not parse: %v\n%s", err, buf.String())
	}
	return samples
}

func assertCounter(t *testing.T, samples map[string]float64, key string, want int64) {
	t.Helper()
	if got := samples[key]; got != float64(want) {
		t.Errorf("%s = %v, want exactly %d", key, got, want)
	}
}

// TestMetricsExactAcrossProfiles drives known queries through every
// serving profile and query shape, sums the Stats of each answer, and
// requires the scraped counters to match those sums exactly.
func TestMetricsExactAcrossProfiles(t *testing.T) {
	eng, err := Generate("tokyo", 0.05, 7)
	if err != nil {
		t.Fatal(err)
	}
	reg := metrics.New()
	eng.EnableMetrics(reg)

	queries, err := eng.Workload(6, 3, 99)
	if err != nil {
		t.Fatal(err)
	}

	profiles := servingProfiles()
	profiles["top-k"] = servingProfile{opts: SearchOptions{TopK: 4, UseCategoryIndex: true}}

	var want statsSums
	for name, p := range profiles {
		for _, q := range queries {
			ans, err := p.search(eng, q, p.opts)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if ans.Stats == nil {
				t.Fatalf("%s: BSSR answer without Stats", name)
			}
			want.add(ans.Stats)
		}
	}

	// Destination and unordered shapes (the paper's §6 extensions) run
	// through the same observe seam.
	for _, q := range queries[:2] {
		dq := q
		dq.Destination = q.Start
		dq.HasDestination = true
		ans, err := eng.SearchWith(dq, SearchOptions{UseCategoryIndex: true})
		if err != nil {
			t.Fatal(err)
		}
		want.add(ans.Stats)
		uq := q
		uq.Unordered = true
		ans, err = eng.SearchWith(uq, SearchOptions{})
		if err != nil {
			t.Fatal(err)
		}
		want.add(ans.Stats)
	}

	// The batch path funnels through the same seam, one observation per
	// query.
	answers, err := eng.SearchBatch(queries, BatchOptions{Workers: 3})
	if err != nil {
		t.Fatal(err)
	}
	for _, ans := range answers {
		if ans.Stats == nil {
			t.Fatal("batch answer without Stats")
		}
		want.add(ans.Stats)
	}

	samples := scrapeRegistry(t, reg)
	assertCounter(t, samples, "skysr_search_total", want.searches)
	assertCounter(t, samples, "skysr_search_results_total", want.results)
	assertCounter(t, samples, "skysr_mdijkstra_runs_total", want.mdRuns)
	assertCounter(t, samples, "skysr_mdijkstra_requests_total", want.mdRequests)
	assertCounter(t, samples, `skysr_cache_hits_total{cache="query"}`, want.queryHits)
	assertCounter(t, samples, `skysr_cache_hits_total{cache="shared"}`, want.sharedHits)
	assertCounter(t, samples, "skysr_settled_vertices_total", want.settled)
	assertCounter(t, samples, "skysr_routes_popped_total", want.popped)
	assertCounter(t, samples, "skysr_routes_enqueued_total", want.enqueued)
	assertCounter(t, samples, "skysr_topk_extra_pops_total", want.topKExtra)
	assertCounter(t, samples, "skysr_destleg_runs_total", want.destLegRuns)
	assertCounter(t, samples, "skysr_search_index_covered_total", want.indexCovered)
	assertCounter(t, samples, "skysr_search_interrupted_total", 0)

	// Every stage histogram saw exactly one observation per search.
	for _, stage := range []string{"total", "nninit", "bounds", "mdijkstra", "destleg"} {
		assertCounter(t, samples, `skysr_search_stage_seconds_count{stage="`+stage+`"}`, want.searches)
	}

	// The shared-cache counter functions sample the same caches the
	// query Stats hit: their scraped hit total matches the folded sum.
	assertCounter(t, samples, "skysr_shared_cache_hits_total", want.sharedHits)
}

// TestMetricsInterruptedSearchCounted verifies a search interrupted
// inside the core is observed with its flag set. The deadline must trip
// mid-search, not in the pre-dispatch check (which refuses the search
// before anything is observed), so the first modified-Dijkstra run waits
// it out.
func TestMetricsInterruptedSearchCounted(t *testing.T) {
	eng, err := Generate("tokyo", 0.05, 7)
	if err != nil {
		t.Fatal(err)
	}
	reg := metrics.New()
	eng.EnableMetrics(reg)
	queries, err := eng.Workload(1, 3, 99)
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	restore := faults.Set(faults.MDijkstraRun, func(int64) { <-ctx.Done() })
	defer restore()
	if _, err := eng.SearchWith(queries[0], SearchOptions{Context: ctx}); !errors.Is(err, ErrDeadlineExceeded) {
		t.Fatalf("err = %v, want ErrDeadlineExceeded", err)
	}
	samples := scrapeRegistry(t, reg)
	if samples["skysr_search_total"] < 1 {
		t.Fatal("the interrupted search was never observed")
	}
	if samples["skysr_search_interrupted_total"] != samples["skysr_search_total"] {
		t.Errorf("interrupted = %v, searches = %v; a deadline-killed search must count as both",
			samples["skysr_search_interrupted_total"], samples["skysr_search_total"])
	}
}

// TestEnableMetricsIdempotent pins the once-only contract: re-enabling on
// a second registry neither panics nor reroutes the observations.
func TestEnableMetricsIdempotent(t *testing.T) {
	eng, _, _ := PaperExample()
	reg := metrics.New()
	eng.EnableMetrics(reg)
	other := metrics.New()
	eng.EnableMetrics(other) // no-op: the engine reports to reg
	q := Query{Start: 0, Via: []Requirement{Category("Gift Shop")}}
	if _, err := eng.Search(q); err != nil {
		t.Fatal(err)
	}
	assertCounter(t, scrapeRegistry(t, reg), "skysr_search_total", 1)
	// The second registry carries no engine families at all.
	var buf bytes.Buffer
	if err := other.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	if buf.Len() != 0 {
		t.Errorf("second registry is not empty:\n%s", buf.String())
	}
}
