package core

// The metrics bridge: Stats is the per-query ground truth (reset at the
// start of every query, reported on every Result), and Metrics folds one
// finished query's Stats into process-wide counters and stage-latency
// histograms exactly once, after the search completes. Folding from Stats
// — instead of incrementing counters inside the hot loops — keeps the
// search paths free of metric calls (the only instrumentation cost on a
// query is one ObserveSearch at the end) and makes drift structurally
// impossible: a scraped counter delta is, by construction, the sum of the
// Stats fields the tests assert against.

import "skysr/internal/metrics"

// Metrics aggregates finished searches into a metrics.Registry. Create
// one with NewMetrics; all methods are safe for concurrent use (every
// underlying metric is atomic).
type Metrics struct {
	searches    *metrics.Counter
	interrupted *metrics.Counter
	results     *metrics.Counter

	mdRuns     *metrics.Counter
	mdRequests *metrics.Counter
	queryHits  *metrics.Counter
	sharedHits *metrics.Counter

	settled      *metrics.Counter
	popped       *metrics.Counter
	enqueued     *metrics.Counter
	topKExtra    *metrics.Counter
	destLegRuns  *metrics.Counter
	indexCovered *metrics.Counter

	stageTotal  *metrics.Histogram
	stageInit   *metrics.Histogram
	stageBounds *metrics.Histogram
	stageMD     *metrics.Histogram
	stageDest   *metrics.Histogram
}

// NewMetrics registers the search-core metric families on reg and returns
// the bridge. Register at most once per registry (duplicate names panic).
func NewMetrics(reg *metrics.Registry) *Metrics {
	stage := func(name string) *metrics.Histogram {
		return reg.Histogram("skysr_search_stage_seconds",
			"Per-search wall time by stage: total, nninit (§5.3.1 initial search), bounds (§5.3.3 lower bounds), mdijkstra (summed modified-Dijkstra runs), destleg (§6 destination-leg pricing).",
			metrics.DefTimeBuckets, metrics.L("stage", name))
	}
	return &Metrics{
		searches: reg.Counter("skysr_search_total",
			"Completed searches observed (one per query, batch queries included)."),
		interrupted: reg.Counter("skysr_search_interrupted_total",
			"Searches that ended on cancellation or deadline; their partial work is still folded into the other counters."),
		results: reg.Counter("skysr_search_results_total",
			"Skyline/top-k routes returned across all searches."),
		mdRuns: reg.Counter("skysr_mdijkstra_runs_total",
			"Modified-Dijkstra executions (cache misses and uncached runs — the Figure 5 metric)."),
		mdRequests: reg.Counter("skysr_mdijkstra_requests_total",
			"Modified-Dijkstra expansion requests (runs plus cache hits)."),
		queryHits: reg.Counter("skysr_cache_hits_total",
			"Modified-Dijkstra expansions served from a cache, by cache tier.",
			metrics.L("cache", "query")),
		sharedHits: reg.Counter("skysr_cache_hits_total",
			"Modified-Dijkstra expansions served from a cache, by cache tier.",
			metrics.L("cache", "shared")),
		settled: reg.Counter("skysr_settled_vertices_total",
			"Graph vertices settled across all Dijkstra work (the Table 8 metric)."),
		popped: reg.Counter("skysr_routes_popped_total",
			"Partial routes popped from the Algorithm 1 priority queue."),
		enqueued: reg.Counter("skysr_routes_enqueued_total",
			"Partial routes pushed onto the Algorithm 1 priority queue."),
		topKExtra: reg.Counter("skysr_topk_extra_pops_total",
			"Pops a k>1 run performed beyond what the classic best-length threshold would allow."),
		destLegRuns: reg.Counter("skysr_destleg_runs_total",
			"Destination-leg searches: the k reverse cost-to-go sweeps a destination query of k positions runs, plus each exact time-dependent leg pricing (§6)."),
		indexCovered: reg.Counter("skysr_search_index_covered_total",
			"Searches whose §5.3.3 bounds came entirely from resident category-index rows (subtract from skysr_search_total for the fallback count)."),
		stageTotal:  stage("total"),
		stageInit:   stage("nninit"),
		stageBounds: stage("bounds"),
		stageMD:     stage("mdijkstra"),
		stageDest:   stage("destleg"),
	}
}

// ObserveSearch folds one finished query's Stats into the registry.
// Callers invoke it exactly once per search, after the search returns
// (interrupted searches included — their flag is set and their partial
// work still counts). A nil receiver or nil Stats is a no-op, so callers
// need no enabled-checks on the hot path.
func (m *Metrics) ObserveSearch(st *Stats, interrupted bool) {
	if m == nil || st == nil {
		return
	}
	m.searches.Inc()
	if interrupted {
		m.interrupted.Inc()
	}
	m.results.Add(int64(st.Results))
	m.mdRuns.Add(st.MDijkstraRuns)
	m.mdRequests.Add(st.MDijkstraRequests)
	m.queryHits.Add(st.CacheHits)
	m.sharedHits.Add(st.SharedCacheHits)
	m.settled.Add(st.SettledVertices)
	m.popped.Add(st.RoutesPopped)
	m.enqueued.Add(st.RoutesEnqueued)
	m.topKExtra.Add(st.TopKExtraPops)
	m.destLegRuns.Add(st.DestLegRuns)
	if st.IndexCovered {
		m.indexCovered.Inc()
	}
	m.stageTotal.Observe(st.QueryTime.Seconds())
	m.stageInit.Observe(st.InitTime.Seconds())
	m.stageBounds.Observe(st.BoundsTime.Seconds())
	m.stageMD.Observe(st.MDijkstraTime.Seconds())
	m.stageDest.Observe(st.DestLegTime.Seconds())
}
