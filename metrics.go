package skysr

// Observability wiring: EnableMetrics hooks an Engine up to an
// internal/metrics registry. Search counters and stage histograms are
// folded from each query's Stats exactly once per search (see
// core.Metrics); everything else — epoch, snapshot pins, searcher-pool
// occupancy, shared-cache and category-index state — is exported as
// gauge/counter functions sampled at scrape time, so serving traffic pays
// nothing for them.

import (
	"skysr/internal/core"
	"skysr/internal/metrics"
)

// EnableMetrics registers the engine's observability on reg: per-search
// counters and stage-latency histograms (skysr_search_*, skysr_mdijkstra_*,
// skysr_cache_hits_total, skysr_search_stage_seconds), plus sampled gauges
// for the epoch, live snapshot pins, searcher-pool occupancy, the shared
// m-Dijkstra cache and the category index. The serving tier (internal/
// serve) calls this automatically; library users embedding an Engine call
// it themselves and mount the registry wherever they expose /metrics.
//
// Only the first call has any effect: metric names may exist once per
// registry, and one engine reports to one registry. Later calls — with
// any registry — are no-ops.
func (e *Engine) EnableMetrics(reg *metrics.Registry) {
	e.metricsOnce.Do(func() {
		m := core.NewMetrics(reg)
		reg.GaugeFunc("skysr_epoch",
			"Current dataset version: 0 at construction, +1 per applied update batch.",
			func() float64 { return float64(e.Epoch()) })
		reg.GaugeFunc("skysr_live_snapshots",
			"Snapshots not yet fully released: 1 in steady state, higher while in-flight searches pin superseded epochs.",
			func() float64 { return float64(e.LiveSnapshots()) })
		reg.GaugeFunc("skysr_epoch_lag",
			"Superseded snapshots still pinned by in-flight searches (live snapshots minus one).",
			func() float64 { return float64(max(e.LiveSnapshots()-1, 0)) })
		reg.GaugeFunc("skysr_searchers_in_use",
			"Searcher workspaces checked out of the current snapshot's pool (each holds graph-sized arrays).",
			func() float64 { return float64(e.SearchersInUse()) })

		// The current snapshot's caches: entries and bytes describe its
		// version, while hits, misses and flushes count every version's
		// lookups (see core.SharedCache.Next).
		shared := func(f func(core.SharedCacheStats) float64) func() float64 {
			return func() float64 {
				sn := e.pin()
				defer sn.release()
				var sum float64
				for _, c := range sn.shared {
					sum += f(c.Stats())
				}
				return sum
			}
		}
		reg.CounterFunc("skysr_shared_cache_hits_total",
			"SharedCache lookups served from the cross-query m-Dijkstra cache (both similarity caches summed).",
			shared(func(s core.SharedCacheStats) float64 { return float64(s.Hits) }))
		reg.CounterFunc("skysr_shared_cache_misses_total",
			"SharedCache lookups that fell through to a fresh run.",
			shared(func(s core.SharedCacheStats) float64 { return float64(s.Misses) }))
		reg.CounterFunc("skysr_shared_cache_flushes_total",
			"Times a SharedCache was emptied by its byte cap.",
			shared(func(s core.SharedCacheStats) float64 { return float64(s.Flushes) }))
		reg.GaugeFunc("skysr_shared_cache_entries",
			"Resident SharedCache entries of the current snapshot.",
			shared(func(s core.SharedCacheStats) float64 { return float64(s.Entries) }))
		reg.GaugeFunc("skysr_shared_cache_rows",
			"Resident SharedCache cost-to-go rows of the current snapshot.",
			shared(func(s core.SharedCacheStats) float64 { return float64(s.Rows) }))
		reg.GaugeFunc("skysr_shared_cache_bytes",
			"Approximate resident bytes of the current snapshot's SharedCache entries, rows and missed row keys.",
			shared(func(s core.SharedCacheStats) float64 { return float64(s.Bytes) }))

		// Index stats are per current snapshot, so they are gauges, not
		// counters.
		reg.GaugeFunc("skysr_index_rows",
			"Category-index rows resident on the current snapshot.",
			func() float64 { return float64(e.CategoryIndexStats().RowsBuilt) })
		reg.GaugeFunc("skysr_index_bytes",
			"Approximate resident bytes of the category index.",
			func() float64 { return float64(e.CategoryIndexStats().Bytes) })
		reg.GaugeFunc("skysr_index_rows_carried",
			"Index rows carried across the most recent update as still-valid lower bounds.",
			func() float64 { return float64(e.CategoryIndexStats().RowsCarried) })
		reg.GaugeFunc("skysr_index_rows_repaired",
			"Index rows repaired or rebuilt by the most recent update.",
			func() float64 { return float64(e.CategoryIndexStats().RowsRepaired) })
		e.metricsv.Store(m)
	})
}

// SearchersInUse returns the searcher workspaces currently checked out of
// the current snapshot's pool. Searches still pinned to superseded
// snapshots are not counted.
func (e *Engine) SearchersInUse() int64 {
	sn := e.pin()
	defer sn.release()
	return sn.pool.InUse()
}

// observeSearch folds one finished search into the metrics bridge; a
// no-op until EnableMetrics ran (nil-receiver ObserveSearch).
func (e *Engine) observeSearch(st *core.Stats, interrupted bool) {
	e.metricsv.Load().ObserveSearch(st, interrupted)
}
