package bench

// The httpload experiment drives the HTTP serving tier end to end with
// concurrent clients across worker counts, scraping GET /metrics before,
// during and after each load phase. It proves three things the unit
// tests cannot: the tier sustains throughput as workers scale, the
// Prometheus exposition stays parseable while the tier is under fire,
// and the scraped counter deltas agree exactly with the client-observed
// request counts (the metrics are true, not merely present). A separate
// overhead measurement runs the same queries through a metered and an
// unmetered engine and gates the instrumentation cost.
//
// The scenario runner lives in cmd/skysr-bench (it drives skysr.Engine
// and internal/serve, which this package cannot import without a cycle);
// this file owns the row types, the text renderer and the gate.

import (
	"fmt"
	"io"
	"strings"
)

// RequiredMetricNames are the families every /metrics scrape must carry;
// the httpload gate and the CI smoke both assert them, so a renamed
// metric cannot slip out silently.
var RequiredMetricNames = []string{
	"skysr_search_total",
	"skysr_search_stage_seconds_bucket",
	"skysr_mdijkstra_runs_total",
	"skysr_settled_vertices_total",
	"skysr_cache_hits_total",
	"skysr_epoch",
	"skysr_searchers_in_use",
	"skysr_http_requests_total",
	"skysr_http_request_seconds_bucket",
	"skysr_http_request_p99_seconds",
	"skysr_http_in_flight",
	"skysr_http_queue_depth",
	"skysr_http_rejected_total",
	"skysr_http_panics_total",
	"skysr_http_timeouts_total",
	"skysr_trace_kept_total",
	"skysr_trace_dropped_total",
}

// HasMetric reports whether a parsed scrape (metrics.ParseText output,
// keyed "name" or "name{labels}") carries any sample of the named family.
func HasMetric(samples map[string]float64, name string) bool {
	for k := range samples {
		if k == name || strings.HasPrefix(k, name+"{") {
			return true
		}
	}
	return false
}

// MissingMetrics returns the RequiredMetricNames absent from a scrape.
func MissingMetrics(samples map[string]float64) []string {
	var missing []string
	for _, name := range RequiredMetricNames {
		if !HasMetric(samples, name) {
			missing = append(missing, name)
		}
	}
	return missing
}

// HTTPLoadRow is one (dataset, workers) load measurement.
type HTTPLoadRow struct {
	Dataset string `json:"dataset"`
	Workers int    `json:"workers"`
	Ops     int    `json:"ops"`

	// Client-observed outcomes; the gate requires Errors == 0.
	OK     int64 `json:"ok"`
	Errors int64 `json:"errors"`

	QPS   float64 `json:"qps"`
	P50MS float64 `json:"p50_ms"`
	P95MS float64 `json:"p95_ms"`
	P99MS float64 `json:"p99_ms"`

	// MidScrapes counts /metrics scrapes taken while the load ran; each
	// had to parse as valid Prometheus text and carry every required
	// family, else ScrapeOK is false.
	MidScrapes int  `json:"mid_scrapes"`
	ScrapeOK   bool `json:"scrape_ok"`

	// Scraped counter deltas across the load phase versus the client's
	// own counts: exactness over the full HTTP path.
	SearchDelta   float64 `json:"search_delta"`    // skysr_search_total
	RouteOKDelta  float64 `json:"route_ok_delta"`  // skysr_http_requests_total{route,2xx}
	RouteObsDelta float64 `json:"route_obs_delta"` // skysr_http_request_seconds_count{route}
	TraceDelta    float64 `json:"trace_delta"`     // skysr_trace_kept_total

	// Flight-recorder evidence: the load server samples every request
	// (TraceSample=1), so after the phase /api/debug/traces must list
	// parseable traces and serve one full span tree by ID.
	TracesListed int  `json:"traces_listed"`
	TracesOK     bool `json:"traces_ok"`

	DurationMS float64 `json:"duration_ms"`
}

// HTTPOverheadRow is one dataset's instrumentation-overhead measurement:
// the same queries on an instrumented and a bare engine, interleaved. The
// instrumented engine pays the full observability stack — metrics fold
// plus a per-query trace with span synthesis and a flight-recorder Offer
// (sample=1, the worst case) — so the gated ratio bounds metrics and
// tracing together.
type HTTPOverheadRow struct {
	Dataset string `json:"dataset"`
	Rounds  int    `json:"rounds"`
	// Traced records that the metered side also ran per-query tracing.
	Traced bool `json:"traced"`
	// Medians of the best round (the one with the smallest ratio — the
	// round least polluted by scheduler noise).
	BaseMicros    float64 `json:"base_micros"`
	MeteredMicros float64 `json:"metered_micros"`
	// Ratio is min over rounds of median(metered)/median(base).
	Ratio float64 `json:"ratio"`
}

// RenderHTTPLoad writes the load and overhead results as text tables.
func RenderHTTPLoad(w io.Writer, rows []HTTPLoadRow, overhead []HTTPOverheadRow) {
	writeln(w, "HTTP load: concurrent clients vs the serving tier, /metrics scraped mid-run")
	writeln(w, "%-8s %7s %5s %6s %6s %8s %8s %8s %8s %10s %8s %9s",
		"Dataset", "workers", "ops", "ok", "errors", "qps", "p50ms", "p99ms", "scrapes", "searchΔ", "routeΔ", "ms")
	for _, r := range rows {
		scrapes := fmt.Sprintf("%d", r.MidScrapes)
		if !r.ScrapeOK {
			scrapes += "!"
		}
		writeln(w, "%-8s %7d %5d %6d %6d %8.0f %8.2f %8.2f %8s %10.0f %8.0f %9.0f",
			r.Dataset, r.Workers, r.Ops, r.OK, r.Errors, r.QPS, r.P50MS, r.P99MS,
			scrapes, r.SearchDelta, r.RouteOKDelta, r.DurationMS)
	}
	writeln(w, "")
	writeln(w, "Instrumentation overhead: metered vs unmetered engine, interleaved single-query Search")
	writeln(w, "%-8s %7s %10s %12s %7s", "Dataset", "rounds", "base µs", "metered µs", "ratio")
	for _, o := range overhead {
		writeln(w, "%-8s %7d %10.1f %12.1f %7.3f", o.Dataset, o.Rounds, o.BaseMicros, o.MeteredMicros, o.Ratio)
	}
}

// maxOverheadRatio is the CI gate on instrumentation cost: the
// instrumented engine's best-round median single-query latency — with
// metrics AND per-query tracing enabled — must stay within 5% of the bare
// engine's. Both layers fold from counters the search already keeps (one
// ObserveSearch call; span synthesis once per query at finish), so 5% is
// generous headroom for noise.
const maxOverheadRatio = 1.05

// CheckHTTPLoad enforces the observability gates: every request
// succeeded, every scrape (including the mid-load ones) parsed and
// carried the required families, the scraped counter deltas equal the
// client-observed counts exactly, throughput did not collapse under
// concurrency, and the instrumentation overhead is within bounds.
func CheckHTTPLoad(rows []HTTPLoadRow, overhead []HTTPOverheadRow) error {
	if len(rows) == 0 {
		return fmt.Errorf("httpload check: no rows")
	}
	bestMulti := map[string]float64{}
	single := map[string]float64{}
	for _, r := range rows {
		if r.Errors != 0 {
			return fmt.Errorf("httpload check: %s@%d workers: %d failed requests", r.Dataset, r.Workers, r.Errors)
		}
		if r.OK != int64(r.Ops) {
			return fmt.Errorf("httpload check: %s@%d workers: %d ok of %d ops", r.Dataset, r.Workers, r.OK, r.Ops)
		}
		if !r.ScrapeOK || r.MidScrapes == 0 {
			return fmt.Errorf("httpload check: %s@%d workers: mid-load /metrics scrape failed or never ran", r.Dataset, r.Workers)
		}
		if r.SearchDelta != float64(r.OK) {
			return fmt.Errorf("httpload check: %s@%d workers: skysr_search_total moved %v for %d searches",
				r.Dataset, r.Workers, r.SearchDelta, r.OK)
		}
		if r.RouteOKDelta != float64(r.OK) || r.RouteObsDelta != float64(r.OK) {
			return fmt.Errorf("httpload check: %s@%d workers: route counters moved (%v, %v) for %d requests",
				r.Dataset, r.Workers, r.RouteOKDelta, r.RouteObsDelta, r.OK)
		}
		if r.TraceDelta != float64(r.OK) {
			return fmt.Errorf("httpload check: %s@%d workers: skysr_trace_kept_total moved %v for %d sampled requests",
				r.Dataset, r.Workers, r.TraceDelta, r.OK)
		}
		if !r.TracesOK || r.TracesListed == 0 {
			return fmt.Errorf("httpload check: %s@%d workers: flight recorder held no parseable traces after the load",
				r.Dataset, r.Workers)
		}
		if r.Workers == 1 {
			single[r.Dataset] = r.QPS
		} else if r.QPS > bestMulti[r.Dataset] {
			bestMulti[r.Dataset] = r.QPS
		}
	}
	for ds, s := range single {
		if best, ok := bestMulti[ds]; ok && best < 0.9*s {
			return fmt.Errorf("httpload check: %s: best multi-worker qps %.0f below 0.9× single-worker %.0f — concurrency regressed", ds, best, s)
		}
	}
	if len(overhead) == 0 {
		return fmt.Errorf("httpload check: no overhead rows")
	}
	for _, o := range overhead {
		if o.Ratio > maxOverheadRatio {
			return fmt.Errorf("httpload check: %s: instrumentation overhead ratio %.3f exceeds %.2f",
				o.Dataset, o.Ratio, maxOverheadRatio)
		}
	}
	return nil
}
