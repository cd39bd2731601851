package serve

// HTTP-tier observability: every endpoint is wrapped in an instrument
// middleware that counts requests by response-code class and observes
// wall latency into a per-endpoint histogram (p50/p99 are exported as
// sampled gauges over the same histogram, so a scraper that cannot
// compute histogram_quantile still gets the summary). The admission
// gate, drain flag and failure counters the tier already tracks for
// /api/epoch are exported as gauge/counter functions sampled at scrape
// time — the serving hot path pays one histogram observe and one counter
// increment per request, nothing more. GET /metrics itself bypasses the
// admission queue (monitoring a saturated tier is the whole point) but
// is instrumented like any other endpoint; the opt-in /debug/pprof/*
// handlers are the only uninstrumented routes, since profile pulls are
// operator actions, not traffic.

import (
	"context"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"time"

	"skysr/internal/metrics"
	"skysr/internal/trace"
)

// httpEndpoints names every instrumented route; registerRoutes and the
// tests both iterate it, so an endpoint cannot ship without its series.
var httpEndpoints = []string{
	"index", "categories", "route", "batch", "update", "epoch",
	"survey_post", "survey_get", "metrics", "traces_list", "traces_get",
}

// RequiredMetricNames are the families every /metrics scrape of a
// server with tracing on carries. Every scrape the serve tests take, the
// ones pulled mid-storm included, and the CI scrape smoke, which greps
// for the same list, assert them, so a renamed family cannot slip out
// silently.
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
	"skysr_trace_recorder_len",
}

// tracedEndpoints names the endpoints whose requests get a per-request
// trace: the heavy ones, where "why was this slow" is a real question.
// The cheap read-only endpoints stay untraced — a trace of a map lookup
// is noise in the flight recorder's bounded ring.
var tracedEndpoints = map[string]bool{"route": true, "batch": true, "update": true}

// codeClasses are the response-code classes the request counter is
// partitioned by. 1xx is folded into 2xx: the tier never writes one, and
// a fixed label set keeps /metrics output stable for the CI smoke grep.
var codeClasses = [4]string{"2xx", "3xx", "4xx", "5xx"}

// classOf maps a status code onto its codeClasses index.
func classOf(code int) int {
	switch {
	case code < 300:
		return 0
	case code < 400:
		return 1
	case code < 500:
		return 2
	default:
		return 3
	}
}

// endpointMetrics is one endpoint's instrumentation: a request counter
// per code class and a latency histogram.
type endpointMetrics struct {
	byClass [len(codeClasses)]*metrics.Counter
	latency *metrics.Histogram
}

// httpMetrics holds the per-endpoint series, keyed by the names in
// httpEndpoints.
type httpMetrics struct {
	endpoints map[string]*endpointMetrics
}

// newHTTPMetrics registers the per-endpoint families on reg. QPS is the
// scrape-side rate of skysr_http_requests_total; the server keeps no
// windowed rate state of its own.
func newHTTPMetrics(reg *metrics.Registry) *httpMetrics {
	hm := &httpMetrics{endpoints: make(map[string]*endpointMetrics, len(httpEndpoints))}
	for _, ep := range httpEndpoints {
		em := &endpointMetrics{
			latency: reg.Histogram("skysr_http_request_seconds",
				"HTTP request wall time by endpoint, admission queueing included.",
				metrics.DefTimeBuckets, metrics.L("endpoint", ep)),
		}
		for i, class := range codeClasses {
			em.byClass[i] = reg.Counter("skysr_http_requests_total",
				"HTTP requests served, by endpoint and response-code class (rate() this for QPS).",
				metrics.L("endpoint", ep), metrics.L("code", class))
		}
		lat := em.latency
		reg.GaugeFunc("skysr_http_request_p50_seconds",
			"Estimated median request latency by endpoint, sampled at scrape time from the request histogram.",
			func() float64 { return lat.Quantile(0.5) }, metrics.L("endpoint", ep))
		reg.GaugeFunc("skysr_http_request_p99_seconds",
			"Estimated 99th-percentile request latency by endpoint, sampled at scrape time from the request histogram.",
			func() float64 { return lat.Quantile(0.99) }, metrics.L("endpoint", ep))
		hm.endpoints[ep] = em
	}
	return hm
}

// registerServerMetrics exports the admission gate, drain flag and
// failure counters. The counters stay atomic.Int64 fields on Server —
// /api/epoch and the tests read them directly — and /metrics samples the
// same atomics through counter functions, so the two views cannot drift.
func (s *Server) registerServerMetrics(reg *metrics.Registry) {
	reg.GaugeFunc("skysr_http_in_flight",
		"Heavy requests (route, batch, update) holding an execution slot right now.",
		func() float64 { return float64(s.adm.inFlightCount()) })
	reg.GaugeFunc("skysr_http_queue_depth",
		"Heavy requests waiting for an execution slot right now.",
		func() float64 { return float64(s.adm.queueDepth()) })
	reg.GaugeFunc("skysr_http_max_concurrent",
		"Configured bound on heavy requests executing at once.",
		func() float64 { return float64(s.adm.maxConcurrent()) })
	reg.GaugeFunc("skysr_http_max_queue",
		"Configured bound on heavy requests waiting for a slot.",
		func() float64 { return float64(s.adm.maxQueue) })
	reg.GaugeFunc("skysr_http_draining",
		"1 while the lifecycle drain is rejecting new heavy work, else 0.",
		func() float64 {
			if s.draining.Load() {
				return 1
			}
			return 0
		})
	reg.CounterFunc("skysr_http_rejected_total",
		"Admission rejections: 429s from a full queue plus 503s while draining or abandoned in the queue.",
		func() float64 { return float64(s.rejected.Load()) })
	reg.CounterFunc("skysr_http_panics_total",
		"Handler panics converted to JSON 500s by the recovery middleware.",
		func() float64 { return float64(s.panics.Load()) })
	reg.CounterFunc("skysr_http_timeouts_total",
		"Searches that hit their deadline and were answered with 504.",
		func() float64 { return float64(s.timeouts.Load()) })
}

// statusWriter captures the response status code for the instrument
// middleware. A handler that never calls WriteHeader implies 200 on the
// first Write, matching net/http.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (sw *statusWriter) WriteHeader(code int) {
	if sw.status == 0 {
		sw.status = code
	}
	sw.ResponseWriter.WriteHeader(code)
}

func (sw *statusWriter) Write(b []byte) (int, error) {
	if sw.status == 0 {
		sw.status = http.StatusOK
	}
	return sw.ResponseWriter.Write(b)
}

// instrument wraps one endpoint's handler (admission gate included, so
// queue wait shows up in the latency histogram and rejections in the 4xx
// and 5xx classes) with request counting, latency observation and a
// request-scoped logger that handlers reach through s.logger. A panicking
// handler is counted by skysr_http_panics_total instead — the recovery
// middleware sits outside this one, and a request that never completed
// has no meaningful latency or status to record.
func (s *Server) instrument(endpoint string, next http.HandlerFunc) http.HandlerFunc {
	em := s.hm.endpoints[endpoint]
	traced := s.rec != nil && tracedEndpoints[endpoint]
	el := s.log.With("endpoint", endpoint)
	return func(w http.ResponseWriter, r *http.Request) {
		began := time.Now()
		sw := &statusWriter{ResponseWriter: w}
		rl := el
		ctx := r.Context()
		if traced {
			// Every traced request carries a trace: the span tree is built
			// by the search core, the tail-sampling decision happens only
			// at completion (finishTrace), and the trace ID is stamped into
			// every log line the request emits. The deferred finish runs
			// after the normal-path metrics below, and — unlike them — also
			// on panic: a request that never completed is exactly the kind
			// the flight recorder must keep.
			tr := trace.New(endpoint)
			rl = rl.With("trace", tr.ID().String())
			ctx = trace.NewContext(ctx, tr)
			defer func() {
				if p := recover(); p != nil {
					tr.SetStatus(trace.StatusPanic, fmt.Sprint(p))
					s.finishTrace(tr, em, rl)
					panic(p) // recoverPanics converts it to a JSON 500
				}
				if code := sw.status; code >= 400 && tr.Status() == trace.StatusOK {
					tr.SetStatus(trace.StatusError, http.StatusText(code))
				}
				s.finishTrace(tr, em, rl)
			}()
		}
		next(sw, r.WithContext(withLogger(ctx, rl)))
		code := sw.status
		if code == 0 {
			code = http.StatusOK
		}
		em.byClass[classOf(code)].Inc()
		em.latency.Observe(time.Since(began).Seconds())
		// The guard keeps the disabled path from boxing four arguments.
		if rl.Enabled(ctx, slog.LevelDebug) {
			rl.Debug("request served", "method", r.Method, "path", r.URL.Path,
				"status", code, "elapsed", time.Since(began))
		}
	}
}

type loggerKey struct{}

// withLogger returns ctx carrying the request-scoped logger l.
func withLogger(ctx context.Context, l *slog.Logger) context.Context {
	return context.WithValue(ctx, loggerKey{}, l)
}

// logger returns the request-scoped logger instrument put in ctx, or the
// server's own logger for a context that has none.
func (s *Server) logger(ctx context.Context) *slog.Logger {
	if l, ok := ctx.Value(loggerKey{}).(*slog.Logger); ok {
		return l
	}
	return s.log
}

// finishTrace completes one request's trace: it seals the root span,
// offers the trace to the flight recorder (tail sampling: errors and slow
// queries always kept, the rest probabilistically), and emits the
// structured slow-query warning with a latency exemplar pinned to the
// bucket the request landed in.
func (s *Server) finishTrace(tr *trace.Trace, em *endpointMetrics, rl *slog.Logger) {
	tr.Finish()
	dur := tr.Duration()
	reason, kept := s.rec.Offer(tr)
	if slow := s.rec.SlowThreshold(); slow > 0 && dur >= slow {
		em.latency.Exemplar(dur.Seconds(), "trace_id", tr.ID().String())
		rl.Warn("slow query", "elapsed", dur, "threshold", slow,
			"status", tr.Status().String(), "kept", kept, "reason", reason)
	}
}

// handleMetrics serves the Prometheus text exposition of the server's
// registry. It bypasses the admission queue: scraping must keep working
// while the tier is saturated or draining.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	s.reg.ServeHTTP(w, r)
}

// registerPprof mounts the net/http/pprof handlers (opt-in via
// Config.EnablePprof; the skysr-serve -pprof flag). Index dispatches the
// named runtime profiles (heap, goroutine, block, mutex, ...) itself.
func registerPprof(mux *http.ServeMux) {
	mux.HandleFunc("GET /debug/pprof/", pprof.Index)
	mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
}
