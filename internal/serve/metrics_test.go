package serve

// Tests for the HTTP-tier observability: the /metrics endpoint itself,
// counter exactness over the HTTP path, concurrent scraping while the
// tier serves a mixed search/batch/update storm (run under -race in CI),
// the scrape-during-drain guarantee, and the opt-in pprof mount. Every
// storm-shaped test carries the goroutine-leak guard.

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"skysr"
	"skysr/internal/logx"
	"skysr/internal/metrics"
	"skysr/internal/trace"
)

// scrape pulls GET /metrics through the mux and parses the exposition;
// every call asserts the page is valid Prometheus text carrying all the
// required families.
func scrape(t *testing.T, mux http.Handler) map[string]float64 {
	t.Helper()
	rec := httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("/metrics status = %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("/metrics Content-Type = %q", ct)
	}
	samples, err := metrics.ParseText(rec.Body.Bytes())
	if err != nil {
		t.Fatalf("/metrics does not parse: %v\n%s", err, rec.Body.String())
	}
	if missing := missingMetrics(samples); len(missing) > 0 {
		t.Fatalf("/metrics missing families: %s", strings.Join(missing, ", "))
	}
	return samples
}

// missingMetrics returns the RequiredMetricNames absent from a parsed
// scrape (metrics.ParseText output, keyed "name" or "name{labels}").
func missingMetrics(samples map[string]float64) []string {
	var missing []string
next:
	for _, name := range RequiredMetricNames {
		for k := range samples {
			if k == name || strings.HasPrefix(k, name+"{") {
				continue next
			}
		}
		missing = append(missing, name)
	}
	return missing
}

const tableFourQuery = "/api/route?start=0&via=Asian+Restaurant,Arts+%26+Entertainment,Gift+Shop"

// TestMetricsEndpoint checks the scrape itself and counter exactness for
// a known request mix: N routes move the engine search counter, the
// route request counter and the route latency histogram by exactly N.
func TestMetricsEndpoint(t *testing.T) {
	_, mux := testServer(t)
	before := scrape(t, mux)

	const n = 3
	for i := 0; i < n; i++ {
		rec := httptest.NewRecorder()
		mux.ServeHTTP(rec, httptest.NewRequest("GET", tableFourQuery, nil))
		if rec.Code != http.StatusOK {
			t.Fatalf("route status = %d", rec.Code)
		}
	}
	// One rejected request lands in the 4xx class, not in 2xx.
	rec := httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest("GET", "/api/route?start=0&via=Nonexistent", nil))
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("bad route status = %d", rec.Code)
	}

	after := scrape(t, mux)
	delta := func(key string) float64 { return after[key] - before[key] }
	if d := delta("skysr_search_total"); d != n {
		t.Errorf("skysr_search_total moved %v for %d searches", d, n)
	}
	if d := delta(`skysr_http_requests_total{endpoint="route",code="2xx"}`); d != n {
		t.Errorf("route 2xx counter moved %v for %d requests", d, n)
	}
	if d := delta(`skysr_http_requests_total{endpoint="route",code="4xx"}`); d != 1 {
		t.Errorf("route 4xx counter moved %v for 1 bad request", d)
	}
	if d := delta(`skysr_http_request_seconds_count{endpoint="route"}`); d != n+1 {
		t.Errorf("route latency histogram observed %v requests, want %d", d, n+1)
	}
	// The scrape is itself instrumented: the before-scrape plus the
	// after-scrape's own in-progress request leave at least one count.
	if after[`skysr_http_requests_total{endpoint="metrics",code="2xx"}`] < 1 {
		t.Error("the metrics endpoint does not count its own scrapes")
	}
}

// TestMetricsEpochGauge pins the epoch export: an applied update moves
// skysr_epoch in the next scrape, so scrape-side epoch lag is computable.
func TestMetricsEpochGauge(t *testing.T) {
	_, mux := testServer(t)
	before := scrape(t, mux)

	rec := httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest("POST", "/api/update",
		strings.NewReader(`{"set_weights":[{"u":0,"v":1,"w":9}]}`)))
	if rec.Code != http.StatusOK {
		t.Fatalf("update status = %d: %s", rec.Code, rec.Body.String())
	}

	after := scrape(t, mux)
	if after["skysr_epoch"] != before["skysr_epoch"]+1 {
		t.Errorf("skysr_epoch = %v after one update, was %v", after["skysr_epoch"], before["skysr_epoch"])
	}
	if d := after[`skysr_http_requests_total{endpoint="update",code="2xx"}`] -
		before[`skysr_http_requests_total{endpoint="update",code="2xx"}`]; d != 1 {
		t.Errorf("update 2xx counter moved %v for 1 update", d)
	}
}

// TestMetricsConcurrentStorm hammers route, batch and update on a server
// that keeps every trace (sample 1) while a scraper loop pulls /metrics.
// The -race run proves the exposition and the flight recorder are safe
// against the serving hot path. Two execution slots for six clients keep
// the admission queue busy, and every request must answer 200. The
// final deltas prove exactness holds under concurrency: every route is
// one search, one 2xx and one latency observation, every batch is two
// searches, every update one epoch, and every request one kept trace.
// Afterwards the recorder, its ring wrapped many times over, must list a
// full ring whose every trace is servable by ID, route traces with their
// search span.
func TestMetricsConcurrentStorm(t *testing.T) {
	leakCheck(t)
	_, mux := tracedServer(t, Config{MaxConcurrent: 2})
	before := scrape(t, mux)

	const (
		workers    = 6
		opsPerKind = 30
		perKind    = workers * opsPerKind
	)
	batchBody := `{"queries":[
		{"start":0,"via":["Gift Shop"]},
		{"start":0,"via":["Asian Restaurant","Arts & Entertainment","Gift Shop"]}]}`

	var failed atomic.Int64
	var firstFailure atomic.Value
	do := func(req *http.Request) {
		rec := httptest.NewRecorder()
		mux.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			failed.Add(1)
			firstFailure.CompareAndSwap(nil, fmt.Sprintf("%s %s: %d %s", req.Method, req.URL.Path, rec.Code, rec.Body.String()))
		}
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < opsPerKind; i++ {
				do(httptest.NewRequest("GET", tableFourQuery, nil))
				do(httptest.NewRequest("POST", "/api/batch", strings.NewReader(batchBody)))
				// Flip one road weight back and forth; every update is
				// valid, so concurrent epochs only ever move forward.
				weight := "10"
				if (w+i)%2 == 1 {
					weight = "12"
				}
				do(httptest.NewRequest("POST", "/api/update",
					strings.NewReader(`{"set_weights":[{"u":0,"v":1,"w":`+weight+`}]}`)))
			}
		}()
	}

	// The scraper: pull /metrics continuously until the storm ends. Every
	// pull must parse and carry the full family set (scrape() fatals
	// otherwise — t.Fatalf in a goroutine is unsafe, so collect and check).
	stop := make(chan struct{})
	scrapes := 0
	var scraperWG sync.WaitGroup
	var scrapeErr error
	scraperWG.Add(1)
	go func() {
		defer scraperWG.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			rec := httptest.NewRecorder()
			mux.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
			samples, err := metrics.ParseText(rec.Body.Bytes())
			if err == nil {
				if missing := missingMetrics(samples); len(missing) > 0 {
					err = fmt.Errorf("missing families: %s", strings.Join(missing, ", "))
				}
			}
			if rec.Code != http.StatusOK || err != nil {
				scrapeErr = fmt.Errorf("status %d: %w", rec.Code, err)
				return
			}
			scrapes++
		}
	}()

	wg.Wait()
	close(stop)
	scraperWG.Wait()
	if n := failed.Load(); n > 0 {
		t.Fatalf("%d of %d requests did not answer 200; first: %s", n, 3*perKind, firstFailure.Load())
	}
	if scrapeErr != nil {
		t.Fatalf("mid-storm scrape failed: %v", scrapeErr)
	}
	if scrapes == 0 {
		t.Fatal("the scraper never completed a pull during the storm")
	}

	after := scrape(t, mux)
	for _, c := range []struct {
		key  string
		want float64
	}{
		{"skysr_search_total", 3 * perKind},
		{`skysr_http_requests_total{endpoint="route",code="2xx"}`, perKind},
		{`skysr_http_request_seconds_count{endpoint="route"}`, perKind},
		{`skysr_http_requests_total{endpoint="update",code="2xx"}`, perKind},
		{"skysr_epoch", perKind},
		{"skysr_trace_kept_total", 3 * perKind},
	} {
		if d := after[c.key] - before[c.key]; d != c.want {
			t.Errorf("%s moved %v, want exactly %v", c.key, d, c.want)
		}
	}

	out := listTraces(t, mux, "")
	if len(out.Traces) != out.Capacity || out.Capacity >= 3*perKind {
		t.Fatalf("listed %d traces with capacity %d after %d kept, want a full ring", len(out.Traces), out.Capacity, 3*perKind)
	}
	for _, sum := range out.Traces {
		rec := httptest.NewRecorder()
		mux.ServeHTTP(rec, httptest.NewRequest("GET", "/api/debug/traces/"+sum.ID, nil))
		if rec.Code != http.StatusOK {
			t.Fatalf("listed trace %s: status %d: %s", sum.ID, rec.Code, rec.Body.String())
		}
		var full trace.TraceJSON
		if err := json.Unmarshal(rec.Body.Bytes(), &full); err != nil {
			t.Fatal(err)
		}
		if full.ID != sum.ID || full.Status != "ok" {
			t.Errorf("trace %s served as %s with status %q", sum.ID, full.ID, full.Status)
		}
		if sum.Name == "route" && !slices.ContainsFunc(full.Root.Children, func(c trace.SpanJSON) bool { return c.Name == "search" }) {
			t.Errorf("route trace %s has no search span: %+v", sum.ID, full.Root.Children)
		}
	}
}

// TestMetricsScrapeWhileDraining pins the monitoring-over-drain contract:
// with the drain flag up, heavy endpoints answer 503 but /metrics keeps
// serving, reports draining=1, and agrees with the server's own
// rejection counter.
func TestMetricsScrapeWhileDraining(t *testing.T) {
	leakCheck(t)
	s, mux := testServer(t)
	s.draining.Store(true)

	rec := httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest("GET", tableFourQuery, nil))
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("route while draining = %d, want 503", rec.Code)
	}

	samples := scrape(t, mux)
	if samples["skysr_http_draining"] != 1 {
		t.Errorf("skysr_http_draining = %v while draining", samples["skysr_http_draining"])
	}
	if got, want := samples["skysr_http_rejected_total"], float64(s.rejected.Load()); got != want {
		t.Errorf("skysr_http_rejected_total = %v, server counted %v", got, want)
	}
	if samples[`skysr_http_requests_total{endpoint="route",code="5xx"}`] != 1 {
		t.Errorf("route 5xx = %v, want 1 (the drained request)",
			samples[`skysr_http_requests_total{endpoint="route",code="5xx"}`])
	}

	s.draining.Store(false)
	if got := scrape(t, mux)["skysr_http_draining"]; got != 0 {
		t.Errorf("skysr_http_draining = %v after drain flag cleared", got)
	}
}

// TestMetricsSharedAtomicsMatchEpochEndpoint pins the no-drift property:
// /api/epoch and /metrics sample the same atomics, so their counts agree.
func TestMetricsSharedAtomicsMatchEpochEndpoint(t *testing.T) {
	s, mux := testServer(t)
	s.rejected.Add(3)
	s.timeouts.Add(2)
	s.panics.Add(1)

	samples := scrape(t, mux)
	rec := httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest("GET", "/api/epoch", nil))
	var out struct {
		Serving struct {
			Rejected int64 `json:"rejected"`
			Timeouts int64 `json:"timeouts"`
			Panics   int64 `json:"panics"`
		} `json:"serving"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	ep := out.Serving
	if samples["skysr_http_rejected_total"] != float64(ep.Rejected) ||
		samples["skysr_http_timeouts_total"] != float64(ep.Timeouts) ||
		samples["skysr_http_panics_total"] != float64(ep.Panics) {
		t.Errorf("/metrics (%v, %v, %v) disagrees with /api/epoch (%d, %d, %d)",
			samples["skysr_http_rejected_total"], samples["skysr_http_timeouts_total"],
			samples["skysr_http_panics_total"], ep.Rejected, ep.Timeouts, ep.Panics)
	}
}

// TestPprofDisabledByDefault: the profiling surface must be opt-in.
func TestPprofDisabledByDefault(t *testing.T) {
	_, mux := testServer(t)
	rec := httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/pprof/", nil))
	if rec.Code != http.StatusNotFound {
		t.Errorf("pprof index without EnablePprof = %d, want 404", rec.Code)
	}
}

// TestPprofEnabled mounts the handlers and hits the fast ones (never
// /debug/pprof/profile — it blocks for its sampling window). The leak
// guard extends to the pprof surface.
func TestPprofEnabled(t *testing.T) {
	leakCheck(t)
	eng, _, _ := skysr.PaperExample()
	s := New(eng, Config{Logger: logx.Discard(), EnablePprof: true})
	mux := s.Handler()

	for _, path := range []string{"/debug/pprof/", "/debug/pprof/cmdline", "/debug/pprof/symbol"} {
		rec := httptest.NewRecorder()
		mux.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
		if rec.Code != http.StatusOK {
			t.Errorf("GET %s = %d, want 200", path, rec.Code)
		}
	}
	// The pprof mount does not displace /metrics.
	scrape(t, mux)
}

// TestCIScrapeSmokeListsRequiredMetrics keeps the CI live-server smoke's
// grep loop naming exactly RequiredMetricNames.
func TestCIScrapeSmokeListsRequiredMetrics(t *testing.T) {
	data, err := os.ReadFile("../../.github/workflows/ci.yml")
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		if list, ok := strings.CutPrefix(strings.TrimSpace(line), "for fam in "); ok {
			list, _, _ = strings.Cut(list, ";")
			if got := strings.Fields(list); !slices.Equal(got, RequiredMetricNames) {
				t.Fatalf("CI greps for %v, want RequiredMetricNames %v", got, RequiredMetricNames)
			}
			return
		}
	}
	t.Fatal("CI workflow has no metric family grep loop")
}
