package main

// The httpload gate: concurrent clients drive the HTTP serving tier
// across worker counts while a scraper goroutine pulls GET /metrics
// mid-run. Every scrape must parse as valid Prometheus text and carry
// the required families, and the scraped counter deltas must equal the
// client-observed request counts exactly — end-to-end proof that the
// observability layer is both robust under fire and truthful. The load
// server samples every request trace (TraceSample=1), so the phase also
// checks the flight recorder: skysr_trace_kept_total must advance once
// per request, and /api/debug/traces must serve a parseable listing and
// a full span tree while still hot from the storm. The overhead phase
// interleaves the same queries through an instrumented engine (metrics
// fold + per-query trace + recorder Offer) and a bare one and reports
// the median-latency ratio the CI gate bounds at 1.05×.

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/url"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"skysr"
	"skysr/internal/bench"
	"skysr/internal/logx"
	"skysr/internal/metrics"
	"skysr/internal/serve"
	"skysr/internal/stats"
	"skysr/internal/trace"
)

// httpOverheadRounds is how many interleaved metered/unmetered rounds the
// overhead phase runs; the gate takes the best (smallest) ratio, so more
// rounds only make the measurement more robust to scheduler noise.
const httpOverheadRounds = 3

// maxOverheadRatio bounds the instrumentation cost: the instrumented
// engine's best-round median single-query latency, with metrics and
// per-query tracing on, within 5% of the bare engine's. Both layers fold
// from counters the search already keeps (one ObserveSearch call; span
// synthesis once per query at finish), so 5% is generous headroom for
// noise.
const maxOverheadRatio = 1.05

// loadPhase is what one (dataset, workers) load phase measured.
type loadPhase struct {
	workers    int
	ok, errors int64   // client-observed outcomes
	qps        float64 // ok requests per second
	p50, p99   float64 // client latency, ms
	durationMS float64

	// Mid-load /metrics scrapes; scrapesOK is false unless every one of
	// them parsed and carried serve.RequiredMetricNames.
	midScrapes int
	scrapesOK  bool

	// Scraped counter deltas across the phase: skysr_search_total, the
	// route endpoint's 2xx requests and latency observations, and
	// skysr_trace_kept_total.
	searchDelta, routeOKDelta, routeObsDelta, traceDelta float64

	// Flight-recorder evidence after the phase: the listing's length, and
	// whether it parsed and its newest trace's span tree has a search span.
	tracesListed int
	tracesOK     bool
}

// httpLoadResult is what the httpload scenario measured on one dataset:
// a load phase per httpLoadWorkers entry, in order, and the overhead
// phase's best round (µs medians of the bare and the instrumented engine).
type httpLoadResult struct {
	phases                    []loadPhase
	baseMicros, meteredMicros float64
	overheadRatio             float64
}

// httpLoadRows holds one dataset's httpload result to its gates. Every
// load phase must answer all its requests, scrape /metrics validly
// mid-load, move each scraped counter by exactly the client-observed
// count (the load server samples every trace, so skysr_trace_kept_total
// too), and leave a flight recorder that serves a usable span tree. The
// summary row gates throughput scaling (the best multi-worker qps within
// 0.9× of single-worker) and the instrumentation overhead.
func httpLoadRows(dataset string, m *httpLoadResult) []bench.Row {
	var rows []bench.Row
	var single, bestMulti float64
	for _, p := range m.phases {
		ok := float64(p.ok)
		r := bench.Row{Dataset: dataset, Scenario: fmt.Sprintf("workers=%d", p.workers)}
		r.Count("ops", httpLoadOps)
		r.Count("ok", ok)
		r.Count("errors", float64(p.errors))
		r.Count("qps", p.qps)
		r.Count("p50_ms", p.p50)
		r.Count("p99_ms", p.p99)
		r.Count("scrapes", float64(p.midScrapes))
		r.Count("search_delta", p.searchDelta)
		r.Count("route_delta", p.routeOKDelta)
		r.Count("traces", float64(p.tracesListed))
		r.Count("ms", p.durationMS)
		r.Gate("errors=0", p.errors == 0)
		r.Gate("ok=ops", p.ok == httpLoadOps)
		r.Gate("scrapes-ok", p.scrapesOK && p.midScrapes > 0)
		r.Gate("search-delta=ok", p.searchDelta == ok)
		r.Gate("route-2xx-delta=ok", p.routeOKDelta == ok)
		r.Gate("route-obs-delta=ok", p.routeObsDelta == ok)
		r.Gate("trace-kept-delta=ok", p.traceDelta == ok)
		r.Gate("traces-served", p.tracesOK && p.tracesListed > 0)
		rows = append(rows, r)
		if p.workers == 1 {
			single = p.qps
		} else {
			bestMulti = max(bestMulti, p.qps)
		}
	}
	r := bench.Row{Dataset: dataset, Scenario: "summary"}
	r.Count("single_qps", single)
	r.Count("best_multi_qps", bestMulti)
	r.Count("overhead_rounds", httpOverheadRounds)
	r.Count("base_us", m.baseMicros)
	r.Count("metered_us", m.meteredMicros)
	r.Count("overhead_ratio", m.overheadRatio)
	r.Gate("multi-qps≥0.9×single", bestMulti >= 0.9*single)
	r.Gate(fmt.Sprintf("overhead≤%.2f×", maxOverheadRatio), m.overheadRatio <= maxOverheadRatio)
	return append(rows, r)
}

func httpLoadDataset(cfg bench.Config, name string) ([]bench.Row, error) {
	m := new(httpLoadResult)
	if err := httpLoadPhases(cfg, name, m); err != nil {
		return nil, err
	}
	if err := httpOverhead(cfg, name, m); err != nil {
		return nil, err
	}
	return httpLoadRows(name, m), nil
}

// httpLoadPhases serves the dataset over HTTP and runs one load phase
// per httpLoadWorkers entry against it.
func httpLoadPhases(cfg bench.Config, name string, m *httpLoadResult) error {
	eng, err := skysr.Generate(name, cfg.Scale, cfg.Seed)
	if err != nil {
		return err
	}
	reg := metrics.New()
	srv := serve.New(eng, serve.Config{
		BaseOpts: skysr.SearchOptions{UseCategoryIndex: true},
		// Headroom above the widest worker count: the load phase measures
		// throughput and counter exactness, not admission behaviour (the
		// soak scenario owns contention), so nothing may queue or 429.
		MaxConcurrent: httpLoadWorkers[len(httpLoadWorkers)-1] + 4,
		Logger:        logx.Discard(),
		Registry:      reg,
		// Keep every trace: with sample=1 the kept counter must advance
		// exactly once per request, which the gate checks as a delta.
		TraceSample: 1,
	})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	client := ts.Client()
	defer client.CloseIdleConnections()

	_, vias, err := soakWorkload(eng, 24, cfg.Seed+811)
	if err != nil {
		return err
	}
	// Warmup: touch every via once so index rows and pooled searchers
	// exist before the first measured phase.
	for _, via := range vias {
		if _, _, err := httpLoadGet(client, ts.URL, via); err != nil {
			return fmt.Errorf("warmup: %w", err)
		}
	}

	for _, workers := range httpLoadWorkers {
		p, err := httpLoadPhase(client, ts.URL, vias, workers)
		if err != nil {
			return err
		}
		m.phases = append(m.phases, p)
	}
	return nil
}

// httpLoadPhase runs one (dataset, workers) measurement: scrape, load
// with a concurrent scraper, scrape again, compare deltas.
func httpLoadPhase(client *http.Client, base string, vias [][]string, workers int) (loadPhase, error) {
	p := loadPhase{workers: workers, scrapesOK: true}
	before, err := httpScrape(client, base)
	if err != nil {
		return p, fmt.Errorf("pre-load scrape: %w", err)
	}

	// The mid-run scraper: pull /metrics continuously while the load
	// runs; every pull must parse and carry the required families. Only
	// this goroutine writes midScrapes and scrapesOK until it has exited.
	stop := make(chan struct{})
	var scraperWG sync.WaitGroup
	scraperWG.Add(1)
	go func() {
		defer scraperWG.Done()
		for {
			select {
			case <-stop:
				return
			case <-time.After(2 * time.Millisecond):
			}
			samples, err := httpScrape(client, base)
			if err != nil || len(serve.MissingMetrics(samples)) > 0 {
				p.scrapesOK = false
				return
			}
			p.midScrapes++
		}
	}()

	var ok, errors atomic.Int64
	latencies := make([]float64, httpLoadOps) // microseconds, indexed by op
	var next atomic.Int64
	var wg sync.WaitGroup
	began := time.Now()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= httpLoadOps {
					return
				}
				status, micros, err := httpLoadGet(client, base, vias[i%len(vias)])
				if err != nil || status != http.StatusOK {
					errors.Add(1)
					continue
				}
				ok.Add(1)
				latencies[i] = micros
			}
		}()
	}
	wg.Wait()
	p.durationMS = float64(time.Since(began).Microseconds()) / 1000
	close(stop)
	scraperWG.Wait()

	after, err := httpScrape(client, base)
	if err != nil {
		return p, fmt.Errorf("post-load scrape: %w", err)
	}
	if missing := serve.MissingMetrics(after); len(missing) > 0 {
		return p, fmt.Errorf("post-load scrape missing %s", strings.Join(missing, ", "))
	}

	p.ok = ok.Load()
	p.errors = errors.Load()
	if p.durationMS > 0 {
		p.qps = float64(p.ok) / (p.durationMS / 1000)
	}
	var times []float64
	for _, l := range latencies {
		if l > 0 {
			times = append(times, l)
		}
	}
	if len(times) > 0 {
		sort.Float64s(times)
		p.p50 = stats.Percentile(times, 50) / 1000
		p.p99 = stats.Percentile(times, 99) / 1000
	}
	delta := func(key string) float64 { return after[key] - before[key] }
	p.searchDelta = delta("skysr_search_total")
	p.routeOKDelta = delta(`skysr_http_requests_total{endpoint="route",code="2xx"}`)
	p.routeObsDelta = delta(`skysr_http_request_seconds_count{endpoint="route"}`)
	p.traceDelta = delta("skysr_trace_kept_total")
	p.tracesListed, p.tracesOK = httpTracesCheck(client, base)
	return p, nil
}

// httpTracesCheck pulls the flight recorder after a load phase: the
// listing must parse and be non-empty, and the newest trace's full span
// tree must be servable by ID and carry a search span — proof the
// recorder holds usable explains under storm load, not just bytes.
func httpTracesCheck(client *http.Client, base string) (int, bool) {
	resp, err := client.Get(base + "/api/debug/traces")
	if err != nil {
		return 0, false
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		return 0, false
	}
	var list struct {
		Traces []struct {
			ID string `json:"id"`
		} `json:"traces"`
	}
	if err := json.Unmarshal(data, &list); err != nil || len(list.Traces) == 0 {
		return 0, false
	}
	resp, err = client.Get(base + "/api/debug/traces/" + list.Traces[0].ID)
	if err != nil {
		return len(list.Traces), false
	}
	data, err = io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		return len(list.Traces), false
	}
	var full trace.TraceJSON
	if err := json.Unmarshal(data, &full); err != nil {
		return len(list.Traces), false
	}
	for _, c := range full.Root.Children {
		if c.Name == "search" {
			return len(list.Traces), true
		}
	}
	return len(list.Traces), false
}

// httpLoadGet issues one GET /api/route and returns the status and the
// client-observed latency in microseconds.
func httpLoadGet(client *http.Client, base string, via []string) (int, float64, error) {
	u := base + "/api/route?start=0&via=" + url.QueryEscape(strings.Join(via, ","))
	began := time.Now()
	resp, err := client.Get(u)
	if err != nil {
		return 0, 0, err
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode, float64(time.Since(began).Nanoseconds()) / 1000, nil
}

// httpScrape pulls GET /metrics and parses the exposition.
func httpScrape(client *http.Client, base string) (map[string]float64, error) {
	resp, err := client.Get(base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("/metrics answered %d", resp.StatusCode)
	}
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	return metrics.ParseText(data)
}

// httpOverhead measures the instrumentation cost: two engines
// built identically, one carrying the full observability stack — metrics
// plus a per-query trace offered to a keep-everything flight recorder
// (the worst case) — answering the same queries interleaved (base,
// instrumented, base, ...) so scheduler drift hits both alike. The
// reported ratio is the best (smallest) across rounds — the round least
// polluted by noise bounds the true overhead from above.
func httpOverhead(cfg bench.Config, name string, m *httpLoadResult) error {
	engBase, err := skysr.Generate(name, cfg.Scale, cfg.Seed)
	if err != nil {
		return err
	}
	engMet, err := skysr.Generate(name, cfg.Scale, cfg.Seed)
	if err != nil {
		return err
	}
	engMet.EnableMetrics(metrics.New())
	rec := trace.NewRecorder(0, 0, 1) // sample=1: every query's trace is kept

	queries, _, err := soakWorkload(engBase, 24, cfg.Seed+811)
	if err != nil {
		return err
	}
	opts := skysr.SearchOptions{UseCategoryIndex: true}
	runBase := func(q skysr.Query) (float64, error) {
		began := time.Now()
		if _, err := engBase.SearchWith(q, opts); err != nil {
			return 0, err
		}
		return float64(time.Since(began).Nanoseconds()) / 1000, nil
	}
	runMet := func(q skysr.Query) (float64, error) {
		began := time.Now()
		tr := trace.New("route")
		o := opts
		o.Context = trace.NewContext(context.Background(), tr)
		if _, err := engMet.SearchWith(q, o); err != nil {
			return 0, err
		}
		tr.Finish()
		rec.Offer(tr)
		return float64(time.Since(began).Nanoseconds()) / 1000, nil
	}
	// Warmup both engines over the whole workload.
	for _, q := range queries {
		if _, err := runBase(q); err != nil {
			return err
		}
		if _, err := runMet(q); err != nil {
			return err
		}
	}

	n := max(cfg.Queries, len(queries))
	for round := 0; round < httpOverheadRounds; round++ {
		baseTimes := make([]float64, 0, n)
		metTimes := make([]float64, 0, n)
		rng := rand.New(rand.NewSource(cfg.Seed + int64(round)))
		for i := 0; i < n; i++ {
			q := queries[rng.Intn(len(queries))]
			// Alternate which engine goes first so warm-cache ordering
			// effects cancel across iterations.
			if i%2 == 0 {
				b, err := runBase(q)
				if err != nil {
					return err
				}
				met, err := runMet(q)
				if err != nil {
					return err
				}
				baseTimes, metTimes = append(baseTimes, b), append(metTimes, met)
			} else {
				met, err := runMet(q)
				if err != nil {
					return err
				}
				b, err := runBase(q)
				if err != nil {
					return err
				}
				baseTimes, metTimes = append(baseTimes, b), append(metTimes, met)
			}
		}
		base := stats.Summarize(baseTimes).Median
		met := stats.Summarize(metTimes).Median
		if base <= 0 {
			continue
		}
		ratio := met / base
		if m.overheadRatio == 0 || ratio < m.overheadRatio {
			m.overheadRatio, m.baseMicros, m.meteredMicros = ratio, base, met
		}
	}
	if m.overheadRatio == 0 {
		return fmt.Errorf("overhead: no measurable rounds")
	}
	return nil
}
