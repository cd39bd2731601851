package main

// The httpload gate: the two timing claims of the HTTP serving tier.
// Concurrent clients drive GET /api/route at each httpLoadWorkers count,
// and the summary row gates the best multi-worker throughput at 0.9× the
// single-worker throughput. The overhead phase interleaves the same
// queries through an instrumented engine (metrics fold + per-query trace
// + recorder Offer) and a bare one, and gates the median-latency ratio
// at 1.05×. What the tier must get right under such load (every request
// answered, exact counter deltas, valid mid-load scrapes, a servable
// flight recorder) is tested in internal/serve.

import (
	"context"
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

// httpLoadOps is how many route requests each (dataset, workers) load
// phase issues.
const httpLoadOps = 200

// httpLoadWorkers lists the concurrent client counts the load phases
// measure, ascending; the summary row compares the multi-worker phases
// with the first.
var httpLoadWorkers = []int{1, 4, 8}

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
	qps        float64 // requests per second
	p50, p99   float64 // client latency, ms
	durationMS float64
}

// httpLoadResult is what the httpload scenario measured on one dataset:
// a load phase per httpLoadWorkers entry, in order, and the overhead
// phase's best round (µs medians of the bare and the instrumented engine).
type httpLoadResult struct {
	phases                    []loadPhase
	baseMicros, meteredMicros float64
	overheadRatio             float64
}

// httpLoadRows reports one dataset's load phases and holds its summary
// row to the two gates: the best multi-worker qps within 0.9× of
// single-worker, and the instrumentation overhead.
func httpLoadRows(dataset string, m *httpLoadResult) []bench.Row {
	var rows []bench.Row
	var single, bestMulti float64
	for _, p := range m.phases {
		r := bench.Row{Dataset: dataset, Scenario: fmt.Sprintf("workers=%d", p.workers)}
		r.Count("ops", httpLoadOps)
		r.Count("qps", p.qps)
		r.Count("p50_ms", p.p50)
		r.Count("p99_ms", p.p99)
		r.Count("ms", p.durationMS)
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

// httpLoad runs the load and overhead phases on every configured dataset.
func httpLoad(h *bench.Harness) ([]bench.Row, error) {
	cfg := h.Config()
	var rows []bench.Row
	for _, name := range cfg.Datasets {
		m := new(httpLoadResult)
		if err := httpLoadPhases(cfg, name, m); err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		if err := httpOverhead(cfg, name, m); err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		rows = append(rows, httpLoadRows(name, m)...)
	}
	return rows, nil
}

// httpLoadPhases serves the dataset over HTTP and runs one load phase
// per httpLoadWorkers entry against it.
func httpLoadPhases(cfg bench.Config, name string, m *httpLoadResult) error {
	eng, err := skysr.Generate(name, cfg.Scale, cfg.Seed)
	if err != nil {
		return err
	}
	srv := serve.New(eng, serve.Config{
		BaseOpts: skysr.SearchOptions{UseCategoryIndex: true},
		// Headroom above the widest worker count: the load phases measure
		// throughput, not admission behaviour, so nothing may queue or 429.
		MaxConcurrent: httpLoadWorkers[len(httpLoadWorkers)-1] + 4,
		Logger:        logx.Discard(),
		// Keep every trace, the most the recorder can cost a request.
		TraceSample: 1,
	})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	client := ts.Client()
	defer client.CloseIdleConnections()

	_, vias, err := loadWorkload(eng, 24, cfg.Seed+811)
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

// httpLoadPhase runs one (dataset, workers) measurement. A failed
// request fails the phase: throughput over failing requests compares
// nothing.
func httpLoadPhase(client *http.Client, base string, vias [][]string, workers int) (loadPhase, error) {
	p := loadPhase{workers: workers}
	var failed atomic.Int64
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
					failed.Add(1)
					continue
				}
				latencies[i] = micros
			}
		}()
	}
	wg.Wait()
	p.durationMS = float64(time.Since(began).Microseconds()) / 1000
	if n := failed.Load(); n > 0 {
		return p, fmt.Errorf("workers=%d: %d of %d route requests failed", workers, n, httpLoadOps)
	}
	p.qps = httpLoadOps / (p.durationMS / 1000)
	sort.Float64s(latencies)
	p.p50 = stats.Percentile(latencies, 50) / 1000
	p.p99 = stats.Percentile(latencies, 99) / 1000
	return p, nil
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

// loadWorkload builds n three-category queries plus the category-name
// lists the HTTP requests are assembled from (the public Workload returns
// opaque Requirements, so the gate draws its own from the leaf set).
func loadWorkload(eng *skysr.Engine, n int, seed int64) ([]skysr.Query, [][]string, error) {
	leaves := eng.LeafCategories()
	if len(leaves) == 0 {
		return nil, nil, fmt.Errorf("httpload: dataset has no leaf categories")
	}
	rng := rand.New(rand.NewSource(seed))
	queries := make([]skysr.Query, n)
	vias := make([][]string, n)
	for i := range queries {
		via := make([]string, 3)
		q := skysr.Query{Start: int32(rng.Intn(eng.NumVertices()))}
		for j := range via {
			via[j] = leaves[rng.Intn(len(leaves))]
			q.Via = append(q.Via, skysr.Category(via[j]))
		}
		queries[i], vias[i] = q, via
	}
	return queries, vias, nil
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

	queries, _, err := loadWorkload(engBase, 24, cfg.Seed+811)
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
