package main

// The soak gate: a fault-injected storm against the hardened HTTP
// serving tier (internal/serve). Concurrent clients mix plain route
// queries, aggressively deadlined queries (timeout_ms=1), requests
// cancelled client-side mid-flight, batches, and live weight updates,
// while fault hooks (internal/faults) delay every m-Dijkstra run and
// panic inside the BSSR pop loop. After the storm quiesces the scenario
// asserts full recovery: no leaked goroutines, exactly one live
// snapshot, and answers identical to a fresh engine rebuilt from the
// mutated dataset — the serving tier's robustness contract.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/url"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"skysr"
	"skysr/internal/bench"
	"skysr/internal/faults"
	"skysr/internal/logx"
	"skysr/internal/serve"
)

// soakQueryTimeout is the server-side compute budget per query; generous
// enough that only the timeout_ms=1 requests are meant to trip it.
const soakQueryTimeout = 5 * time.Second

// soakResult is what the soak scenario measured on one dataset. The
// storm's clients bump the outcome counters concurrently; the rest is
// filled in after the storm.
type soakResult struct {
	ok          atomic.Int64 // 200s
	timeouts    atomic.Int64 // 504s (query deadline hit)
	rejected    atomic.Int64 // 429s (admission queue full)
	unavailable atomic.Int64 // 503s (cancelled / draining)
	panics      atomic.Int64 // 500s (injected panics, recovered)
	cancels     atomic.Int64 // requests cancelled client-side
	updates     atomic.Int64 // live updates applied
	other       atomic.Int64 // any response not counted above

	// Retained traces by typed status, scraped from /api/debug/traces
	// before the server shut down.
	tracedDeadlines, tracedCancels, tracedPanics int

	// Recovery evidence, measured after the storm quiesced.
	leaked     int // goroutines beyond the pre-storm baseline
	snapshots  int // live snapshots
	identical  bool
	durationMS float64
}

// soakRow holds one dataset's soak result to its gates: the tier leaked
// no goroutine and no snapshot pin, its answers match a fresh engine,
// some traffic succeeded, and the faults bit (else the storm proved
// nothing). Every failure class the clients saw must also have left a
// trace with the matching typed status in the flight recorder.
func soakRow(dataset string, m *soakResult) bench.Row {
	ok, timeouts, rejected := m.ok.Load(), m.timeouts.Load(), m.rejected.Load()
	panics, cancels := m.panics.Load(), m.cancels.Load()
	r := bench.Row{Dataset: dataset, Scenario: "soak"}
	r.Count("workers", soakWorkers)
	r.Count("ops", soakOps)
	r.Count("ok", float64(ok))
	r.Count("timeouts", float64(timeouts))
	r.Count("rejected", float64(rejected))
	r.Count("unavailable", float64(m.unavailable.Load()))
	r.Count("panics", float64(panics))
	r.Count("cancels", float64(cancels))
	r.Count("updates", float64(m.updates.Load()))
	r.Count("other", float64(m.other.Load()))
	r.Count("traced_deadlines", float64(m.tracedDeadlines))
	r.Count("traced_cancels", float64(m.tracedCancels))
	r.Count("traced_panics", float64(m.tracedPanics))
	r.Count("leaked", float64(m.leaked))
	r.Count("snapshots", float64(m.snapshots))
	r.Count("ms", m.durationMS)
	r.Gate("leaked=0", m.leaked == 0)
	r.Gate("snapshots=1", m.snapshots == 1)
	r.Gate("identical", m.identical)
	r.Gate("ok>0", ok > 0)
	r.Gate("faults>0", timeouts+rejected+panics+cancels > 0)
	r.Gate("deadlines-traced", timeouts == 0 || m.tracedDeadlines > 0)
	r.Gate("panics-traced", panics == 0 || m.tracedPanics > 0)
	r.Gate("cancels-traced", cancels == 0 || m.tracedCancels > 0)
	return r
}

func soakDataset(cfg bench.Config, name string) ([]bench.Row, error) {
	eng, err := skysr.Generate(name, cfg.Scale, cfg.Seed)
	if err != nil {
		return nil, err
	}
	opts := skysr.SearchOptions{UseCategoryIndex: true}
	queries, vias, err := soakWorkload(eng, 24, cfg.Seed+811)
	if err != nil {
		return nil, err
	}
	m := new(soakResult)

	// Baseline before the server exists: everything started below must be
	// gone again before the leak count is taken.
	baseline := runtime.NumGoroutine()

	srv := serve.New(eng, serve.Config{
		BaseOpts:     opts,
		QueryTimeout: soakQueryTimeout,
		// Bounds tighter than the worker count so the admission gate is
		// genuinely contended (bursts queue; under heavier overload they
		// spill into 429s — the deterministic 429 path is unit-tested in
		// internal/serve).
		MaxConcurrent: 4,
		MaxQueue:      4,
		// The serving tier logs every recovered panic with a stack dump
		// and every applied update; during an intentional fault storm that
		// is pure noise.
		Logger: logx.Discard(),
		// Tail sampling only: the fault hooks make every query artificially
		// slow, so the slow-query rule and random sampling are both off —
		// everything the recorder retains is a genuine failure, and the
		// post-storm scrape can attribute each to its typed status. The
		// capacity comfortably exceeds the storm's op count so no failure
		// trace is evicted before the scrape.
		SlowQuery:     -1,
		TraceSample:   -1,
		TraceCapacity: 8192,
	})
	ts := httptest.NewServer(srv.Handler())
	client := ts.Client()

	// Fault hooks: every m-Dijkstra run pays a delay (so the deadlined
	// requests deterministically trip their 1ms budget at the first
	// checkpoint after the sleep), and the BSSR pop loop occasionally
	// panics (proving the recovery middleware under load).
	restoreSleep := faults.Set(faults.MDijkstraRun, func(int64) { time.Sleep(2 * time.Millisecond) })
	restorePanic := faults.Set(faults.RoutePop, func(n int64) {
		if n%173 == 0 {
			panic("soak: injected pop-loop fault")
		}
	})

	began := time.Now()
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < soakWorkers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(cfg.Seed + int64(w)*997))
			for {
				i := int(next.Add(1)) - 1
				if i >= soakOps {
					return
				}
				// Jittered pacing: a zero-think-time loop degenerates into
				// all-429s the moment the queue fills; real clients retry
				// with backoff, and the storm should see every outcome.
				time.Sleep(time.Duration(rng.Intn(2000)) * time.Microsecond)
				via := vias[i%len(vias)]
				switch i % 10 {
				case 7:
					soakClientCancel(client, ts.URL, via, m)
				case 8:
					soakBatch(client, ts.URL, vias, i, m)
				case 9:
					soakUpdate(client, ts.URL, eng, rng, m)
				case 5, 6:
					soakRoute(client, ts.URL, via, 1, m)
				default:
					soakRoute(client, ts.URL, via, 0, m)
				}
			}
		}(w)
	}
	wg.Wait()
	restoreSleep()
	restorePanic()
	soakScrapeTraces(client, ts.URL, m)
	ts.Close()
	client.CloseIdleConnections()
	m.durationMS = float64(time.Since(began).Microseconds()) / 1000

	// Recovery evidence: the storm's goroutines must all be gone, the
	// engine must hold exactly its one live snapshot (every timed-out,
	// cancelled and panicked query released its pin), and the answers must
	// match a fresh engine built from the mutated dataset.
	m.leaked = settleGoroutines(baseline)
	m.snapshots = eng.LiveSnapshots()
	if m.identical, err = matchesFreshEngine(eng, queries, opts); err != nil {
		return nil, err
	}
	return []bench.Row{soakRow(name, m)}, nil
}

// matchesFreshEngine replays the workload against an engine rebuilt from
// the mutated dataset's serialization and compares answers exactly.
func matchesFreshEngine(eng *skysr.Engine, queries []skysr.Query, opts skysr.SearchOptions) (bool, error) {
	var buf bytes.Buffer
	if err := eng.Write(&buf); err != nil {
		return false, err
	}
	fresh, err := skysr.Read(&buf)
	if err != nil {
		return false, err
	}
	for _, q := range queries {
		got, err := eng.SearchWith(q, opts)
		if err != nil {
			return false, err
		}
		want, err := fresh.SearchWith(q, opts)
		if err != nil {
			return false, err
		}
		if len(got.Routes) != len(want.Routes) {
			return false, nil
		}
		for i := range got.Routes {
			a, b := got.Routes[i], want.Routes[i]
			if a.LengthScore != b.LengthScore || a.SemanticScore != b.SemanticScore {
				return false, nil
			}
			if len(a.PoIs) != len(b.PoIs) {
				return false, nil
			}
			for j := range a.PoIs {
				if a.PoIs[j] != b.PoIs[j] {
					return false, nil
				}
			}
		}
	}
	return true, nil
}

// soakScrapeTraces pulls the flight recorder while the server is still
// up and tallies the retained traces by typed status. The soak server
// runs with sampling and the slow-query rule off, so everything here was
// tail-kept as a failure: the storm's deadline hits, client walk-aways
// and recovered panics must each have left their annotation.
func soakScrapeTraces(client *http.Client, base string, m *soakResult) {
	resp, err := client.Get(base + "/api/debug/traces")
	if err != nil {
		return
	}
	data, rerr := io.ReadAll(resp.Body)
	resp.Body.Close()
	if rerr != nil || resp.StatusCode != http.StatusOK {
		return
	}
	var list struct {
		Traces []struct {
			Status string `json:"status"`
		} `json:"traces"`
	}
	if json.Unmarshal(data, &list) != nil {
		return
	}
	for _, t := range list.Traces {
		switch t.Status {
		case "deadline":
			m.tracedDeadlines++
		case "cancelled":
			m.tracedCancels++
		case "panic":
			m.tracedPanics++
		}
	}
}

// soakWorkload builds n three-category queries plus the category-name
// lists the HTTP requests are assembled from (the public Workload returns
// opaque Requirements, so the soak draws its own from the leaf set).
func soakWorkload(eng *skysr.Engine, n int, seed int64) ([]skysr.Query, [][]string, error) {
	leaves := eng.LeafCategories()
	if len(leaves) == 0 {
		return nil, nil, fmt.Errorf("soak: dataset has no leaf categories")
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

// soakRoute issues one GET /api/route and tallies the outcome.
func soakRoute(client *http.Client, base string, via []string, timeoutMS int, m *soakResult) {
	u := base + "/api/route?start=0&via=" + url.QueryEscape(strings.Join(via, ","))
	if timeoutMS > 0 {
		u += "&timeout_ms=" + strconv.Itoa(timeoutMS)
	}
	resp, err := client.Get(u)
	if err != nil {
		m.other.Add(1)
		return
	}
	drainAndCount(resp, m)
}

// soakClientCancel issues a route request whose context dies after 1ms —
// the client walks away mid-search, and the server must unwind the search
// through the request context without leaking anything.
func soakClientCancel(client *http.Client, base string, via []string, m *soakResult) {
	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	u := base + "/api/route?start=0&via=" + url.QueryEscape(strings.Join(via, ","))
	req, err := http.NewRequestWithContext(ctx, "GET", u, nil)
	if err != nil {
		m.other.Add(1)
		return
	}
	resp, err := client.Do(req)
	if err != nil {
		m.cancels.Add(1)
		return
	}
	drainAndCount(resp, m)
}

// soakBatch issues one POST /api/batch of three workload queries.
func soakBatch(client *http.Client, base string, vias [][]string, i int, m *soakResult) {
	type bq struct {
		Start int      `json:"start"`
		Via   []string `json:"via"`
	}
	body := struct {
		Workers int  `json:"workers"`
		Queries []bq `json:"queries"`
	}{Workers: 2}
	for j := 0; j < 3; j++ {
		body.Queries = append(body.Queries, bq{Start: 0, Via: vias[(i+j)%len(vias)]})
	}
	data, _ := json.Marshal(body)
	resp, err := client.Post(base+"/api/batch", "application/json", bytes.NewReader(data))
	if err != nil {
		m.other.Add(1)
		return
	}
	drainAndCount(resp, m)
}

// soakUpdate applies one congestion-style weight bump through the update
// endpoint, mutating the dataset while queries are in flight.
func soakUpdate(client *http.Client, base string, eng *skysr.Engine, rng *rand.Rand, m *soakResult) {
	for tries := 0; tries < 20; tries++ {
		u := int32(rng.Intn(eng.NumVertices()))
		ts, ws := eng.Neighbors(u)
		if len(ts) == 0 {
			continue
		}
		i := rng.Intn(len(ts))
		body := fmt.Sprintf(`{"set_weights":[{"u":%d,"v":%d,"w":%g}]}`, u, ts[i], ws[i]*(1.05+rng.Float64()*0.3))
		resp, err := client.Post(base+"/api/update", "application/json", strings.NewReader(body))
		if err != nil {
			m.other.Add(1)
			return
		}
		if resp.StatusCode == http.StatusOK {
			m.updates.Add(1)
			drainBody(resp)
			return
		}
		// An admission rejection is the backpressure working as designed;
		// back off and retry so the storm still mutates the dataset (the
		// final identity check is vacuous on a never-updated engine).
		if resp.StatusCode == http.StatusTooManyRequests || resp.StatusCode == http.StatusServiceUnavailable {
			drainAndCount(resp, m)
			time.Sleep(2 * time.Millisecond)
			continue
		}
		drainAndCount(resp, m)
		return
	}
	m.other.Add(1)
}

// drainAndCount consumes the response body and tallies the status.
func drainAndCount(resp *http.Response, m *soakResult) {
	drainBody(resp)
	switch resp.StatusCode {
	case http.StatusOK:
		m.ok.Add(1)
	case http.StatusGatewayTimeout:
		m.timeouts.Add(1)
	case http.StatusTooManyRequests:
		m.rejected.Add(1)
	case http.StatusServiceUnavailable:
		m.unavailable.Add(1)
	case http.StatusInternalServerError:
		m.panics.Add(1)
	default:
		m.other.Add(1)
	}
}

func drainBody(resp *http.Response) {
	buf := make([]byte, 4096)
	for {
		if _, err := resp.Body.Read(buf); err != nil {
			break
		}
	}
	resp.Body.Close()
}

// settleGoroutines waits for the storm's goroutines to exit and returns
// how many remained beyond the pre-storm baseline.
func settleGoroutines(baseline int) int {
	deadline := time.Now().Add(5 * time.Second)
	for {
		n := runtime.NumGoroutine()
		if n <= baseline {
			return 0
		}
		if time.Now().After(deadline) {
			return n - baseline
		}
		time.Sleep(10 * time.Millisecond)
	}
}
