package main

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"skysr"
)

// budget ends a measured phase: after ops requests when ops > 0 (a replay
// of another pass), otherwise once seconds have passed and at least minOps
// requests ran — the count the reported percentiles need. hardStop bounds
// a machine too slow to reach minOps; the percentile rule then refuses the
// run instead of reporting a tail from too few samples.
type budget struct {
	seconds float64
	minOps  int
	ops     int
}

func (b budget) done(n int, elapsed time.Duration) bool {
	if b.ops > 0 {
		return n >= b.ops
	}
	if elapsed >= hardStop(b.seconds) {
		return true
	}
	return n >= b.minOps && elapsed.Seconds() >= b.seconds
}

func hardStop(seconds float64) time.Duration {
	return time.Duration((3*seconds + 30) * float64(time.Second))
}

// pass is one measured phase of a workload and everything the layers
// reported during it.
type pass struct {
	mu        sync.Mutex
	latency   []time.Duration // successful measured requests
	lag       []time.Duration // open loop: send time minus due time
	ops       int             // measured requests issued
	wall      time.Duration   // measured phase
	queries   int             // batch-nyc: queries inside the measured batches
	tputOps   int             // queries behind throughput_qps
	tputWall  time.Duration
	attempted int
	failed    int
	errs      []string
	mem       runtime.MemStats // delta over the measured phase

	engine engineAgg
	core   coreAgg
	serve  serveAgg
	upd    updAgg
}

func newPass() *pass { return &pass{} }

// record books one request outcome.
func (p *pass) record(d time.Duration, err error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.attempted++
	if err != nil {
		p.failed++
		if len(p.errs) < 5 {
			p.errs = append(p.errs, err.Error())
		}
		return
	}
	p.latency = append(p.latency, d)
}

// warm runs requests [0, n) untimed, then clears what they aggregated;
// their failures still count.
func (p *pass) warm(n int, op func(i int) (time.Duration, error)) {
	for i := 0; i < n; i++ {
		d, err := op(i)
		p.record(d, err)
	}
	p.latency = nil
	p.engine, p.core, p.serve, p.upd = engineAgg{}, coreAgg{}, serveAgg{}, updAgg{}
}

// measure runs a closed loop: clients callers each issue requests first,
// first+1, ... back to back until b is spent. op returns the latency of
// the request it issued.
func (p *pass) measure(b budget, first, clients int, op func(i int) (time.Duration, error)) {
	var before runtime.MemStats
	runtime.ReadMemStats(&before)
	var (
		mu   sync.Mutex
		next = first
		wg   sync.WaitGroup
	)
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				if b.done(next-first, time.Since(start)) {
					mu.Unlock()
					return
				}
				i := next
				next++
				mu.Unlock()
				d, err := op(i)
				p.record(d, err)
			}
		}()
	}
	wg.Wait()
	p.wall = time.Since(start)
	p.ops = next - first
	p.tputOps, p.tputWall = p.ops, p.wall
	if p.queries > 0 {
		p.tputOps = p.queries
	}
	p.mem = memDelta(before)
}

// memDelta returns the allocation and GC counters accrued since before.
func memDelta(before runtime.MemStats) runtime.MemStats {
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	return runtime.MemStats{
		TotalAlloc:   after.TotalAlloc - before.TotalAlloc,
		NumGC:        after.NumGC - before.NumGC,
		PauseTotalNs: after.PauseTotalNs - before.PauseTotalNs,
	}
}

// search issues plan query i through Engine.SearchWith with the
// deployment profile and books the engine's and the core's work.
func (p *pass) search(eng *skysr.Engine, plan *Plan, tr *tracer, i int) (time.Duration, error) {
	q, o := plan.query(i), plan.options(i)
	span := tr.begin("engine.search", &o)
	t0 := time.Now()
	ans, err := eng.SearchWith(q, o)
	d := time.Since(t0)
	tr.end(span)
	if err != nil {
		return d, err
	}
	p.engine.add(d, 1)
	p.core.add(ans)
	return d, nil
}

// update applies one live-update batch, timing it as its own request.
func (p *pass) update(eng *skysr.Engine, edits []PlanEdit, tr *tracer) error {
	b, err := updateBatch(eng, edits)
	if err != nil {
		return err
	}
	span := tr.begin("engine.update", nil)
	t0 := time.Now()
	res, err := eng.ApplyUpdates(b)
	d := time.Since(t0)
	tr.end(span)
	if err != nil {
		return fmt.Errorf("apply updates: %w", err)
	}
	p.upd.add(d, res)
	return nil
}

// engineAgg sums the wall time of engine calls, per query.
type engineAgg struct {
	mu      sync.Mutex
	wall    time.Duration
	queries int
}

func (a *engineAgg) add(d time.Duration, queries int) {
	a.mu.Lock()
	a.wall += d
	a.queries += queries
	a.mu.Unlock()
}

// coreCounters are the search core's work counters, summed over queries.
// Single-client workloads must produce the same sums traced and untraced.
type coreCounters struct {
	MDijkstraRuns, MDijkstraRequests, CacheHits, SharedCacheHits int64
	Settled, Popped, Enqueued                                    int64
	PrunedThreshold, PrunedBounds, PrunedIndex                   int64
	PeakQueueLen, TopKExtraPops, IndexCovered, Results           int64
}

// coreAgg folds Answer.Stats, read and never modified.
type coreAgg struct {
	mu                                  sync.Mutex
	n                                   int
	query, init, bounds, mdijkstra, leg time.Duration
	c                                   coreCounters
}

func (a *coreAgg) add(ans *skysr.Answer) {
	st := ans.Stats
	if st == nil {
		return
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	a.n++
	a.query += st.QueryTime
	a.init += st.InitTime
	a.bounds += st.BoundsTime
	a.mdijkstra += st.MDijkstraTime
	a.leg += st.DestLegTime
	c := &a.c
	c.MDijkstraRuns += st.MDijkstraRuns
	c.MDijkstraRequests += st.MDijkstraRequests
	c.CacheHits += st.CacheHits
	c.SharedCacheHits += st.SharedCacheHits
	c.Settled += st.SettledVertices
	c.Popped += st.RoutesPopped
	c.Enqueued += st.RoutesEnqueued
	c.PrunedThreshold += st.PrunedThreshold
	c.PrunedBounds += st.PrunedByBounds
	c.PrunedIndex += st.PrunedByIndex
	c.PeakQueueLen += int64(st.PeakQueueLen)
	c.TopKExtraPops += st.TopKExtraPops
	c.Results += int64(st.Results)
	if st.IndexCovered {
		c.IndexCovered++
	}
}

// serveAgg splits client latency into the engine's share (the response's
// elapsed_ms) and the serving tier's.
type serveAgg struct {
	mu                 sync.Mutex
	client, engine     time.Duration
	rejected, timeouts float64
}

func (a *serveAgg) add(client, engine time.Duration) {
	a.mu.Lock()
	a.client += client
	a.engine += engine
	a.mu.Unlock()
}

// updAgg summarizes the live-update batches of a phase.
type updAgg struct {
	latency                   []time.Duration
	carried, dirtied          int
	invalidated, graphRebuilt int
}

func (a *updAgg) add(d time.Duration, res *skysr.UpdateResult) {
	a.latency = append(a.latency, d)
	a.carried += res.RowsCarried
	a.dirtied += res.RowsDirtied
	if res.IndexInvalidated {
		a.invalidated++
	}
	if res.GraphRebuilt {
		a.graphRebuilt++
	}
}
