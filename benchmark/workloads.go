package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"skysr"
)

// workload is one traffic mix: the city it runs on, how its plan is drawn
// from the seed, and how the child drives it. BENCHMARK.json and README.md
// give the reason each workload exists.
type workload struct {
	name   string
	preset string
	scale  float64
	// profiles is the fraction of edges given rush-hour travel-time
	// profiles before the dataset is saved.
	profiles float64
	// warmup requests run untimed before the measured phase.
	warmup int
	// oracleN bounds the plan prefix whose every tenth query the oracle
	// checks; it keeps the reference BSSR runs to about a second.
	oracleN int
	// overHTTP workloads reach the engine through the serving tier.
	overHTTP bool
	// concurrent workloads run several searches at once or share state
	// across queries, so their per-query work varies from run to run.
	concurrent bool
	plan       func(e *skysr.Engine, rng *rand.Rand, seed int64, b *planBuilder) error
	run        func(c *child, eng *skysr.Engine, b budget, tr *tracer) (*pass, error)
}

const (
	// serveRate is the open-loop arrival rate of serve-ordered, about a
	// third of the closed-loop capacity on a 2-core machine: low enough
	// that a machine-speed wobble moves latency, not the backlog.
	serveRate = 200.0
	// serveConns is the connection (and closed-loop client) count.
	serveConns = 2
	// batchSize is the query count of one batch-nyc call, small enough for
	// a few hundred batch latencies per run.
	batchSize = 50
	// updateEvery is how many live-traffic queries run between update
	// batches.
	updateEvery = 25
)

var workloads = []*workload{
	{
		name: "serve-ordered", preset: "tokyo", scale: 1,
		warmup: 200, oracleN: 1000, overHTTP: true, concurrent: true,
		plan: func(e *skysr.Engine, rng *rand.Rand, seed int64, b *planBuilder) error {
			const n = 2000
			bySize := map[int][]skysr.Query{}
			for size := 2; size <= 4; size++ {
				qs, err := e.Workload(n, size, seed*10+int64(size))
				if err != nil {
					return err
				}
				bySize[size] = qs
			}
			// The mix is fixed — sizes in turn, every tenth query top-4 —
			// so a run's median does not move with how the seed happens
			// to split the sizes, whose latencies differ tenfold.
			for i := 0; i < n; i++ {
				pq := PlanQuery{}
				if i%10 == 9 {
					pq.K = 4
				}
				if err := b.add(bySize[2+i%3][i], pq); err != nil {
					return err
				}
			}
			return nil
		},
		run: runServe,
	},
	{
		name: "dest-osm", preset: "osm", scale: 0.25,
		warmup: 10, oracleN: 150,
		plan: func(e *skysr.Engine, rng *rand.Rand, seed int64, b *planBuilder) error {
			qs, err := e.Workload(1000, 3, seed)
			if err != nil {
				return err
			}
			for _, q := range qs {
				dest := int32(rng.Intn(e.NumVertices()))
				if err := b.add(q, PlanQuery{Dest: dest, HasDest: true}); err != nil {
					return err
				}
			}
			return nil
		},
		run: runSearch,
	},
	{
		name: "unordered-tokyo", preset: "tokyo", scale: 0.25,
		warmup: 10, oracleN: 150,
		plan: func(e *skysr.Engine, rng *rand.Rand, seed int64, b *planBuilder) error {
			qs, err := e.Workload(1000, 3, seed)
			if err != nil {
				return err
			}
			for _, q := range qs {
				if err := b.add(q, PlanQuery{Unordered: true}); err != nil {
					return err
				}
			}
			return nil
		},
		run: runSearch,
	},
	{
		name: "batch-nyc", preset: "nyc", scale: 0.5,
		warmup: 1, oracleN: 1000, concurrent: true,
		plan: func(e *skysr.Engine, rng *rand.Rand, seed int64, b *planBuilder) error {
			templates, err := e.Workload(20, 3, seed)
			if err != nil {
				return err
			}
			for i := 0; i < 1000*batchSize; i++ {
				q := templates[rng.Intn(len(templates))]
				q.Start = int32(rng.Intn(e.NumVertices()))
				if err := b.add(q, PlanQuery{}); err != nil {
					return err
				}
			}
			return nil
		},
		run: runBatch,
	},
	{
		name: "live-traffic", preset: "tokyo", scale: 1, profiles: 0.3,
		warmup: 100, oracleN: 1000,
		plan: func(e *skysr.Engine, rng *rand.Rand, seed int64, b *planBuilder) error {
			qs, err := e.Workload(10000, 3, seed)
			if err != nil {
				return err
			}
			for _, q := range qs {
				if err := b.add(q, PlanQuery{Depart: rng.Float64() * e.TimePeriod()}); err != nil {
					return err
				}
			}
			b.p.Updates = updateStream(e, rng, len(qs)/updateEvery)
			return nil
		},
		run: runLive,
	},
}

func workloadByName(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// runSearch drives dest-osm and unordered-tokyo: one client calling
// Engine.SearchWith back to back.
func runSearch(c *child, eng *skysr.Engine, b budget, tr *tracer) (*pass, error) {
	p := newPass()
	search := func(i int) (time.Duration, error) { return p.search(eng, c.in.Plan, tr, i) }
	p.warm(c.w.warmup, search)
	p.measure(b, c.w.warmup, 1, search)
	if c.verify != nil {
		if err := c.verify("answers", c.in.Dataset, func(idx []int) ([][]point, error) {
			return searchPoints(eng, c.in.Plan, idx)
		}); err != nil {
			return nil, err
		}
	}
	return p, nil
}

// runBatch drives batch-nyc: one caller issuing Engine.SearchBatch with
// one worker per CPU; a request is a whole batch.
func runBatch(c *child, eng *skysr.Engine, b budget, tr *tracer) (*pass, error) {
	p := newPass()
	workers := runtime.GOMAXPROCS(0)
	batch := func(i int) (time.Duration, error) {
		qs := make([]skysr.Query, batchSize)
		for j := range qs {
			qs[j] = c.in.Plan.query(i*batchSize + j)
		}
		o := deployment()
		span := tr.begin("engine.search", &o)
		t0 := time.Now()
		answers, err := eng.SearchBatch(qs, skysr.BatchOptions{Workers: workers, Options: deployment(), Context: o.Context})
		d := time.Since(t0)
		tr.end(span)
		if err != nil {
			return d, err
		}
		p.engine.add(d*time.Duration(workers), len(qs))
		for _, a := range answers {
			p.core.add(a)
		}
		p.queries += len(qs)
		return d, nil
	}
	p.warm(c.w.warmup, batch)
	p.queries = 0
	p.measure(b, c.w.warmup, 1, batch)
	if c.verify != nil {
		if err := c.verify("answers", c.in.Dataset, func(idx []int) ([][]point, error) {
			qs := make([]skysr.Query, len(idx))
			for j, i := range idx {
				qs[j] = c.in.Plan.query(i)
			}
			answers, err := eng.SearchBatch(qs, skysr.BatchOptions{Workers: workers, Options: deployment()})
			if err != nil {
				return nil, err
			}
			out := make([][]point, len(answers))
			for j, a := range answers {
				out[j] = pointsOf(a)
			}
			return out, nil
		}); err != nil {
			return nil, err
		}
	}
	return p, nil
}

// runLive drives live-traffic: one client issuing departure-time queries
// with one synchronous ApplyUpdates after every updateEvery-th query, so
// the interleave of reads and writes is the same on every run.
func runLive(c *child, eng *skysr.Engine, b budget, tr *tracer) (*pass, error) {
	p := newPass()
	plan := c.in.Plan
	op := func(i int) (time.Duration, error) {
		d, err := p.search(eng, plan, tr, i)
		if err != nil {
			return d, err
		}
		if (i+1)%updateEvery == 0 {
			edits := plan.Updates[((i+1)/updateEvery-1)%len(plan.Updates)]
			if err := p.update(eng, edits, tr); err != nil {
				return d, err
			}
		}
		return d, nil
	}
	p.warm(c.w.warmup, op)
	eval := func(idx []int) ([][]point, error) { return searchPoints(eng, plan, idx) }
	// The checkpoint after the fixed warm-up prefix is the same state on
	// every run, so its answers make the digest; the final check covers
	// however many batches the measured phase applied.
	if c.verify != nil {
		if err := c.verifyLive("answers", eng, eval); err != nil {
			return nil, err
		}
	}
	p.measure(b, c.w.warmup, 1, op)
	if c.verify != nil {
		if err := c.verifyLive("final", eng, eval); err != nil {
			return nil, err
		}
	}
	return p, nil
}

// searchPoints evaluates plan queries idx through SearchWith with the
// deployment profile.
func searchPoints(eng *skysr.Engine, plan *Plan, idx []int) ([][]point, error) {
	out := make([][]point, len(idx))
	for j, i := range idx {
		ans, err := eng.SearchWith(plan.query(i), plan.options(i))
		if err != nil {
			return nil, fmt.Errorf("query %d: %w", i, err)
		}
		out[j] = pointsOf(ans)
	}
	return out, nil
}
