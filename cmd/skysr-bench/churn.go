package main

// The churn gate: a mixed read/write workload against the live-update
// engine. Each round answers the query workload on the category-index
// profile, then applies an update batch of congestion-style weight
// increases, one weight decrease and PoI lifecycle events: every shape the
// index repairs inside ApplyUpdates (carried rows, decrease-only repairs,
// rebuilds of rows a PoI left). After every round the engine's answers are
// replayed against a fresh engine built from the mutated dataset,
// asserting the live-update exactness guarantee, and the index repair
// counters quantify how much work incremental repair saved over
// rebuilding every row per batch.

import (
	"bytes"
	"math/rand"
	"time"

	"skysr"
	"skysr/internal/bench"
)

// churnResult is what the churn scenario measured on one dataset.
type churnResult struct {
	queries      int     // answered across every read phase
	epoch        int64   // the engine's dataset version after the run
	qps          float64 // over the read phases
	updateMicros float64 // mean ApplyUpdates time per batch
	resident     int     // category-index rows at the end of the run
	carried      int     // rows adopted without a rebuild, summed over batches
	repaired     int     // rows repaired or rebuilt, summed over batches
	identical    bool    // answers matched a fresh engine after every round
}

// churnRow holds one dataset's churn result to its gates: answers match a
// fresh engine after every round, ApplyUpdates carried at least one index
// row (else the repair was not incremental at all), and it repaired or
// rebuilt fewer rows than a rebuild-everything strategy would have
// recomputed (rounds × resident rows).
func churnRow(dataset string, m churnResult) bench.Row {
	full := churnRounds * m.resident
	r := bench.Row{Dataset: dataset, Scenario: "churn"}
	r.Count("rounds", churnRounds)
	r.Count("queries", float64(m.queries))
	r.Count("qps", m.qps)
	r.Count("epoch", float64(m.epoch))
	r.Count("update_us", m.updateMicros)
	r.Count("resident", float64(m.resident))
	r.Count("carried", float64(m.carried))
	r.Count("repaired", float64(m.repaired))
	r.Count("full_work", float64(full))
	r.Gate("identical", m.identical)
	r.Gate("carried>0", m.carried > 0)
	r.Gate("repaired<rounds×resident", m.repaired < full)
	return r
}

func churnDataset(cfg bench.Config, name string) ([]bench.Row, error) {
	eng, err := skysr.Generate(name, cfg.Scale, cfg.Seed)
	if err != nil {
		return nil, err
	}
	if _, err := eng.WarmCategoryIndex(); err != nil {
		return nil, err
	}
	queries, err := eng.Workload(cfg.Queries, 3, cfg.Seed+307)
	if err != nil {
		return nil, err
	}
	opts := skysr.SearchOptions{UseCategoryIndex: true}
	m := churnResult{identical: true}
	rng := rand.New(rand.NewSource(cfg.Seed + 509))

	var queryTime time.Duration
	var updateTime time.Duration
	runQueries := func() error {
		began := time.Now()
		if _, err := eng.SearchBatch(queries, skysr.BatchOptions{Options: opts}); err != nil {
			return err
		}
		queryTime += time.Since(began)
		m.queries += len(queries)
		return nil
	}

	if err := runQueries(); err != nil {
		return nil, err
	}
	for round := 0; round < churnRounds; round++ {
		batch := churnBatch(eng, rng)
		began := time.Now()
		res, err := eng.ApplyUpdates(batch)
		if err != nil {
			return nil, err
		}
		updateTime += time.Since(began)
		m.carried += res.RowsCarried
		m.repaired += res.RowsDirtied
		if err := runQueries(); err != nil {
			return nil, err
		}
		identical, err := matchesFreshEngine(eng, queries, opts)
		if err != nil {
			return nil, err
		}
		m.identical = m.identical && identical
	}
	m.resident = eng.CategoryIndexStats().RowsBuilt
	m.epoch = eng.Epoch()
	m.qps = float64(m.queries) / queryTime.Seconds()
	m.updateMicros = float64(updateTime.Microseconds()) / churnRounds
	return []bench.Row{churnRow(name, m)}, nil
}

// churnBatch builds one update round: congestion-style weight increases on
// random edges, one weight decrease, one PoI recategorization and one
// closure.
func churnBatch(eng *skysr.Engine, rng *rand.Rand) *skysr.UpdateBatch {
	b := new(skysr.UpdateBatch)
	leaves := eng.LeafCategories()
	n := eng.NumVertices()

	// Weight edits on distinct random edges. Increases never lower a row
	// entry, so they exercise the carry path; the last edit is a decrease,
	// which shortens an arc and exercises the decrease-only repair.
	touched := map[int32]bool{}
	for picked, tries := 0, 0; picked < 7 && tries < 200; tries++ {
		u := int32(rng.Intn(n))
		if touched[u] {
			continue
		}
		ts, ws := eng.Neighbors(u)
		if len(ts) == 0 {
			continue
		}
		i := rng.Intn(len(ts))
		if touched[ts[i]] {
			continue
		}
		touched[u], touched[ts[i]] = true, true
		factor := 1.05 + rng.Float64()*0.5
		if picked == 6 {
			factor = 0.7 + rng.Float64()*0.25
		}
		b.SetEdgeWeight(u, ts[i], ws[i]*factor)
		picked++
	}

	// One recategorization and one closure: the rows these PoIs leave are
	// rebuilt and the rows they join are repaired; every other row is
	// carried.
	pois := eng.PoIVertices()
	if len(pois) > 2 {
		p := pois[rng.Intn(len(pois))]
		b.Recategorize(p, leaves[rng.Intn(len(leaves))])
		q := pois[rng.Intn(len(pois))]
		for q == p {
			q = pois[rng.Intn(len(pois))]
		}
		b.RemovePoI(q)
	}
	return b
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
