package main

// The -churn scenario: a mixed read/write workload against the live-update
// engine. Each round answers the query workload on the category-index
// profile, then applies an update batch of congestion-style weight
// increases plus PoI lifecycle events (the shapes that exercise the
// incremental repair path; weight decreases — which correctly invalidate
// every row — are covered by the unit suite). After the final round the
// engine's answers are replayed against a fresh engine built from the
// mutated dataset, asserting the live-update exactness guarantee, and the
// index repair counters quantify how much work incremental repair saved
// over rebuilding every row per batch.

import (
	"bytes"
	"fmt"
	"math/rand"
	"time"

	"skysr"
	"skysr/internal/bench"
)

// runChurn executes the churn scenario for every configured dataset.
func runChurn(cfg bench.Config) ([]bench.ChurnRow, error) {
	var rows []bench.ChurnRow
	for _, name := range cfg.Datasets {
		row, err := churnDataset(cfg, name)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		rows = append(rows, *row)
	}
	return rows, nil
}

func churnDataset(cfg bench.Config, name string) (*bench.ChurnRow, error) {
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
	row := &bench.ChurnRow{Dataset: name, Rounds: churnRounds}
	rng := rand.New(rand.NewSource(cfg.Seed + 509))

	var queryTime time.Duration
	var updateTime time.Duration
	var repaired int64
	runQueries := func() error {
		began := time.Now()
		if _, err := eng.SearchBatch(queries, skysr.BatchOptions{Options: opts}); err != nil {
			return err
		}
		queryTime += time.Since(began)
		row.Queries += len(queries)
		return nil
	}

	if err := runQueries(); err != nil {
		return nil, err
	}
	for round := 0; round < churnRounds; round++ {
		batch := churnBatch(eng, rng)
		// The per-epoch repair counter resets when the index evolves;
		// collect the repairs this epoch performed before superseding it.
		repairedBefore := eng.CategoryIndexStats().RowsRepaired
		began := time.Now()
		res, err := eng.ApplyUpdates(batch)
		if err != nil {
			return nil, err
		}
		updateTime += time.Since(began)
		repaired += repairedBefore
		row.RowsCarried += res.RowsCarried
		if err := runQueries(); err != nil {
			return nil, err
		}
	}
	st := eng.CategoryIndexStats()
	repaired += st.RowsRepaired
	row.RowsRepaired = repaired
	row.RowsResident = st.RowsBuilt
	row.FullRebuildRows = churnRounds * st.RowsBuilt
	row.FinalEpoch = eng.Epoch()
	row.QPS = float64(row.Queries) / queryTime.Seconds()
	row.MeanUpdateMicros = float64(updateTime.Microseconds()) / churnRounds

	identical, err := matchesFreshEngine(eng, queries, opts)
	if err != nil {
		return nil, err
	}
	row.Identical = identical
	return row, nil
}

// churnBatch builds one update round: congestion-style weight increases on
// random edges plus one PoI recategorization and one close/open pair.
func churnBatch(eng *skysr.Engine, rng *rand.Rand) *skysr.UpdateBatch {
	b := new(skysr.UpdateBatch)
	leaves := eng.LeafCategories()
	n := eng.NumVertices()

	// Weight increases: pick distinct random edges and bump them.
	// Increases never invalidate index rows, so these edits exercise the
	// carry path.
	touched := map[int32]bool{}
	for picked, tries := 0, 0; picked < 6 && tries < 200; tries++ {
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
		b.SetEdgeWeight(u, ts[i], ws[i]*(1.05+rng.Float64()*0.5))
		picked++
	}

	// One recategorization and one closure: these dirty only the edited
	// PoI's ancestor rows — the incremental repair path under test.
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
