package skysr

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"skysr/internal/index"
	"skysr/internal/metrics"
	"skysr/internal/taxonomy"
)

// answersMatch compares two answers route for route (PoI ids and bit-equal
// scores).
func answersMatch(a, b *Answer) bool {
	if len(a.Routes) != len(b.Routes) {
		return false
	}
	for i := range a.Routes {
		ra, rb := a.Routes[i], b.Routes[i]
		if ra.LengthScore != rb.LengthScore || ra.SemanticScore != rb.SemanticScore {
			return false
		}
		if len(ra.PoIs) != len(rb.PoIs) {
			return false
		}
		for j := range ra.PoIs {
			if ra.PoIs[j] != rb.PoIs[j] {
				return false
			}
		}
	}
	return true
}

// randomBatch builds a deterministic mixed update batch against e's
// current dataset: weight changes (increases and decreases), an edge
// addition and removal, and PoI add/remove/recategorize.
func randomBatch(e *Engine, rng *rand.Rand, structural bool) *UpdateBatch {
	ds := e.snap().ds
	g := ds.Graph
	b := new(UpdateBatch)

	touched := map[[2]VertexID]bool{}
	pickEdge := func() (VertexID, VertexID, float64, bool) {
		for tries := 0; tries < 50; tries++ {
			u := VertexID(rng.Intn(g.NumVertices()))
			ts, ws := g.Neighbors(u)
			if len(ts) == 0 {
				continue
			}
			i := rng.Intn(len(ts))
			v := ts[i]
			key := [2]VertexID{u, v}
			if u > v {
				key = [2]VertexID{v, u}
			}
			if touched[key] {
				continue
			}
			touched[key] = true
			return u, ts[i], ws[i], true
		}
		return 0, 0, 0, false
	}

	for i := 0; i < 4; i++ {
		if u, v, w, ok := pickEdge(); ok {
			factor := 0.5 + rng.Float64()*1.5 // both decreases and increases
			b.SetEdgeWeight(u, v, w*factor)
		}
	}
	if structural {
		if u, v, _, ok := pickEdge(); ok {
			b.RemoveEdge(u, v)
		}
		for tries := 0; tries < 50; tries++ {
			u := VertexID(rng.Intn(g.NumVertices()))
			v := VertexID(rng.Intn(g.NumVertices()))
			if u != v {
				b.AddEdge(u, v, 0.1+rng.Float64())
				break
			}
		}
	}

	leaves := e.LeafCategories()
	pois := g.PoIVertices()
	if len(pois) > 2 {
		b.RemovePoI(pois[rng.Intn(len(pois))])
		p := pois[rng.Intn(len(pois))]
		for b.poiOps[len(b.poiOps)-1].v == p { // distinct vertex per batch
			p = pois[rng.Intn(len(pois))]
		}
		b.Recategorize(p, leaves[rng.Intn(len(leaves))])
	}
	for tries := 0; tries < 50; tries++ {
		v := VertexID(rng.Intn(g.NumVertices()))
		if !g.IsPoI(v) {
			b.AddPoI(v, leaves[rng.Intn(len(leaves))])
			break
		}
	}
	return b
}

// TestApplyUpdatesMatchesFreshEngine is the core exactness property of the
// live-update engine: after any update batch, answers on the new epoch are
// identical — across every serving profile — to a fresh engine built from
// the mutated dataset's serialization. The non-structural batches run on a
// warmed category index, so each one's Evolve carries, repairs and
// rebuilds resident rows, the rows of the PoI it removes included; the
// structural ones start cold, and their rows are built after the updates.
func TestApplyUpdatesMatchesFreshEngine(t *testing.T) {
	for _, structural := range []bool{false, true} {
		structural := structural
		t.Run(fmt.Sprintf("structural=%v", structural), func(t *testing.T) {
			eng, err := Generate("tokyo", 0.1, 7)
			if err != nil {
				t.Fatal(err)
			}
			if !structural {
				if _, err := eng.WarmCategoryIndex(); err != nil {
					t.Fatal(err)
				}
			}
			rng := rand.New(rand.NewSource(99))
			for round := 0; round < 3; round++ {
				if _, err := eng.ApplyUpdates(randomBatch(eng, rng, structural)); err != nil {
					t.Fatalf("round %d: %v", round, err)
				}
			}
			if eng.Epoch() != 3 {
				t.Fatalf("epoch = %d, want 3", eng.Epoch())
			}

			var buf bytes.Buffer
			if err := eng.Write(&buf); err != nil {
				t.Fatal(err)
			}
			fresh, err := Read(&buf)
			if err != nil {
				t.Fatal(err)
			}

			queries, err := eng.Workload(12, 3, 5)
			if err != nil {
				t.Fatal(err)
			}
			for name, p := range servingProfiles() {
				for i, q := range queries {
					got, err := p.search(eng, q, p.opts)
					if err != nil {
						t.Fatalf("%s query %d on updated engine: %v", name, i, err)
					}
					want, err := p.search(fresh, q, p.opts)
					if err != nil {
						t.Fatalf("%s query %d on fresh engine: %v", name, i, err)
					}
					if !answersMatch(got, want) {
						t.Errorf("%s query %d: updated-engine answer differs from fresh engine\ngot:  %+v\nwant: %+v",
							name, i, got.Routes, want.Routes)
					}
				}
			}
		})
	}
}

// TestApplyUpdatesTakesEffect: a weight change must actually change the
// answer, and the PoI lifecycle edits must add and remove candidates.
func TestApplyUpdatesTakesEffect(t *testing.T) {
	eng, err := buildUpdateFixture()
	if err != nil {
		t.Fatal(err)
	}
	q := Query{Start: 0, Via: []Requirement{Category("Sushi Restaurant")}}
	ans, err := eng.Search(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(ans.Routes) != 1 || ans.Routes[0].PoIs[0] != 2 || ans.Routes[0].LengthScore != 3 {
		t.Fatalf("pre-update answer = %+v, want PoI 2 at length 3", ans.Routes)
	}

	res, err := eng.ApplyUpdates(new(UpdateBatch).SetEdgeWeight(0, 2, 10))
	if err != nil {
		t.Fatal(err)
	}
	if res.Epoch != 1 || eng.Epoch() != 1 {
		t.Fatalf("epoch = %d/%d, want 1", res.Epoch, eng.Epoch())
	}
	ans, err = eng.Search(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(ans.Routes) != 1 || ans.Routes[0].PoIs[0] != 1 || ans.Routes[0].LengthScore != 5 {
		t.Fatalf("post-update answer = %+v, want PoI 1 at length 5", ans.Routes)
	}

	// Closing the surviving sushi place reroutes to the remaining one.
	if _, err := eng.ApplyUpdates(new(UpdateBatch).RemovePoI(1)); err != nil {
		t.Fatal(err)
	}
	ans, err = eng.Search(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(ans.Routes) != 1 || ans.Routes[0].PoIs[0] != 2 {
		t.Fatalf("after RemovePoI answer = %+v, want PoI 2", ans.Routes)
	}
}

// buildUpdateFixture returns a tiny engine: start vertex 0, two sushi
// PoIs — vertex 1 at distance 5 and vertex 2 at distance 3.
func buildUpdateFixture() (*Engine, error) {
	nb := NewFoursquareNetworkBuilder("update-fixture")
	v0 := nb.AddVertex(0, 0)
	p1, err := nb.AddPoI(1, 0, "Sushi Restaurant")
	if err != nil {
		return nil, err
	}
	p2, err := nb.AddPoI(0, 1, "Sushi Restaurant")
	if err != nil {
		return nil, err
	}
	if err := nb.AddRoad(v0, p1, 5); err != nil {
		return nil, err
	}
	if err := nb.AddRoad(v0, p2, 3); err != nil {
		return nil, err
	}
	return nb.Build()
}

// TestApplyUpdatesValidation: invalid batches fail atomically, leaving the
// epoch and dataset untouched.
func TestApplyUpdatesValidation(t *testing.T) {
	eng, err := buildUpdateFixture()
	if err != nil {
		t.Fatal(err)
	}
	bad := []*UpdateBatch{
		new(UpdateBatch).SetEdgeWeight(0, 99, 1),                 // unknown vertex
		new(UpdateBatch).SetEdgeWeight(99, 0, 1),                 // unknown first vertex
		new(UpdateBatch).SetEdgeWeight(-1, 0, 1),                 // negative vertex id
		new(UpdateBatch).ClearEdgeProfile(99, 0),                 // unknown first vertex
		new(UpdateBatch).SetEdgeWeight(1, 2, 1),                  // missing edge
		new(UpdateBatch).SetEdgeWeight(0, 1, -1),                 // negative weight
		new(UpdateBatch).AddPoI(1, "Sushi Restaurant"),           // already a PoI
		new(UpdateBatch).AddPoI(0),                               // no categories
		new(UpdateBatch).AddPoI(0, "No Such Category"),           // unknown category
		new(UpdateBatch).RemovePoI(0),                            // not a PoI
		new(UpdateBatch).Recategorize(0, "Gift Shop"),            // not a PoI
		new(UpdateBatch).SetEdgeWeight(0, 1, 2).RemoveEdge(0, 1), // conflicting edits
	}
	for i, b := range bad {
		if _, err := eng.ApplyUpdates(b); err == nil {
			t.Errorf("bad batch %d applied without error", i)
		}
	}
	if eng.Epoch() != 0 {
		t.Fatalf("epoch advanced to %d by failed batches", eng.Epoch())
	}
	if res, err := eng.ApplyUpdates(new(UpdateBatch)); err != nil || res.Epoch != 0 {
		t.Fatalf("empty batch: res=%+v err=%v, want no-op at epoch 0", res, err)
	}
}

// TestSnapshotIsolationUnderConcurrency overlaps ApplyUpdates with
// concurrent Search and SearchBatch traffic (run it with -race). Every
// search whose surrounding epoch reads agree must return exactly the
// reference answer of that epoch — a search can never observe a half-
// applied update — and once traffic drains, only one snapshot stays live.
func TestSnapshotIsolationUnderConcurrency(t *testing.T) {
	const rounds = 4
	build := func() *Engine {
		eng, err := Generate("tokyo", 0.08, 3)
		if err != nil {
			t.Fatal(err)
		}
		return eng
	}

	// Reference pass: the same deterministic batches applied serially,
	// recording per-epoch answers for a fixed query set.
	ref := build()
	queries, err := ref.Workload(6, 3, 11)
	if err != nil {
		t.Fatal(err)
	}
	batches := make([]*UpdateBatch, rounds)
	refAnswers := make([][]*Answer, rounds+1)
	rng := rand.New(rand.NewSource(17))
	record := func(epoch int) {
		refAnswers[epoch] = make([]*Answer, len(queries))
		for i, q := range queries {
			ans, err := ref.Search(q)
			if err != nil {
				t.Fatalf("reference epoch %d query %d: %v", epoch, i, err)
			}
			refAnswers[epoch][i] = ans
		}
	}
	record(0)
	for r := 0; r < rounds; r++ {
		batches[r] = randomBatch(ref, rng, r%2 == 1)
		if _, err := ref.ApplyUpdates(batches[r]); err != nil {
			t.Fatal(err)
		}
		record(r + 1)
	}

	// Concurrent pass: identical engine, identical batches, with search
	// traffic overlapping the updates.
	eng := build()
	profiles := []SearchOptions{{}, {UseCategoryIndex: true}}
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	stop := make(chan struct{})
	for w := 0; w < 6; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Workers pair up so each profile runs through both SearchWith
			// (even w) and SearchBatch (odd w).
			opts := profiles[(w/2)%len(profiles)]
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				qi := (w + i) % len(queries)
				before := eng.Epoch()
				var got *Answer
				var err error
				if w%2 == 0 {
					got, err = eng.SearchWith(queries[qi], opts)
				} else {
					var all []*Answer
					all, err = eng.SearchBatch(queries[qi:qi+1], BatchOptions{Options: opts, Workers: 1})
					if err == nil {
						got = all[0]
					}
				}
				after := eng.Epoch()
				if err != nil {
					errs <- fmt.Errorf("worker %d: %v", w, err)
					return
				}
				if before == after && !answersMatch(got, refAnswers[before][qi]) {
					errs <- fmt.Errorf("worker %d: epoch %d query %d diverged from the epoch's reference answer", w, before, qi)
					return
				}
			}
		}()
	}
	for r := 0; r < rounds; r++ {
		time.Sleep(20 * time.Millisecond)
		if _, err := eng.ApplyUpdates(batches[r]); err != nil {
			t.Fatal(err)
		}
	}
	time.Sleep(20 * time.Millisecond)
	close(stop)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	// With traffic drained, every superseded snapshot must have been
	// released when its last searcher checked in.
	deadline := time.Now().Add(2 * time.Second)
	for eng.LiveSnapshots() != 1 {
		if time.Now().After(deadline) {
			t.Fatalf("LiveSnapshots = %d after drain, want 1", eng.LiveSnapshots())
		}
		time.Sleep(5 * time.Millisecond)
	}
	if eng.Epoch() != rounds {
		t.Fatalf("epoch = %d, want %d", eng.Epoch(), rounds)
	}
}

// TestSharedCachesFollowSnapshots: the cross-query m-Dijkstra caches
// belong to one dataset version. A batch warms them, an update shortens an
// arc on a route the batch returned and removes a PoI another route
// visited, and the same batch afterwards must answer exactly like a fresh
// engine over the updated dataset: no entry computed before the update may
// serve it. The scraped hit and miss counters must not drop across the
// update, although the new version starts on empty caches.
func TestSharedCachesFollowSnapshots(t *testing.T) {
	eng, err := Generate("tokyo", 0.1, 7)
	if err != nil {
		t.Fatal(err)
	}
	reg := metrics.New()
	eng.EnableMetrics(reg)
	base, err := eng.Workload(8, 3, 21)
	if err != nil {
		t.Fatal(err)
	}
	// Every template twice, so the batch also hits what it stored.
	queries := append(append([]Query(nil), base...), base...)
	opts := BatchOptions{Workers: 2, Options: SearchOptions{ExpandPaths: true}}
	warm, err := eng.SearchBatch(queries, opts)
	if err != nil {
		t.Fatal(err)
	}
	if scrapeRegistry(t, reg)["skysr_shared_cache_entries"] == 0 {
		t.Fatal("the warm-up batch stored nothing in the shared cache")
	}
	scrape := func() (hits, misses float64) {
		samples := scrapeRegistry(t, reg)
		return samples["skysr_shared_cache_hits_total"], samples["skysr_shared_cache_misses_total"]
	}
	hits, misses := scrape()

	// Halve the first arc of the first answer's shortest route, and remove
	// the last PoI of the last answer's shortest route.
	b := new(UpdateBatch)
	path := warm[0].Routes[0].Path
	for i := 0; i+1 < len(path); i++ {
		if u, v := path[i], path[i+1]; u != v {
			ts, ws := eng.Neighbors(u)
			for j, w := range ts {
				if w == v {
					b.SetEdgeWeight(u, v, ws[j]/2)
					break
				}
			}
			break
		}
	}
	last := warm[len(warm)-1].Routes[0].PoIs
	b.RemovePoI(last[len(last)-1])
	if b.Len() != 2 {
		t.Fatalf("built %d edits, want 2", b.Len())
	}
	if _, err := eng.ApplyUpdates(b); err != nil {
		t.Fatal(err)
	}
	if h, m := scrape(); h < hits || m < misses {
		t.Fatalf("shared-cache counters dropped across the update: hits %v -> %v, misses %v -> %v", hits, h, misses, m)
	}

	got, err := eng.SearchBatch(queries, opts)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := eng.Write(&buf); err != nil {
		t.Fatal(err)
	}
	fresh, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	want, err := fresh.SearchBatch(queries, opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := range queries {
		if !answersMatch(got[i], want[i]) {
			t.Errorf("query %d after the update differs from a fresh engine\ngot:  %+v\nwant: %+v", i, got[i].Routes, want[i].Routes)
		}
	}
	if h, m := scrape(); h < hits || m < misses {
		t.Fatalf("shared-cache counters dropped: hits %v -> %v, misses %v -> %v", hits, h, misses, m)
	}
}

// TestIndexRepairIsIncremental: a PoI-only batch carries every index row
// except the edited PoI's changed ancestor rows, a weight decrease repairs
// the rows it can lower, and neither drops a resident row. Every repaired
// row is a lower bound of a fresh one, and later searches rebuild nothing.
func TestIndexRepairIsIncremental(t *testing.T) {
	eng, err := Generate("tokyo", 0.1, 21)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.WarmCategoryIndex(); err != nil {
		t.Fatal(err)
	}
	before := eng.CategoryIndexStats()
	if before.RowsBuilt == 0 {
		t.Fatal("warm-up built no rows")
	}
	resident := before.RowsBuilt
	// checkRepair asserts that the batch kept every resident row, carried
	// or repaired, and that each is a lower bound of a fresh build.
	checkRepair := func(what string, res *UpdateResult) {
		t.Helper()
		if res.RowsCarried+res.RowsDirtied != resident {
			t.Fatalf("%s: carried %d + dirtied %d != resident %d", what, res.RowsCarried, res.RowsDirtied, resident)
		}
		st := eng.CategoryIndexStats()
		if st.RowsBuilt != resident || st.RowsRepaired != int64(res.RowsDirtied) {
			t.Fatalf("%s: %d rows resident, %d repaired; want %d and %d", what, st.RowsBuilt, st.RowsRepaired, resident, res.RowsDirtied)
		}
		sn := eng.snap()
		idx, fresh := eng.categoryIndex(sn), index.New(sn.ds, 0)
		for c := 0; c < idx.NumCategories(); c++ {
			got := idx.RowIfBuilt(taxonomy.CategoryID(c))
			if got == nil {
				continue
			}
			want := fresh.Row(taxonomy.CategoryID(c))
			for v := range got {
				if got[v] > want[v] {
					t.Fatalf("%s: category %d vertex %d: row %v exceeds fresh %v", what, c, v, got[v], want[v])
				}
			}
		}
	}

	pois := eng.snap().ds.Graph.PoIVertices()
	leaves := eng.LeafCategories()
	res, err := eng.ApplyUpdates(new(UpdateBatch).Recategorize(pois[0], leaves[0]))
	if err != nil {
		t.Fatal(err)
	}
	if res.IndexInvalidated {
		t.Fatal("PoI-only batch reported a shortened arc")
	}
	if res.RowsDirtied == 0 || res.RowsCarried == 0 {
		t.Fatalf("RowsDirtied=%d RowsCarried=%d, want both > 0", res.RowsDirtied, res.RowsCarried)
	}
	checkRepair("recategorize", res)

	// A weight decrease shortens an arc: the rows it can lower are
	// repaired, and none is dropped.
	g := eng.snap().ds.Graph
	ts, ws := g.Neighbors(0)
	res2, err := eng.ApplyUpdates(new(UpdateBatch).SetEdgeWeight(0, ts[0], ws[0]*0.5))
	if err != nil {
		t.Fatal(err)
	}
	if !res2.IndexInvalidated || res2.RowsDirtied == 0 {
		t.Fatalf("decrease batch: IndexInvalidated=%v RowsDirtied=%d, want true and > 0", res2.IndexInvalidated, res2.RowsDirtied)
	}
	checkRepair("decrease", res2)

	// Searches find every row already repaired: none is rebuilt.
	queries, err := eng.Workload(5, 3, 13)
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range queries {
		if _, err := eng.SearchWith(q, SearchOptions{UseCategoryIndex: true}); err != nil {
			t.Fatal(err)
		}
	}
	if st := eng.CategoryIndexStats(); st.RowsRepaired != int64(res2.RowsDirtied) {
		t.Fatalf("RowsRepaired moved from %d to %d during searches", res2.RowsDirtied, st.RowsRepaired)
	}
}

// TestIndexRepairDoesNotDrift: hundreds of update batches must leave the
// live index as tight as a fresh one. Every batch edits one weight (every
// fifth a decrease) and recategorizes one PoI; afterwards indexed queries
// on the live engine and on a fresh engine read from its serialization
// must return the same answers and settle the same number of vertices
// within 1%. Carrying the rows a PoI left, instead of rebuilding them,
// keeps answers exact but lets rows go loose and settles ~15% more.
func TestIndexRepairDoesNotDrift(t *testing.T) {
	eng, err := Generate("tokyo", 0.25, 42)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.WarmCategoryIndex(); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(43))
	leaves := eng.LeafCategories()
	n := eng.NumVertices()
	for i := 0; i < 400; i++ {
		b := new(UpdateBatch)
		for {
			u := VertexID(rng.Intn(n))
			ts, ws := eng.Neighbors(u)
			if len(ts) == 0 {
				continue
			}
			j := rng.Intn(len(ts))
			factor := 1.05 + 0.45*rng.Float64()
			if i%5 == 4 {
				factor = 0.7 + 0.25*rng.Float64()
			}
			b.SetEdgeWeight(u, ts[j], ws[j]*factor)
			break
		}
		pois := eng.PoIVertices()
		b.Recategorize(pois[rng.Intn(len(pois))], leaves[rng.Intn(len(leaves))])
		if _, err := eng.ApplyUpdates(b); err != nil {
			t.Fatalf("batch %d: %v", i, err)
		}
	}

	var buf bytes.Buffer
	if err := eng.Write(&buf); err != nil {
		t.Fatal(err)
	}
	fresh, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	queries, err := eng.Workload(200, 3, 77)
	if err != nil {
		t.Fatal(err)
	}
	opts := SearchOptions{UseCategoryIndex: true}
	var liveSettled, freshSettled int64
	for i, q := range queries {
		got, err := eng.SearchWith(q, opts)
		if err != nil {
			t.Fatal(err)
		}
		want, err := fresh.SearchWith(q, opts)
		if err != nil {
			t.Fatal(err)
		}
		if !answersMatch(got, want) {
			t.Fatalf("query %d: live answer differs from the fresh engine's", i)
		}
		liveSettled += got.Stats.SettledVertices
		freshSettled += want.Stats.SettledVertices
	}
	ratio := float64(liveSettled) / float64(freshSettled)
	t.Logf("settled vertices: live %d, fresh %d (%.4f×)", liveSettled, freshSettled, ratio)
	if ratio < 0.99 || ratio > 1.01 {
		t.Fatalf("live engine settled %.4f× the fresh engine's vertices, want within 1%%", ratio)
	}
}

// TestStaleSidecarRejectedAfterUpdate: a sidecar persisted before an
// update batch must not load against the dataset saved after it.
func TestStaleSidecarRejectedAfterUpdate(t *testing.T) {
	dir := t.TempDir()
	eng, err := Generate("tokyo", 0.08, 5)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.WarmCategoryIndex(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "city.skysr")
	if err := eng.Save(path); err != nil {
		t.Fatal(err)
	}
	staleSidecar, err := os.ReadFile(IndexSidecarPath(path))
	if err != nil {
		t.Fatal(err)
	}

	// Control: the matching sidecar is adopted.
	reopened, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reopened.CategoryIndexStats().FromSidecar {
		t.Fatal("matching sidecar was not adopted")
	}

	// Mutate, save the new dataset, then plant the pre-update sidecar.
	g := eng.snap().ds.Graph
	ts, ws := g.Neighbors(1)
	if _, err := eng.ApplyUpdates(new(UpdateBatch).SetEdgeWeight(1, ts[0], ws[0]+1)); err != nil {
		t.Fatal(err)
	}
	if err := eng.Save(path); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(IndexSidecarPath(path), staleSidecar, 0o644); err != nil {
		t.Fatal(err)
	}
	reopened, err = Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if reopened.CategoryIndexStats().FromSidecar {
		t.Fatal("stale pre-update sidecar was adopted against the post-update dataset")
	}
	// The engine still answers correctly by rebuilding lazily.
	queries, err := reopened.Workload(3, 2, 9)
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range queries {
		if _, err := reopened.SearchWith(q, SearchOptions{UseCategoryIndex: true}); err != nil {
			t.Fatal(err)
		}
	}
}

// TestSidecarRecordsSaveEpoch: the sidecar header's epoch field holds
// Engine.Epoch at Save. Opening the files starts a new engine at epoch 0,
// with the sidecar adopted.
func TestSidecarRecordsSaveEpoch(t *testing.T) {
	eng, err := Generate("tokyo", 0.05, 5)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.WarmCategoryIndex(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		ts, ws := eng.Neighbors(1)
		if _, err := eng.ApplyUpdates(new(UpdateBatch).SetEdgeWeight(1, ts[0], ws[0]+1)); err != nil {
			t.Fatal(err)
		}
	}
	path := filepath.Join(t.TempDir(), "city.skysr")
	if err := eng.Save(path); err != nil {
		t.Fatal(err)
	}
	sidecar, err := os.ReadFile(IndexSidecarPath(path))
	if err != nil {
		t.Fatal(err)
	}
	// Layout: magic(8) + fingerprint(25), then epoch(u64).
	if got := binary.LittleEndian.Uint64(sidecar[33:]); got != uint64(eng.Epoch()) || got != 2 {
		t.Fatalf("sidecar epoch = %d, want Engine.Epoch() = %d", got, eng.Epoch())
	}
	reopened, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reopened.CategoryIndexStats().FromSidecar || reopened.Epoch() != 0 {
		t.Fatalf("reopened engine: sidecar adopted %v, epoch %d; want true, 0",
			reopened.CategoryIndexStats().FromSidecar, reopened.Epoch())
	}
}
