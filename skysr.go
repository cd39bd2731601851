// Package skysr is a Go implementation of the skyline sequenced route
// (SkySR) query of Sasaki, Ishikawa, Fujiwara and Onizuka, "Sequenced
// Route Query with Semantic Hierarchy" (EDBT 2018).
//
// A SkySR query starts from a point in a road network and names a sequence
// of PoI categories — say ⟨Asian restaurant, museum, gift shop⟩. Instead of
// the single shortest route that matches the categories exactly, it
// returns every route that is Pareto-optimal in (network length, semantic
// similarity), where similarity is measured in a category hierarchy such
// as the Foursquare taxonomy: an Italian restaurant partially satisfies
// "Asian restaurant" because both are Food. The result is a small set of
// alternatives — typically 2–8 routes — trading walking distance against
// how literally the request is honored.
//
// The package answers queries with the paper's bulk SkySR algorithm
// (BSSR): a single simultaneous graph search pruned by branch-and-bound,
// with four optimizations (initial-search seeding, a size/semantic/length
// priority queue, minimum-distance lower bounds and on-the-fly caching).
// The naive baselines the paper compares against (iterated optimal
// sequenced route queries via Dijkstra or progressive neighbour
// exploration) and BSSR without its optimizations are not part of this
// API; cmd/skysr-bench runs them for the paper's evaluation.
//
// # Quick start
//
//	eng, err := skysr.Generate("tokyo", 0.5, 42) // synthetic city
//	if err != nil {
//		log.Fatal(err)
//	}
//	ans, err := eng.Search(skysr.Query{
//		Start: eng.RandomVertex(1),
//		Via: []skysr.Requirement{
//			skysr.Category("Sushi Restaurant"),
//			skysr.Category("Art Museum"),
//			skysr.Category("Gift Shop"),
//		},
//	})
//	if err != nil {
//		log.Fatal(err)
//	}
//	for _, r := range ans.Routes {
//		fmt.Println(r)
//	}
//
// Datasets can also be built by hand (NewNetworkBuilder), loaded from
// files (Open), or generated synthetically (Generate).
//
// # Ranked alternatives
//
// SearchTopK generalizes the query from "the best route per similarity
// level" to the k best: the answer is the k-skyband of the achievable
// (length, semantic) score points, rank-ordered, with k = 1 byte-identical
// to Search. See SearchTopK and package internal/topk.
//
// # Time-dependent routing
//
// Edges can carry periodic piecewise-linear FIFO travel-time profiles
// (rush hour costs more than 3 am): SearchAt, or SearchOptions.DepartAt,
// prices every leg at the instant it is actually traversed, and answers
// stay exact — all pruning cuts against the metric's lower-bound graph.
// Generate profiles with AttachTimeProfiles (or skysr-gen
// -time-profiles), edit them live with UpdateBatch.SetEdgeProfile, and
// see README "Time-dependent routing" for the guarantees.
//
// # Serving and live updates
//
// One Engine serves any number of goroutines: Search and SearchBatch run
// against immutable dataset snapshots, and ApplyUpdates mutates the
// network (edge weights, edges, PoI lifecycle) copy-on-write — each batch
// publishes a new epoch, in-flight queries finish on the snapshot they
// started on, and the precomputed category-distance index is repaired
// incrementally rather than rebuilt. See ARCHITECTURE.md for the layer
// map, the snapshot/epoch lifecycle, and the index sidecar format.
package skysr

import (
	"fmt"
	"io"
	"math"
	"math/rand"
	"sync"
	"sync/atomic"

	"skysr/internal/core"
	"skysr/internal/dataset"
	"skysr/internal/gen"
	"skysr/internal/graph"
	"skysr/internal/index"
	"skysr/internal/taxonomy"
)

// VertexID identifies a vertex of the road network.
type VertexID = int32

// NoVertex is the sentinel for "no vertex", e.g. an unset destination.
const NoVertex VertexID = graph.NoVertex

// Engine answers SkySR queries over one dataset and applies live updates
// to it. An Engine is safe for concurrent Search, SearchBatch and
// ApplyUpdates calls: queries run against immutable copy-on-write
// snapshots of the dataset (see snapshot), each in-flight search owns a
// pooled searcher workspace, and all cross-query state (the category
// index, compiled requirements, the shared m-Dijkstra caches) is guarded
// for concurrent use. The prototype HTTP service shares one Engine across
// handlers, SearchBatch fans a whole workload out over it, and
// POST /api/update mutates it while it serves.
type Engine struct {
	// cur is the current snapshot; searches pin it (see pin) so an update
	// published mid-search never changes the data a search runs against.
	cur atomic.Pointer[snapshot]
	// live counts snapshots not yet fully released — 1 in steady state,
	// transiently higher while searches still hold superseded epochs.
	live atomic.Int64

	// updateMu serializes ApplyUpdates (snapshot construction and swap);
	// searches never take it.
	updateMu sync.Mutex

	// idxBudget is the category-index row budget applied to every
	// snapshot's index (0 = index.DefaultMaxBytes).
	idxBudget atomic.Int64

	// matchers caches compiled requirements ("sim|key" → route.Matcher);
	// compiled matchers depend only on the immutable category forest —
	// which live updates never alter — so they are shared across snapshots
	// freely. numMatchers enforces maxCachedMatchers (see compiledMatcher).
	matchers    sync.Map
	numMatchers atomic.Int64

	// metricsv observes every finished search once EnableMetrics ran; nil
	// until then, so unmetered engines pay nothing per query. metricsOnce
	// makes EnableMetrics first-call-wins (metric names register once).
	metricsv    atomic.Pointer[core.Metrics]
	metricsOnce sync.Once
}

// snapshot is one immutable version of the engine's dataset plus all the
// version-bound serving state: the searcher pool (whose workspaces are
// sized to the graph), the shared m-Dijkstra caches (whose entries hold
// this version's distances) and the category-level distance index (whose
// rows are lower bounds of this version's distances). ApplyUpdates builds
// a new snapshot copy-on-write and publishes it atomically; searches pin
// the snapshot they start on, and a superseded snapshot is released when
// its last searcher checks in.
type snapshot struct {
	owner *Engine
	// epoch is the dataset version: 0 at construction, +1 per update batch.
	epoch int64
	ds    *dataset.Dataset
	// pool recycles searcher workspaces (graph-sized Dijkstra arrays)
	// across queries on this snapshot instead of allocating them per call.
	pool *core.SearcherPool
	// shared holds one cross-query m-Dijkstra cache per Similarity value
	// (entries depend on the similarity function, so they cannot mix).
	shared [2]*core.SharedCache

	// refs counts pins: 1 for being the current snapshot plus 1 per
	// in-flight search. dead latches the final release so the live-
	// snapshot accounting decrements exactly once.
	refs atomic.Int64
	dead atomic.Bool

	// idxMu guards idx and idxLoaded. idx is created lazily (first indexed
	// search), adopted from a sidecar file by Open, evolved from the
	// previous snapshot's index by ApplyUpdates, or prewarmed by
	// WarmCategoryIndex.
	idxMu     sync.Mutex
	idx       *index.CategoryDistances
	idxLoaded bool // idx was loaded from a sidecar rather than built
}

// newSnapshot wraps a dataset version and its shared caches. The caller
// owns installing it.
func (e *Engine) newSnapshot(epoch int64, ds *dataset.Dataset, shared [2]*core.SharedCache) *snapshot {
	sn := &snapshot{owner: e, epoch: epoch, ds: ds, pool: core.NewSearcherPool(ds), shared: shared}
	sn.refs.Store(1) // the "current" reference, dropped when superseded
	e.live.Add(1)
	return sn
}

// pin acquires the current snapshot for the duration of one search (or
// save). The load-increment-recheck loop handles the race with a
// concurrent ApplyUpdates swap: if the snapshot was superseded between the
// load and the increment, the pin is undone and retried on the new
// current, so a successful pin always returns a snapshot whose data the
// engine still serves (or served when the pin started).
func (e *Engine) pin() *snapshot {
	for {
		sn := e.cur.Load()
		sn.refs.Add(1)
		if e.cur.Load() == sn {
			return sn
		}
		sn.release()
	}
}

// release drops one pin. The final release of a superseded snapshot
// retires it: the dead latch makes the live-count decrement idempotent
// against pin/release races, and dropping the pool, cache and index
// references lets the garbage collector reclaim the graph-sized
// workspaces and this version's cache entries promptly even if something
// still holds the snapshot struct itself. No search can
// observe the cleared fields: a pin taken after the snapshot was
// superseded always fails its recheck without touching them.
func (sn *snapshot) release() {
	if sn.refs.Add(-1) != 0 {
		return
	}
	if sn.dead.CompareAndSwap(false, true) {
		sn.owner.live.Add(-1)
		sn.pool = nil
		sn.shared = [2]*core.SharedCache{}
		sn.idxMu.Lock()
		sn.idx = nil
		sn.idxMu.Unlock()
	}
}

// snap returns the current snapshot without pinning it — only for reads of
// immutable per-version state (the dataset pointer keeps its data alive).
func (e *Engine) snap() *snapshot { return e.cur.Load() }

// newEngine wraps a dataset with the engine's cross-query machinery.
func newEngine(ds *dataset.Dataset) *Engine {
	e := &Engine{}
	var shared [2]*core.SharedCache
	for i := range shared {
		shared[i] = core.NewSharedCache(0)
	}
	e.cur.Store(e.newSnapshot(0, ds, shared))
	return e
}

// Epoch returns the current dataset version: 0 at construction,
// incremented by every successful ApplyUpdates batch.
func (e *Engine) Epoch() int64 { return e.snap().epoch }

// LiveSnapshots reports how many dataset versions are still referenced: 1
// in steady state, transiently more while searches pinned to superseded
// epochs drain. It exists for monitoring and the snapshot-lifecycle tests.
func (e *Engine) LiveSnapshots() int { return int(e.live.Load()) }

// categoryIndex returns the snapshot's category-level distance index,
// creating it (with every tree-root row resident) on first use.
func (e *Engine) categoryIndex(sn *snapshot) *index.CategoryDistances {
	sn.idxMu.Lock()
	defer sn.idxMu.Unlock()
	if sn.idx == nil {
		sn.idx = index.New(sn.ds, e.idxBudget.Load())
		sn.idx.EnsureRoots()
	}
	return sn.idx
}

// ConfigureCategoryIndex sets the memory budget (in bytes; <= 0 restores
// the default) for the category-level distance index, now and for every
// future snapshot. Shrinking the budget below the current footprint stops
// further row builds without evicting resident rows. It serializes with
// ApplyUpdates (which evolves the index, inheriting its budget), so the
// new budget can never land on a snapshot that is being superseded and
// miss the one that replaces it.
func (e *Engine) ConfigureCategoryIndex(maxBytes int64) {
	e.updateMu.Lock()
	defer e.updateMu.Unlock()
	e.idxBudget.Store(maxBytes)
	sn := e.cur.Load()
	sn.idxMu.Lock()
	defer sn.idxMu.Unlock()
	if sn.idx != nil {
		sn.idx.SetMaxBytes(maxBytes)
	}
}

// WarmCategoryIndex builds index rows ahead of serving, moving build cost
// out of the query path. With no arguments it warms every tree root plus
// every leaf category that has at least one PoI; otherwise it warms the
// named categories. The rows are built on parallel workers, up to
// GOMAXPROCS at once. It reports how many distinct requested categories
// have a resident row afterwards (the memory budget may deny some); a
// category requested twice, such as a childless root holding PoIs, counts
// once.
func (e *Engine) WarmCategoryIndex(names ...string) (int, error) {
	sn := e.pin()
	defer sn.release()
	var cats []taxonomy.CategoryID
	if len(names) == 0 {
		cats = append(cats, sn.ds.Forest.Roots()...)
		for _, c := range sn.ds.Forest.Leaves() {
			if len(sn.ds.PoIsExact(c)) > 0 {
				cats = append(cats, c)
			}
		}
	} else {
		for _, name := range names {
			c, ok := sn.ds.Forest.Lookup(name)
			if !ok {
				return 0, fmt.Errorf("skysr: unknown category %.64q", name)
			}
			cats = append(cats, c)
		}
	}
	return e.categoryIndex(sn).Prewarm(cats...), nil
}

// CategoryIndexStats reports the state of the category-level distance
// index: rows resident, bytes held, the configured budget, builds denied
// by the budget, whether the index came from a sidecar file, and the
// live-update repair counters of the ApplyUpdates that produced the
// current epoch (rows it carried, rows it repaired or rebuilt). A zero
// Stats with FromSidecar false means the index has not been created yet.
type CategoryIndexStats struct {
	RowsBuilt     int
	Bytes         int64
	MaxBytes      int64
	SkippedBuilds int64
	FromSidecar   bool
	RowsCarried   int
	RowsRepaired  int64
}

// CategoryIndexStats returns a snapshot of the engine's index state.
func (e *Engine) CategoryIndexStats() CategoryIndexStats {
	sn := e.snap()
	sn.idxMu.Lock()
	idx, loaded := sn.idx, sn.idxLoaded
	sn.idxMu.Unlock()
	if idx == nil {
		return CategoryIndexStats{}
	}
	st := idx.Stats()
	return CategoryIndexStats{
		RowsBuilt:     st.RowsBuilt,
		Bytes:         st.Bytes,
		MaxBytes:      st.MaxBytes,
		SkippedBuilds: st.SkippedBuilds,
		FromSidecar:   loaded,
		RowsCarried:   st.RowsCarried,
		RowsRepaired:  st.RowsRepaired,
	}
}

// IndexSidecarPath returns the sidecar file path Save and Open use for the
// category index of a dataset stored at path.
func IndexSidecarPath(path string) string { return path + ".cidx" }

// SaveIndex writes the built rows of the category index to a sidecar file
// at the given path (creating the index if needed). The sidecar round-trips
// bit-exactly: an engine that Opens it serves identical bounds and answers
// without rebuilding. The sidecar is stamped with the engine's current
// epoch and fingerprints the dataset version it was built from, so a
// sidecar persisted before an ApplyUpdates batch never loads against the
// dataset saved after it.
func (e *Engine) SaveIndex(path string) error {
	sn := e.pin()
	defer sn.release()
	return e.categoryIndex(sn).WriteFile(path, sn.epoch)
}

// loadIndexSidecar adopts a sidecar index if one exists next to the
// dataset and matches it; a missing, stale or corrupt sidecar is ignored
// (the index is then rebuilt lazily as usual).
func (sn *snapshot) loadIndexSidecar(datasetPath string, budget int64) {
	ci, err := index.ReadFile(IndexSidecarPath(datasetPath), sn.ds, budget)
	if err != nil {
		return
	}
	sn.idxMu.Lock()
	sn.idx = ci
	sn.idxLoaded = true
	sn.idxMu.Unlock()
}

// Open loads a dataset from a file in either skysr format, sniffing the
// first bytes: the binary format (SaveBinary, skysr-gen -binary) is
// memory-mapped and served zero-copy — cold starts skip the text parse
// entirely — while the text format (Save, skysr-gen) is parsed as before. Either way, a matching index sidecar
// (IndexSidecarPath) written by Save or SaveIndex next to the dataset is
// loaded so the category-index rebuild is skipped; a missing or stale
// sidecar is ignored.
func Open(path string) (*Engine, error) {
	if bin, err := dataset.SniffBinaryFile(path); err != nil {
		return nil, err
	} else if bin {
		ds, _, err := dataset.OpenBinary(path)
		if err != nil {
			return nil, err
		}
		e := newEngine(ds)
		e.snap().loadIndexSidecar(path, e.idxBudget.Load())
		return e, nil
	}
	ds, err := dataset.ReadFile(path)
	if err != nil {
		return nil, err
	}
	e := newEngine(ds)
	e.snap().loadIndexSidecar(path, e.idxBudget.Load())
	return e, nil
}

// Read loads a dataset from a reader in the skysr text format.
func Read(r io.Reader) (*Engine, error) {
	ds, err := dataset.Read(r)
	if err != nil {
		return nil, err
	}
	return newEngine(ds), nil
}

// Save writes the engine's dataset to a file in the skysr text format.
// When the category-level distance index has resident rows, they are also
// persisted to the sidecar file IndexSidecarPath(path), which a later Open
// picks up to skip the index rebuild. Dataset and sidecar are taken from
// one pinned snapshot, so a concurrent ApplyUpdates can never make them
// describe different versions.
func (e *Engine) Save(path string) error {
	sn := e.pin()
	defer sn.release()
	if err := dataset.WriteFile(path, sn.ds); err != nil {
		return err
	}
	sn.idxMu.Lock()
	idx := sn.idx
	sn.idxMu.Unlock()
	if idx != nil && idx.NumBuiltRows() > 0 {
		return idx.WriteFile(IndexSidecarPath(path), sn.epoch)
	}
	return nil
}

// Write writes the engine's dataset to a writer.
func (e *Engine) Write(w io.Writer) error {
	return dataset.Write(w, e.snap().ds)
}

// SaveBinary writes the engine's dataset to a file in the binary format:
// a sectioned, checksummed container Open memory-maps and serves without
// parsing.
func (e *Engine) SaveBinary(path string) error {
	sn := e.pin()
	defer sn.release()
	return dataset.WriteBinaryFile(path, sn.ds)
}

// Generate builds a synthetic city dataset. Preset is "tokyo", "nyc" or
// "cal" (the shapes of the paper's three evaluation datasets, Table 5) or
// "osm" (the OSM-scale serving stress preset with highway-tier weights);
// scale 1.0 is roughly 1:100 of the paper's sizes. Generation is
// deterministic in seed.
func Generate(preset string, scale float64, seed int64) (*Engine, error) {
	ds, err := gen.BuildPreset(preset, scale, seed)
	if err != nil {
		return nil, err
	}
	return newEngine(ds), nil
}

// Presets lists the available Generate presets.
func Presets() []string { return gen.PresetNames() }

// PaperExample returns the paper's Figure 1 running-example network, its
// start vertex, and the category names of the example query ⟨Asian
// Restaurant, Arts & Entertainment, Gift Shop⟩.
func PaperExample() (*Engine, VertexID, []string) {
	ds, vq, cats := gen.PaperExample()
	names := make([]string, len(cats))
	for i, c := range cats {
		names[i] = ds.Forest.Name(c)
	}
	return newEngine(ds), vq, names
}

// HasTimeProfiles reports whether the current dataset version carries
// time-dependent edge profiles. Static datasets answer identically for
// every SearchOptions.DepartAt.
func (e *Engine) HasTimeProfiles() bool { return e.snap().ds.Graph.HasTimeProfiles() }

// TimePeriod returns the length of the dataset's time domain — the
// period its edge profiles repeat over (86400, one day in seconds, when
// none was declared). SearchOptions.DepartAt values wrap around it.
func (e *Engine) TimePeriod() float64 { return e.snap().ds.Graph.TimePeriod() }

// NumTimeProfiles returns the number of edges carrying a time-dependent
// profile in the current dataset version.
func (e *Engine) NumTimeProfiles() int {
	if tt := e.snap().ds.Graph.TimeTable(); tt != nil {
		return tt.NumProfiles()
	}
	return 0
}

// AttachTimeProfiles generates deterministic rush-hour travel-time
// profiles (two congestion peaks over the day, free flow elsewhere; see
// internal/gen) on the given fraction of edges and applies them as one
// live-update batch. Every generated profile's minimum equals the edge's
// current weight, so the lower-bound graph — and with it every resident
// category-index row — is unchanged and carried across the update. It
// returns the number of edges profiled. skysr-gen -time-profiles and the
// timedep benchmark build their workloads with it.
func (e *Engine) AttachTimeProfiles(frac float64, seed int64) (int, error) {
	if frac < 0 || frac > 1 || math.IsNaN(frac) {
		return 0, fmt.Errorf("skysr: profile fraction %v outside [0, 1]", frac)
	}
	sn := e.pin()
	specs := gen.TimeProfiles(sn.ds, frac, seed)
	sn.release()
	if len(specs) == 0 {
		return 0, nil
	}
	b := new(UpdateBatch)
	b.setProfiles = specs
	if _, err := e.ApplyUpdates(b); err != nil {
		return 0, err
	}
	return len(specs), nil
}

// NumVertices returns the total vertex count (road + PoI).
func (e *Engine) NumVertices() int { return e.snap().ds.Graph.NumVertices() }

// NumPoIs returns the PoI vertex count.
func (e *Engine) NumPoIs() int { return e.snap().ds.Graph.NumPoIs() }

// NumEdges returns the edge count.
func (e *Engine) NumEdges() int { return e.snap().ds.Graph.NumEdges() }

// Name returns the dataset name.
func (e *Engine) Name() string { return e.snap().ds.Name }

// Stats returns a Table 5-style dataset summary line.
func (e *Engine) Stats() string { return e.snap().ds.Stats().String() }

// Categories returns every category name in the forest, in id order.
func (e *Engine) Categories() []string {
	f := e.snap().ds.Forest
	out := make([]string, f.NumCategories())
	for c := 0; c < f.NumCategories(); c++ {
		out[c] = f.Name(taxonomy.CategoryID(c))
	}
	return out
}

// LeafCategories returns the leaf category names (the ones PoIs carry).
func (e *Engine) LeafCategories() []string {
	f := e.snap().ds.Forest
	leaves := f.Leaves()
	out := make([]string, len(leaves))
	for i, c := range leaves {
		out[i] = f.Name(c)
	}
	return out
}

// CategoryCount returns the number of PoIs carrying exactly the named
// category.
func (e *Engine) CategoryCount(name string) (int, error) {
	ds := e.snap().ds
	c, ok := ds.Forest.Lookup(name)
	if !ok {
		return 0, fmt.Errorf("skysr: unknown category %.64q", name)
	}
	return len(ds.PoIsExact(c)), nil
}

// poiName describes a PoI vertex of ds as "Category@id".
func poiName(ds *dataset.Dataset, v VertexID) string {
	if !ds.Graph.IsPoI(v) {
		return fmt.Sprintf("v%d", v)
	}
	return fmt.Sprintf("%s@%d", ds.Forest.Name(ds.Graph.PrimaryCategory(v)), v)
}

// PoIName describes a PoI vertex as "Category@id".
func (e *Engine) PoIName(v VertexID) string { return poiName(e.snap().ds, v) }

// Position returns the lon/lat of a vertex.
func (e *Engine) Position(v VertexID) (lon, lat float64) {
	p := e.snap().ds.Graph.Point(v)
	return p.Lon, p.Lat
}

// Neighbors returns the vertices adjacent to v and the parallel edge
// weights, in the current dataset version. The slices are copies, safe to
// retain across updates. Load generators and update producers use it to
// pick real edges for UpdateBatch edits.
func (e *Engine) Neighbors(v VertexID) ([]VertexID, []float64) {
	ts, ws := e.snap().ds.Graph.Neighbors(v)
	return append([]VertexID(nil), ts...), append([]float64(nil), ws...)
}

// PoIVertices returns the ids of every PoI vertex in the current dataset
// version, ascending. The slice is a copy, safe to retain across updates.
func (e *Engine) PoIVertices() []VertexID {
	return append([]VertexID(nil), e.snap().ds.Graph.PoIVertices()...)
}

// RandomVertex returns a uniformly random vertex, deterministic in seed.
// It is a convenience for examples and load generators.
func (e *Engine) RandomVertex(seed int64) VertexID {
	rng := rand.New(rand.NewSource(seed))
	return VertexID(rng.Intn(e.NumVertices()))
}

// Workload generates n query specs of the paper's §7.1 protocol: random
// start vertices and popular leaf categories from distinct trees.
func (e *Engine) Workload(n, seqLen int, seed int64) ([]Query, error) {
	ds := e.snap().ds
	qs, err := gen.Queries(ds, n, seqLen, seed)
	if err != nil {
		return nil, err
	}
	out := make([]Query, len(qs))
	for i, q := range qs {
		via := make([]Requirement, len(q.Categories))
		for j, c := range q.Categories {
			via[j] = Category(ds.Forest.Name(c))
		}
		out[i] = Query{Start: q.Start, Via: via}
	}
	return out, nil
}

// internalDataset exposes the current snapshot's dataset to the root
// package's tests.
func (e *Engine) internalDataset() *dataset.Dataset { return e.snap().ds }
