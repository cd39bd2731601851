// Package core implements the paper's contribution: the bulk SkySR
// algorithm (BSSR, §5) that answers skyline sequenced route queries with a
// single simultaneous search, pruned by branch-and-bound (Lemmas 5.1–5.3),
// and its four optimization techniques — the NNinit initial search
// (§5.3.1, Algorithm 3), the size/semantic/length priority queue (§5.3.2),
// the semantic- and perfect-match minimum-distance lower bounds (§5.3.3,
// Algorithm 4, Lemma 5.8) and on-the-fly caching of modified-Dijkstra
// results (§5.3.4).
//
// The serving machinery lives here too: Searcher is the single-goroutine
// query workspace, SearcherPool recycles searchers across queries, and
// SharedCache extends the §5.3.4 cache across queries and goroutines. A
// Searcher is bound to one immutable dataset version; cross-version state
// (SharedCache entries) is epoch-stamped via Options.Epoch, so engines
// that mutate their dataset (live updates) never mix distances from
// different graph versions. Every pruning substitution in this package is
// exactness-preserving: answers are identical whichever optimizations,
// caches or indexes are enabled.
package core

import (
	"context"
	"fmt"
	"math"
	"time"

	"skysr/internal/dataset"
	"skysr/internal/dijkstra"
	"skysr/internal/faults"
	"skysr/internal/graph"
	"skysr/internal/index"
	"skysr/internal/pq"
	"skysr/internal/route"
	"skysr/internal/taxonomy"
	"skysr/internal/topk"
	"skysr/internal/trace"
)

// Options configures a Searcher. The zero value is "BSSR w/o Opt": plain
// branch-and-bound with a distance-ordered queue. DefaultOptions enables
// all four optimizations, the configuration the paper calls BSSR.
type Options struct {
	// InitialSearch runs NNinit before the main search to seed the upper
	// bound (§5.3.1).
	InitialSearch bool
	// ProposedQueue orders the route queue by size desc / semantic asc /
	// length asc (§5.3.2) instead of the conventional distance order.
	ProposedQueue bool
	// LowerBounds enables the minimum-distance pruning of §5.3.3.
	LowerBounds bool
	// Caching enables on-the-fly caching of modified-Dijkstra results
	// (§5.3.4).
	Caching bool

	// Aggregation selects the semantic score aggregation (Definition
	// 3.5); the paper evaluates with AggProduct (Eq. 7).
	Aggregation route.Aggregation

	// DepartAt is the absolute departure time of the query at its start
	// vertex, in the dataset's time domain (graph.TimeTable). On datasets
	// with time-dependent profiles every leg is priced at its actual
	// departure time (cost-at-arrival evaluation) and route lengths are
	// travel times; all pruning cuts against the metric's lower-bound
	// graph, so answers stay exact under FIFO. On static datasets the
	// field has no effect — every code path, cache key and trace is
	// byte-identical to a zero DepartAt. Must be non-negative and finite.
	DepartAt float64

	// Shared, when non-nil, additionally serves modified-Dijkstra results
	// from a cross-query cache (see SharedCache). Only plain Category
	// positions participate; the caller must dedicate one SharedCache per
	// (dataset, similarity function) pair. Sharing never changes results —
	// a cached entry is a pure function of the dataset version identified
	// by Epoch.
	Shared *SharedCache

	// Epoch stamps SharedCache traffic with the dataset version the
	// searcher runs against. Engines that support live updates bump it per
	// update batch; entries stamped with another epoch never serve this
	// searcher (their distances describe a different graph). Single-version
	// callers can leave it zero.
	Epoch int64

	// Index, when non-nil, supplies the category-level nearest-matching-PoI
	// distance index (the §9 "preprocessing" future work, package index) —
	// the category-index serving profile. Queries
	// build the rows they need on demand (within the index's memory
	// budget). Resident rows tighten the pruning of partial routes — the
	// next hop costs at least the distance to the nearest PoI of the next
	// position's tree — and when every position's rows are resident the
	// §5.3.3 lower bounds come from index lookups instead of per-query
	// Dijkstras. Answers are identical either way; only latency changes.
	// Create one with index.New and share it across searchers.
	Index *index.CategoryDistances

	// TopK selects ranked top-k enumeration (package topk): the answer is
	// the k-skyband of the achieved score points — the k shortest
	// score-distinct routes per similarity level — instead of the single
	// best skyline. 0 and 1 both mean the classic skyline, where every
	// code path is identical to a plain query. For k > 1 the expansion
	// keeps running past the first completion per level, every pruning
	// rule cuts against the current k-th-best length, and the query runs
	// without the Lemma 5.5 path filter (a candidate reached through a
	// more-similar PoI yields a dominated route, and dominated routes are
	// exactly what a k-band must keep). The filter is switched per query,
	// leaving these options as given; its absence also keeps k > 1
	// traffic out of the SharedCache, whose entries embed the filter's
	// annotations. Ordered, destination and unordered queries support it;
	// the rated three-criteria query and the naive baselines do not.
	TopK int

	// DisablePathFilter turns off the Lemma 5.5 path filtering inside the
	// modified Dijkstra. It exists for the ablation benchmarks; leave it
	// false for normal use.
	DisablePathFilter bool

	// Context, when non-nil, is observed by every search loop: once it is
	// cancelled the query unwinds within one check stride (see
	// cancel.go), returning ErrCancelled (or ErrDeadlineExceeded for a
	// context deadline) with partial Stats. A nil Context leaves every
	// code path byte-identical to the classic engine.
	Context context.Context
}

// DefaultOptions is full BSSR: all four optimizations on.
func DefaultOptions() Options {
	return Options{
		InitialSearch: true,
		ProposedQueue: true,
		LowerBounds:   true,
		Caching:       true,
		Aggregation:   route.AggProduct,
	}
}

// WithoutOptimizations is the paper's "BSSR w/o Opt" ablation.
func WithoutOptimizations() Options {
	return Options{Aggregation: route.AggProduct}
}

// Result carries the answer and instrumentation of one query.
type Result struct {
	// Routes is the minimal set S of skyline sequenced routes, sorted by
	// ascending length (descending semantic follows from minimality).
	Routes []*route.Route
	// Stats instruments the run.
	Stats Stats
}

// resultSet is the container of complete routes the search fills: the
// classic skyline for k ≤ 1 runs, the top-k band otherwise. Both share
// the exact-pruning contract — Threshold is the length at which a route
// of the given semantic score is provably outside the answer, and
// CoversPoint witnesses that no completion scoring at-or-beyond a point
// can enter it — so the search loop, the §5.3.3 bounds and the index
// prune are written once against this interface.
type resultSet interface {
	Update(*route.Route) bool
	Len() int
	Routes() []*route.Route
	Threshold(sem float64) float64
	ThresholdPerfect() float64
	CoversPoint(l, sem float64) bool
}

// effectiveTopK normalizes Options.TopK: 0 and 1 (and anything below)
// mean the classic skyline.
func (o Options) effectiveTopK() int {
	if o.TopK > 1 {
		return o.TopK
	}
	return 1
}

// newResultSet returns the per-query result container for an effective
// k: the classic skyline for k = 1 (so single-best queries run
// byte-identically to always), the top-k band otherwise. It is a variable
// so tests can substitute a set that records what the search offers it.
var newResultSet = func(k int) resultSet {
	if k > 1 {
		return topk.NewSkyband(k)
	}
	return route.NewSkyline()
}

// Searcher answers SkySR queries over one dataset. It is not safe for
// concurrent use; create one per goroutine (they share the immutable
// Dataset).
type Searcher struct {
	d    *dataset.Dataset
	opts Options
	sim  taxonomy.Similarity
	ws   *dijkstra.Workspace

	// Per-query state, armed by begin. pathFilter is whether the Lemma 5.5
	// path filter applies to this query's modified Dijkstras.
	began      time.Time
	pathFilter bool
	seq        route.Sequence
	scorer     route.Scorer
	sky        resultSet
	stats      Stats
	cache      map[cacheKey]*cacheEntry
	cacheBytes int64 // resident bytes of cache (entryBytes), for PeakCacheBytes
	bounds     *bounds
	destDist   []float64      // D(u, dest) for every vertex u (computePotentials); nil without a destination
	pot        []index.Row    // cost-to-go rows of a destination query (computePotentials); nil without one
	idxRows    indexRows      // per-position index rows resolved for this query
	blockers   []blocker      // per vertex: the Lemma 5.5 blocker it passes on in a modified Dijkstra, lazily sized
	scr        *boundsScratch // epoch-stamped §5.3.3 scratch arrays, lazily sized

	// stopsAtPerfect[i] is whether position i's modified Dijkstras may
	// stop at every perfect match (perfectStops); empty without the path
	// filter.
	stopsAtPerfect []bool

	// Cost-metric state (begin). td is true when the dataset carries
	// time-dependent profiles, and then every search prices arcs at their
	// arrival time; depart is the query's departure time; dest is the
	// query's destination (NoVertex for none); legWS is the dedicated
	// workspace for exact destination-leg pricing (the shared ws may be
	// mid-run when a leg is priced from inside an OnSettle callback).
	td     bool
	depart float64
	dest   graph.VertexID
	legWS  *dijkstra.Workspace

	// Destination-sweep state (reverseSweep): revG is the arc-reversed
	// graph of a directed network and revLegWS its Dijkstra workspace,
	// both built once and kept across pooled reuse.
	revG     *graph.Graph
	revLegWS *dijkstra.Workspace

	// cc is the per-query cancellation state (cancel.go); inert unless
	// Options.Context is set.
	cc canceller

	// span/legs are the per-query explain state (tracespan.go); nil
	// unless Options.Context carries a trace.
	span *trace.Span
	legs []legTrace
}

// expandDepart returns the absolute time at which an expansion from the
// end of r departs: the query departure plus the route's travel time so
// far. Static queries always see 0, keeping their cache keys identical
// to the classic code.
func (s *Searcher) expandDepart(r *route.Route) float64 {
	if !s.td {
		return 0
	}
	return s.depart + r.Length()
}

// indexRows is the per-query view of Options.Index: the distance rows each
// position can use, resolved once per query so hot-path lookups are plain
// slice indexing.
type indexRows struct {
	// covered reports that every position is a plain Category matcher
	// with both rows resident — the precondition for deriving the §5.3.3
	// bounds from the index instead of per-query Dijkstras.
	covered bool
	any     bool                  // at least one sem row is available
	sem     []index.Row           // per position: tree-root row (semantic-match LB), nil if absent
	perf    []index.Row           // per position: the category's own row, nil if absent
	cats    []taxonomy.CategoryID // per position: category id, NoCategory for non-Category matchers
	roots   []taxonomy.CategoryID // per position: tree root of cats, NoCategory likewise
}

// prepareIndexRows resolves the per-position index rows for the current
// sequence. Missing rows are built now (one multi-source Dijkstra each,
// amortized across every later query naming the category).
func (s *Searcher) prepareIndexRows() {
	s.idxRows = indexRows{}
	ci := s.opts.Index
	if ci == nil {
		return
	}
	k := len(s.seq)
	ir := &s.idxRows
	ir.sem = make([]index.Row, k)
	ir.perf = make([]index.Row, k)
	ir.cats = make([]taxonomy.CategoryID, k)
	ir.roots = make([]taxonomy.CategoryID, k)
	ir.covered = true
	for i, m := range s.seq {
		ir.cats[i], ir.roots[i] = taxonomy.NoCategory, taxonomy.NoCategory
		c, ok := m.(*route.Category)
		if !ok {
			ir.covered = false
			continue
		}
		cat := c.ID()
		root := s.d.Forest.Root(cat)
		ir.cats[i], ir.roots[i] = cat, root
		ir.sem[i] = ci.Row(root)
		ir.perf[i] = ci.Row(cat)
		if ir.sem[i] == nil || ir.perf[i] == nil {
			ir.covered = false
		}
		if ir.sem[i] != nil {
			ir.any = true
		}
	}
	s.stats.IndexCovered = ir.covered
}

// noSemanticReachable reports that the index proves no semantically
// matching PoI of position i is reachable from v (tree-row entry +Inf).
// False when no row is available — absence of a row never prunes.
func (ir *indexRows) noSemanticReachable(i int, v graph.VertexID) bool {
	if i >= len(ir.sem) {
		return false
	}
	row := ir.sem[i]
	return row != nil && math.IsInf(float64(row[v]), 1)
}

// noPerfectReachable reports that the index proves no perfectly matching
// PoI of position i is reachable from v: perfect matches are a subset of
// the category's associated PoIs (its own row) and of the tree's (the sem
// row), so +Inf in either row suffices.
func (ir *indexRows) noPerfectReachable(i int, v graph.VertexID) bool {
	if i >= len(ir.perf) {
		return false
	}
	if row := ir.perf[i]; row != nil && math.IsInf(float64(row[v]), 1) {
		return true
	}
	return ir.noSemanticReachable(i, v)
}

// NewSearcher returns a Searcher with the given options, scoring category
// similarity with sim (use d.Forest.WuPalmer for the paper's Eq. 6).
func NewSearcher(d *dataset.Dataset, sim taxonomy.Similarity, opts Options) *Searcher {
	return &Searcher{d: d, opts: opts, sim: sim, ws: dijkstra.New(d.Graph)}
}

// Dataset returns the dataset the searcher queries.
func (s *Searcher) Dataset() *dataset.Dataset { return s.d }

// QueryCategories answers the basic SkySR query of the paper: one plain
// category per position.
func (s *Searcher) QueryCategories(start graph.VertexID, cats ...taxonomy.CategoryID) (*Result, error) {
	return s.Query(start, route.NewCategorySequence(s.d.Forest, s.sim, cats...))
}

// Query answers a SkySR query with generalized per-position requirements
// (§6 extensions compose here).
func (s *Searcher) Query(start graph.VertexID, seq route.Sequence) (*Result, error) {
	return s.query(start, seq, graph.NoVertex)
}

// QueryWithDestination answers the "SkySR with destination" variant (§6):
// the length score additionally counts the leg from the last PoI to dest.
func (s *Searcher) QueryWithDestination(start graph.VertexID, seq route.Sequence, dest graph.VertexID) (*Result, error) {
	if dest < 0 || int(dest) >= s.d.Graph.NumVertices() {
		return nil, fmt.Errorf("core: invalid destination %d", dest)
	}
	return s.query(start, seq, dest)
}

func (s *Searcher) query(start graph.VertexID, seq route.Sequence, dest graph.VertexID) (*Result, error) {
	if err := s.begin(start, seq, true); err != nil {
		return nil, err
	}
	if dest != graph.NoVertex {
		s.dest = dest
		s.computePotentials(dest)
	}

	// Optimization 1: seed the upper bound with NNinit (§5.3.1).
	if s.opts.InitialSearch && !s.cc.cancelled() {
		s.runNNinit(start)
	}
	// Optimization 3: possible minimum distances (§5.3.3, Algorithm 4).
	if s.opts.LowerBounds && !s.cc.cancelled() {
		s.computeBounds(start)
	}

	// Main loop: Algorithm 1.
	qb := pq.NewHeap(s.routeLess)
	if !s.cc.cancelled() {
		s.expand(route.Empty(s.scorer), start, qb)
	}
	for qb.Len() > 0 {
		faults.Fire(faults.RoutePop)
		if s.cc.tick() {
			break
		}
		r := qb.Pop()
		s.stats.RoutesPopped++
		lg := s.legHook(r.Size())
		if lg != nil {
			lg.popped++
		}
		// Re-check the Lemma 5.3 threshold at pop time: S may have
		// improved since r was enqueued (Table 4 steps 6 and 9).
		threshold := s.sky.Threshold(r.Semantic())
		if r.Length() >= threshold {
			s.stats.PrunedThreshold++
			if lg != nil {
				lg.prunedThreshold++
			}
			continue
		}
		s.noteTopKPop(r)
		if s.pruneByPotential(r, threshold) {
			s.stats.PrunedByBounds++
			if lg != nil {
				lg.prunedBounds++
			}
			continue
		}
		if s.idxRows.any && s.pruneByIndex(r, threshold) {
			s.stats.PrunedByIndex++
			if lg != nil {
				lg.prunedIndex++
			}
			continue
		}
		if s.bounds != nil && s.bounds.prune(r, s.sky, s.scorer) {
			s.stats.PrunedByBounds++
			if lg != nil {
				lg.prunedBounds++
			}
			continue
		}
		s.expand(r, r.Last(), qb)
	}

	if err := s.finish(s.sky.Len()); err != nil {
		// Interrupted: the skyline may be missing routes a finished search
		// would have found, so only the instrumentation is returned.
		return &Result{Stats: s.stats}, err
	}
	return &Result{Routes: s.sky.Routes(), Stats: s.stats}, nil
}

// begin arms one query of the ordered (Algorithm 1), rated or unordered
// loop: it validates start, sequence and departure time, establishes the
// cost metric and the canceller, resets every piece of per-query state
// and opens the query span. ordered selects the classic loop, the only
// one with per-leg span aggregates and the only one the Lemma 5.5 path
// filter is sound for; the filter further needs k = 1 (see Options.TopK)
// and Options.DisablePathFilter unset. Static datasets always see td ==
// false (and a depart of whatever was asked — it has no observable
// effect), so every classic code path stays byte-identical.
func (s *Searcher) begin(start graph.VertexID, seq route.Sequence, ordered bool) error {
	if len(seq) == 0 {
		return fmt.Errorf("core: empty sequence")
	}
	if start < 0 || int(start) >= s.d.Graph.NumVertices() {
		return fmt.Errorf("core: invalid start vertex %d", start)
	}
	depart := s.opts.DepartAt
	if depart < 0 || math.IsNaN(depart) || math.IsInf(depart, 0) {
		return fmt.Errorf("core: departure time %v is not non-negative and finite", depart)
	}
	s.td = s.d.Graph.TimeVarying()
	s.depart = depart
	s.dest = graph.NoVertex
	if err := s.initCancel(); err != nil {
		return err
	}
	s.began = time.Now()
	k := s.opts.effectiveTopK()
	s.pathFilter = ordered && k == 1 && !s.opts.DisablePathFilter
	s.seq = seq
	s.stopsAtPerfect = s.stopsAtPerfect[:0]
	if s.pathFilter {
		s.stopsAtPerfect = s.perfectStops(s.stopsAtPerfect)
	}
	s.scorer = route.NewScorer(s.opts.Aggregation, len(seq))
	s.sky = newResultSet(k)
	s.stats = Stats{InitPerfectL: math.Inf(1), TopK: k}
	s.cache = nil
	s.cacheBytes = 0
	if s.opts.Caching {
		s.cache = make(map[cacheKey]*cacheEntry)
	}
	s.bounds = nil
	s.destDist = nil
	s.pot = nil
	s.prepareIndexRows()
	s.initTrace(ordered)
	return nil
}

// finish closes the query begin armed: it stamps QueryTime, records the
// answer size and the top-k band's counters, and closes the span. The
// on-the-fly cache is freed (§5.3.4): it rarely helps across different
// inputs. The returned error is the cancellation that cut the query
// short, if any.
func (s *Searcher) finish(results int) error {
	s.stats.QueryTime = time.Since(s.began)
	s.stats.Results = results
	if sb, ok := s.sky.(*topk.Skyband); ok {
		s.stats.TopKEvictions = sb.Evictions()
		s.stats.TopKLevels = sb.Levels()
	}
	s.finishTrace(s.cc.err)
	s.cache = nil
	return s.cc.err
}

// noteTopKPop counts the pops a k > 1 run performs beyond what a k = 1
// run would: the popped route survived the k-th-best threshold but would
// have died against the classic best-length threshold.
func (s *Searcher) noteTopKPop(r *route.Route) {
	if s.stats.TopK <= 1 {
		return
	}
	if sb, ok := s.sky.(*topk.Skyband); ok && r.Length() >= sb.BestThreshold(r.Semantic()) {
		s.stats.TopKExtraPops++
	}
}

// routeLess is the route-queue order of every search loop: the proposed
// priority (§5.3.2) or the conventional distance order, with
// deterministic tie-breaks.
func (s *Searcher) routeLess(a, b *route.Route) bool {
	if s.opts.ProposedQueue {
		if a.Size() != b.Size() {
			return a.Size() > b.Size()
		}
		if a.Semantic() != b.Semantic() {
			return a.Semantic() < b.Semantic()
		}
		if a.Length() != b.Length() {
			return a.Length() < b.Length()
		}
		return a.Last() < b.Last()
	}
	if a.Length() != b.Length() {
		return a.Length() < b.Length()
	}
	if a.Size() != b.Size() {
		return a.Size() > b.Size()
	}
	return a.Last() < b.Last()
}

// expand runs the modified Dijkstra for the next position of r (Algorithm
// 2) and routes each found PoI into the queue or the skyline set.
func (s *Searcher) expand(r *route.Route, from graph.VertexID, qb *pq.Heap[*route.Route]) {
	k := len(s.seq)
	cands := s.nextPoIs(r, from)
	for _, c := range cands {
		if r.Contains(c.v) {
			continue // Definition 3.4(iii)
		}
		// Lemma 5.5: skip candidates reached through a PoI at least as
		// similar — unless that blocker is already used by this route or
		// can serve a later position, in which case the substitution the
		// lemma relies on may be infeasible.
		if s.pathFilter && c.block.sim >= c.sim && c.block.v != graph.NoVertex &&
			!r.Contains(c.block.v) && !s.servesOther(c.block.v, r.Size(), r.Size()+1) {
			continue
		}
		rt := r.Extend(s.scorer, c.v, c.dist, c.sim)
		complete := rt.Size() == k
		if complete && s.hasDest() {
			var ok bool
			if rt, ok = s.completeToDest(rt); !ok {
				continue // destination unreachable, or leg provably too long
			}
		}
		// Line 10: the Eq. 3 threshold for rt's own semantic score.
		threshold := s.sky.Threshold(rt.Semantic())
		if rt.Length() >= threshold {
			continue
		}
		if complete {
			s.sky.Update(rt)
			continue
		}
		// Enqueue-time forms of the cost-to-go and index prunes: a route
		// they already condemn would be pruned at pop (the threshold only
		// shrinks in the meantime), so don't queue it at all.
		if s.pruneByPotential(rt, threshold) {
			s.stats.PrunedByBounds++
			if lg := s.legHook(rt.Size()); lg != nil {
				lg.prunedBounds++
			}
			continue
		}
		if s.idxRows.any && s.pruneByIndex(rt, threshold) {
			s.stats.PrunedByIndex++
			if lg := s.legHook(rt.Size()); lg != nil {
				lg.prunedIndex++
			}
			continue
		}
		qb.Push(rt)
		s.stats.RoutesEnqueued++
		if lg := s.legHook(rt.Size() - 1); lg != nil {
			lg.enqueued++
		}
		if qb.Len() > s.stats.PeakQueueLen {
			s.stats.PeakQueueLen = qb.Len()
		}
	}
}

// servesOther reports whether PoI v semantically matches a position
// j ≥ from other than pos. A route may then use v at j, so Lemma 5.5
// cannot substitute v for a candidate of pos behind it: the substitute
// would visit v twice.
func (s *Searcher) servesOther(v graph.VertexID, pos, from int) bool {
	cats := s.d.Graph.Categories(v)
	for j := from; j < len(s.seq); j++ {
		if j != pos && s.seq[j].Sim(cats) > 0 {
			return true
		}
	}
	return false
}

// perfectStops appends to buf, for each position of a query run with the
// Lemma 5.5 filter, whether none of its perfect matches serves another
// position. Its modified Dijkstras then stop at every perfect match, as
// Lemma 5.5 (ii) has them, whatever the rest of the query is; otherwise
// they decide per match (see runMDijkstra). Only plain Category matchers
// can report true.
func (s *Searcher) perfectStops(buf []bool) []bool {
	for i, m := range s.seq {
		c, ok := m.(*route.Category)
		stops := ok
		if ok {
			for _, p := range s.d.PoIsExact(c.ID()) {
				if s.servesOther(p, i, 0) {
					stops = false
					break
				}
			}
		}
		buf = append(buf, stops)
	}
	return buf
}

// pruneByIndex applies the precomputed index lower bound against the
// threshold r must beat: the next hop of any completion of r costs at
// least the distance from r's end to the nearest PoI of the next
// position's tree (a row lookup); later hops are additionally bounded by
// the §5.3.3 suffix when available. The ordered and rated loops share it.
func (s *Searcher) pruneByIndex(r *route.Route, threshold float64) bool {
	m := r.Size()
	if m == 0 || m >= len(s.seq) {
		return false
	}
	row := s.idxRows.sem[m]
	if row == nil {
		return false
	}
	bound := r.Length() + float64(row[r.Last()])
	if s.bounds != nil {
		bound += s.bounds.lsSuffix[m] // hops after the first
	}
	return bound >= threshold
}

// pruneByPotential reports that r cannot visit its remaining positions
// and reach the query destination before threshold: its length plus the
// cost-to-go row of its size at its last PoI (computePotentials) already
// reaches it. Always false without a destination.
func (s *Searcher) pruneByPotential(r *route.Route, threshold float64) bool {
	row := s.potRow(r.Size())
	return row != nil && r.Length()+float64(row[r.Last()]) >= threshold
}

// potRow returns the cost-to-go row of position pos — the row that cuts
// the modified Dijkstras of routes holding pos PoIs, and those routes
// themselves — or nil when there is none: no destination, or pos 0.
func (s *Searcher) potRow(pos int) index.Row {
	if pos < 1 || pos >= len(s.pot) {
		return nil
	}
	return s.pot[pos]
}

// completeToDest appends the final leg to the destination (§6) to a
// complete route. Static queries read the exact reverse-Dijkstra table.
// Time-dependent queries treat that table — computed on the lower-bound
// graph — as an admissible bound: routes it already condemns against the
// current threshold are dropped without further work (the exact leg can
// only be longer), and the survivors price the leg exactly with a
// forward cost-at-arrival search departing at the route's arrival time.
func (s *Searcher) completeToDest(rt *route.Route) (*route.Route, bool) {
	lb := s.destDist[rt.Last()]
	if math.IsInf(lb, 1) {
		return nil, false // destination unreachable from this PoI
	}
	if !s.td {
		return rt.AddLength(lb), true
	}
	budget := s.sky.Threshold(rt.Semantic()) - rt.Length()
	if lb >= budget {
		return nil, false
	}
	leg := s.destLeg(rt.Last(), s.depart+rt.Length(), budget)
	if math.IsInf(leg, 1) {
		return nil, false
	}
	return rt.AddLength(leg), true
}

// destLeg is the exact time-dependent travel time from v to the query
// destination departing at depart, or +Inf when it is not reachable
// within budget (a leg that long makes the route fail its threshold
// anyway, so bounding the search loses nothing while sparing a
// full-graph sweep per surviving completion). It runs on a dedicated
// workspace: leg pricing can be requested from inside another search's
// OnSettle callback (NNinit seeding), where the shared workspace is
// mid-run.
func (s *Searcher) destLeg(v graph.VertexID, depart, budget float64) float64 {
	if v == s.dest {
		return 0
	}
	s.stats.DestLegRuns++
	began := time.Now()
	defer func() { s.stats.DestLegTime += time.Since(began) }()
	if s.legWS == nil {
		s.legWS = dijkstra.New(s.d.Graph)
	}
	faults.Fire(faults.DestLeg)
	if s.cc.checkpoint() {
		return math.Inf(1)
	}
	bound := budget
	if math.IsInf(bound, 1) {
		bound = 0 // unbounded
	}
	found := math.Inf(1)
	s.stats.SettledVertices += int64(s.legWS.Run(dijkstra.Options{
		Sources:       []graph.VertexID{v},
		Bound:         bound,
		TimeDependent: s.td,
		DepartAt:      depart,
		Halt:          s.cc.halt(),
		OnSettle: func(x graph.VertexID, d float64) dijkstra.Control {
			if x == s.dest {
				found = d
				return dijkstra.Stop
			}
			return dijkstra.Continue
		},
	}))
	return found
}

// hasDest reports that the current query carries a destination (§6).
// begin resets dest at the start of every query, so this is safe to
// consult anywhere inside a run.
func (s *Searcher) hasDest() bool { return s.dest != graph.NoVertex }

// reversedGraph returns the graph to search destination legs on —
// arc-reversed for directed networks — built once per searcher and kept
// across pooled reuse (the dataset is immutable for the searcher's
// lifetime).
func (s *Searcher) reversedGraph() *graph.Graph {
	if s.revG == nil {
		s.revG = s.d.Graph.Reversed()
	}
	return s.revG
}

// computePotentials prepares a destination query (§6): destDist holds
// D(u, dest) for every vertex u, and pot[i], for i from k−1 down to 1
// (k = len(seq)), lower-bounds the cost of finishing a route from u by
// visiting positions i..k−1 in order and then the destination: the
// minimum, over the semantic matches c of position i, of D(u, c) plus
// the next row's value at c (destDist for i = k−1) — one reverse
// multi-source sweep seeded at every such c at that value. Position 0
// gets no row: only the single expansion of the empty route could use it.
// Like the category index's rows, pot rows are rounded down to float32,
// so they stay lower bounds and cut the modified Dijkstra through the
// same goal-row code. The reverse graph carries no time table, so on
// time-dependent datasets every value is a lower-bound distance (see
// completeToDest).
func (s *Searcher) computePotentials(dest graph.VertexID) {
	k := len(s.seq)
	g := s.d.Graph
	n := g.NumVertices()
	s.destDist = make([]float64, n)
	for v := range s.destDist {
		s.destDist[v] = math.Inf(1)
	}
	s.reverseSweep([]graph.VertexID{dest}, nil, func(v graph.VertexID, d float64) { s.destDist[v] = d })
	s.pot = make([]index.Row, k)
	for i := k - 1; i >= 1; i-- {
		var seeds []graph.VertexID
		var at []float64
		for _, c := range g.PoIVertices() {
			d := s.destDist[c]
			if i < k-1 {
				d = float64(s.pot[i+1][c])
			}
			if !math.IsInf(d, 1) && s.seq[i].Sim(g.Categories(c)) > 0 {
				seeds = append(seeds, c)
				at = append(at, d)
			}
		}
		row := make(index.Row, n)
		for v := range row {
			row[v] = float32(math.Inf(1))
		}
		s.reverseSweep(seeds, at, func(v graph.VertexID, d float64) { row[v] = index.RoundDown32(d) })
		s.pot[i] = row
	}
}

// reverseSweep runs one Dijkstra on the reverse graph, so directed
// networks are handled correctly, from sources at the start distances at
// (zero when at is nil), and reports every settled vertex with its
// distance to the sources. Each sweep is charged as one DestLegRuns, to
// DestLegTime and to SettledVertices.
func (s *Searcher) reverseSweep(sources []graph.VertexID, at []float64, settle func(graph.VertexID, float64)) {
	s.stats.DestLegRuns++
	began := time.Now()
	defer func() { s.stats.DestLegTime += time.Since(began) }()
	rg := s.reversedGraph()
	ws := s.ws
	if rg != s.d.Graph {
		if s.revLegWS == nil {
			s.revLegWS = dijkstra.New(rg)
		}
		ws = s.revLegWS
	}
	s.stats.SettledVertices += int64(ws.Run(dijkstra.Options{
		Sources:    sources,
		SourceDist: at,
		Halt:       s.cc.halt(),
		OnSettle: func(v graph.VertexID, d float64) dijkstra.Control {
			settle(v, d)
			return dijkstra.Continue
		},
	}))
}
