// Package core implements the paper's contribution: the bulk SkySR
// algorithm (BSSR, §5) that answers skyline sequenced route queries with a
// single simultaneous search, pruned by branch-and-bound (Lemmas 5.1–5.3),
// and its four optimization techniques — the NNinit initial search
// (§5.3.1, Algorithm 3), the size/semantic/length priority queue (§5.3.2),
// the semantic- and perfect-match minimum-distance lower bounds (§5.3.3,
// Algorithm 4, Lemma 5.8) and on-the-fly caching of modified-Dijkstra
// results (§5.3.4).
//
// One branch-and-bound loop (search, Algorithm 1) answers every query
// shape: ordered queries with or without a destination (§5, §6), the
// unordered skyline trip planning query (§6) and the rated query with
// ratings as a third criterion (§9). The shapes differ only in the
// positions a route's next PoI may serve and in the result set that
// ranks complete routes; Query, QueryWithDestination, QueryUnordered and
// QueryRated pick those two and seed the search.
//
// The serving machinery lives here too: Searcher is the single-goroutine
// query workspace, SearcherPool recycles searchers across queries, and
// SharedCache extends the §5.3.4 cache across queries and goroutines. It
// also keeps the cost-to-go rows of ordered queries: per position, a
// lower bound on the rest of the sequence from every vertex (the §6
// destination rows with the last position's tree row in the
// destination's place), which cut the modified Dijkstras and the routes
// of every query sharing that suffix of tree roots.
// Searchers, pools and shared caches are each bound to one immutable
// dataset version; an engine that mutates its dataset (live updates)
// gives every version its own, so distances from different graph versions
// never mix. Every pruning substitution in this package is
// exactness-preserving: answers are identical whichever optimizations,
// caches or indexes are enabled.
package core

import (
	"context"
	"encoding/binary"
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
	// from a cross-query cache (see SharedCache), and gives every ordered
	// query without a destination whose positions are all plain categories
	// a cost-to-go row per position but the last, kept in that cache, once
	// the queries that missed the row have paid its rent (see
	// sharedPotentials; the rows need Index for the last position's tree
	// row). Only plain Category positions participate; the caller must
	// dedicate one SharedCache per (dataset version, similarity function)
	// pair. Sharing never changes results — a cached entry or row is a
	// pure function of that dataset version.
	Shared *SharedCache

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
	// annotations. Ordered, destination and unordered queries support it:
	// their result set is the band. The rated query ranks routes on a
	// three-criteria skyline, which has no band, so it rejects k > 1.
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

// resultSet is the two-criteria container of complete routes the search
// fills: the classic skyline for k ≤ 1 runs, the top-k band otherwise.
// Both share the exact-pruning contract — Threshold is the length at
// which a route of the given semantic score is provably outside the
// answer, and CoversPoint witnesses that no completion scoring
// at-or-beyond a point can enter it — so the search loop, the §5.3.3
// bounds and the index prune are written once against this interface.
// A rated query ranks routes on a route.Skyline3 instead (see
// Searcher.threshold).
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
	// path filter applies to this query's modified Dijkstras. A rated
	// query fills sky3 and leaves sky nil; every other query fills sky.
	began      time.Time
	shape      shape
	pathFilter bool
	seq        route.Sequence
	scorer     route.Scorer
	sky        resultSet
	sky3       *route.Skyline3
	stats      Stats
	cache      map[cacheKey]*cacheEntry
	cacheBytes int64 // resident bytes of cache (entryBytes), for PeakCacheBytes
	bounds     *bounds
	destDist   []float64      // D(u, dest) for every vertex u (computePotentials); nil without a destination
	pot        []index.Row    // cost-to-go rows by position (computePotentials, sharedPotentials); see potRow
	potKey     string         // tree roots of every position when pot came from the SharedCache, "" otherwise
	rent       []int64        // with potKey: vertices settled by runs at each position, paid to the rows it lacks (payRent)
	idxRows    indexRows      // per-position index rows resolved for this query
	blockers   []blocker      // per vertex: the Lemma 5.5 blocker it passes on in a modified Dijkstra, lazily sized
	seeds      []candidate    // NNinit's last-stage matches (lastStage), reused across queries
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
	if err := s.begin(start, seq, ordered); err != nil {
		return nil, err
	}
	if dest != graph.NoVertex {
		s.dest = dest
		s.computePotentials(dest)
	} else {
		s.sharedPotentials()
	}
	// Optimization 1: seed the upper bound with NNinit (§5.3.1).
	if s.opts.InitialSearch && !s.cc.cancelled() {
		s.runNNinit(start)
	}
	// Optimization 3: possible minimum distances (§5.3.3, Algorithm 4),
	// restricted to the l̄(∅) radius around the start.
	if s.opts.LowerBounds && !s.cc.cancelled() {
		s.computeBounds(start, s.sky.ThresholdPerfect())
	}
	res, err := s.search(start, 0)
	s.payRent()
	return res, err
}

// shape is the form of query the search loop answers. It decides what
// begin arms: the result set, the Lemma 5.5 path filter and how the leg
// spans are labelled.
type shape uint8

const (
	ordered   shape = iota // Algorithm 1 (§5), with or without a destination (§6)
	unordered              // the skyline trip planning query (§6)
	rated                  // ratings as a third criterion (§9)
)

// entry is one route on the search queue. open names the positions the
// route's next PoI may serve: 0 stands for position r.Size() alone (an
// ordered or rated query), otherwise it is the set of positions an
// unordered route has not served yet. pen is a rated route's rating
// penalty Σ (1 − rating/MaxRating) over its PoIs, and 0 on every other
// query.
type entry struct {
	r    *route.Route
	open uint32
	pen  float64
}

// begin arms one query of the search loop: it validates start, sequence
// and departure time, establishes the cost metric and the canceller,
// resets every piece of per-query state, picks the result set of the
// query's shape and opens the query span. The Lemma 5.5 path filter is
// sound only for ordered queries: on an unordered one a PoI reached
// through a perfect match of one position may serve another, and on a
// rated one a more similar blocker may be worse rated. It further needs
// k = 1 (see Options.TopK) and Options.DisablePathFilter unset. Static
// datasets always see td == false (and a depart of whatever was asked —
// it has no observable effect), so every classic code path stays
// byte-identical.
func (s *Searcher) begin(start graph.VertexID, seq route.Sequence, sh shape) error {
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
	s.shape = sh
	s.pathFilter = sh == ordered && k == 1 && !s.opts.DisablePathFilter
	s.seq = seq
	s.stopsAtPerfect = s.stopsAtPerfect[:0]
	if s.pathFilter {
		s.stopsAtPerfect = s.perfectStops(s.stopsAtPerfect)
	}
	s.scorer = route.NewScorer(s.opts.Aggregation, len(seq))
	s.sky, s.sky3 = nil, nil
	if sh == rated {
		s.sky3 = route.NewSkyline3()
	} else {
		s.sky = newResultSet(k)
	}
	s.stats = Stats{InitPerfectL: math.Inf(1), TopK: k}
	s.cache = nil
	s.cacheBytes = 0
	if s.opts.Caching {
		s.cache = make(map[cacheKey]*cacheEntry)
	}
	s.bounds = nil
	s.destDist = nil
	s.pot = nil
	s.potKey = ""
	s.rent = s.rent[:0]
	s.prepareIndexRows()
	s.initTrace()
	return nil
}

// finish closes the query begin armed: it stamps QueryTime, records the
// answer size and the top-k band's counters, and closes the span. The
// on-the-fly cache is freed (§5.3.4): it rarely helps across different
// inputs. The returned error is the cancellation that cut the query
// short, if any.
func (s *Searcher) finish() error {
	s.stats.QueryTime = time.Since(s.began)
	if s.sky3 != nil {
		s.stats.Results = s.sky3.Len()
	} else {
		s.stats.Results = s.sky.Len()
	}
	if sb, ok := s.sky.(*topk.Skyband); ok {
		s.stats.TopKEvictions = sb.Evictions()
		s.stats.TopKLevels = sb.Levels()
	}
	s.finishTrace(s.cc.err)
	s.cache = nil
	return s.cc.err
}

// search is Algorithm 1, the main loop of every query shape: it expands
// the empty route at start, whose next PoI may serve the positions in
// open (see entry), then pops routes in queue order until none is left.
// A popped route is dropped by the Eq. 3 threshold its result set gives
// it (re-checked at pop: the set may have improved since the route was
// enqueued, Table 4 steps 6 and 9) or by the prune list (pruned);
// otherwise the modified Dijkstra from its last PoI extends it. The
// Result carries the two-criteria answer; a rated query reads its own
// from sky3.
func (s *Searcher) search(start graph.VertexID, open uint32) (*Result, error) {
	qb := pq.NewHeap(s.entryLess)
	if !s.cc.cancelled() {
		s.expand(entry{r: route.Empty(s.scorer), open: open}, start, qb)
	}
	for qb.Len() > 0 {
		faults.Fire(faults.RoutePop)
		if s.cc.tick() {
			break
		}
		e := qb.Pop()
		s.stats.RoutesPopped++
		lg := s.legHook(e.r.Size())
		if lg != nil {
			lg.popped++
		}
		threshold := s.threshold(e)
		if e.r.Length() >= threshold {
			s.stats.PrunedThreshold++
			if lg != nil {
				lg.prunedThreshold++
			}
			continue
		}
		s.noteTopKPop(e.r)
		if s.pruned(e, threshold, true) {
			continue
		}
		s.expand(e, e.r.Last(), qb)
	}

	// An interrupted search returns only its instrumentation: the result
	// set may be missing routes a finished search would have found.
	err := s.finish()
	res := &Result{Stats: s.stats}
	if err == nil && s.sky != nil {
		res.Routes = s.sky.Routes()
	}
	return res, err
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

// entryLess is the route-queue order of the search loop: the proposed
// priority (§5.3.2) or the conventional distance order, with
// deterministic tie-breaks.
func (s *Searcher) entryLess(x, y entry) bool {
	a, b := x.r, y.r
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

// threshold is the Eq. 3 threshold of e's scores: the length from which
// e and every completion of it stay out of the result set. A rated query
// reads it from its three-criteria skyline at e's semantic score and
// rating penalty (the mean over all positions, so an unvisited position
// counts as top-rated and the penalty only grows under extension).
func (s *Searcher) threshold(e entry) float64 {
	if s.sky3 != nil {
		return s.sky3.Threshold(e.r.Semantic(), e.pen/float64(len(s.seq)))
	}
	return s.sky.Threshold(e.r.Semantic())
}

// accept offers the complete route of e to the result set.
func (s *Searcher) accept(e entry) {
	if s.sky3 != nil {
		s.sky3.Update(route.Point3{L: e.r.Length(), S: e.r.Semantic(), R: e.pen / float64(len(s.seq)), Route: e.r})
		return
	}
	s.sky.Update(e.r)
}

// expand runs the modified Dijkstra for e's open positions (Algorithm 2)
// and routes each found PoI into the queue or the result set. A route
// that reaches its last position completes with the destination leg
// when the query has one (§6).
func (s *Searcher) expand(e entry, from graph.VertexID, qb *pq.Heap[entry]) {
	k := len(s.seq)
	r := e.r
	for _, c := range s.nextPoIs(e, from) {
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
		next := entry{r: r.Extend(s.scorer, c.v, c.dist, c.sim), open: e.open &^ (1 << uint(c.pos)), pen: e.pen}
		if s.sky3 != nil {
			next.pen += dataset.RatingPenalty(s.d.Rating(c.v))
		}
		complete := next.r.Size() == k
		if complete && s.hasDest() {
			var ok bool
			if next.r, ok = s.completeToDest(next.r); !ok {
				continue // destination unreachable, or leg provably too long
			}
		}
		// Line 10: the Eq. 3 threshold for the new route's own scores.
		threshold := s.threshold(next)
		if next.r.Length() >= threshold {
			continue
		}
		if complete {
			s.accept(next)
			continue
		}
		// The row prunes run at enqueue too: a route they already condemn
		// would be pruned at pop (the threshold only shrinks in the
		// meantime), so don't queue it at all.
		if s.pruned(next, threshold, false) {
			continue
		}
		qb.Push(next)
		s.stats.RoutesEnqueued++
		if lg := s.legHook(next.r.Size() - 1); lg != nil {
			lg.enqueued++
		}
		if qb.Len() > s.stats.PeakQueueLen {
			s.stats.PeakQueueLen = qb.Len()
		}
	}
}

// pruned runs the prune list against a partial route that beats its
// threshold, in order: the destination's cost-to-go row, the category
// index bound, then — at pop only — the §5.3.3 rule. It counts the cut
// that fires, under the leg that would pop the route. At enqueue the
// list stops at the two row reads: the §5.3.3 rule, with its Lemma 5.8
// increment, runs once per popped route rather than once per candidate.
// Its Lemma 5.8 half reads witnesses from a two-criteria result set, so
// a rated query runs the semantic half alone.
func (s *Searcher) pruned(e entry, threshold float64, atPop bool) bool {
	byIndex := false
	switch {
	case s.pruneByPotential(e.r, threshold):
	case s.idxRows.any && s.pruneByIndex(e, threshold):
		byIndex = true
	case atPop && s.bounds != nil && s.bounds.prune(e.r, threshold, s.sky, s.scorer):
	default:
		return false
	}
	lg := s.legHook(e.r.Size())
	if byIndex {
		s.stats.PrunedByIndex++
		if lg != nil {
			lg.prunedIndex++
		}
	} else {
		s.stats.PrunedByBounds++
		if lg != nil {
			lg.prunedBounds++
		}
	}
	return true
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

// pruneByIndex applies the category index's lower bound against the
// threshold e must beat. Any completion of e visits every open position,
// so from e's last PoI it travels at least the distance to the nearest
// semantic match of each: the largest of the open positions' tree-row
// entries there (GoalBound over goalRows, as in the runs' frontier cut),
// a single row read when one position is open. Where the §5.3.3 bounds
// exist, the hops after the next one add their semantic-match minimum.
// A route whose open positions have no row takes no index prune.
func (s *Searcher) pruneByIndex(e entry, threshold float64) bool {
	m := e.r.Size()
	if m == 0 || m >= len(s.seq) {
		return false
	}
	var lb float64
	if e.open == 0 {
		row := s.idxRows.sem[m]
		if row == nil {
			return false
		}
		lb = float64(row[e.r.Last()])
	} else {
		var matchBuf [8]int32
		var goalBuf [8][]float32
		lb = dijkstra.GoalBound(s.goalRows(goalBuf[:0], m, s.matchPositions(matchBuf[:0], m, e.open)), e.r.Last())
	}
	bound := e.r.Length() + lb
	if s.bounds != nil {
		bound += s.bounds.lsSuffix[m] // hops after the next one
	}
	return bound >= threshold
}

// pruneByPotential reports that r cannot visit its remaining positions
// (and reach the query destination, if any) before threshold: its length
// plus the cost-to-go row of its size at its last PoI already reaches it.
// Always false for a route whose size has no row (see potRow).
func (s *Searcher) pruneByPotential(r *route.Route, threshold float64) bool {
	row := s.potRow(r.Size())
	return row != nil && r.Length()+float64(row[r.Last()]) >= threshold
}

// potRow returns the cost-to-go row of position pos — the row that cuts
// the modified Dijkstras of routes holding pos PoIs, and those routes
// themselves — or nil when there is none. A destination query has one
// for every position but the first (computePotentials); an ordered query
// run with a SharedCache, for every position but the last, the start run's
// included (sharedPotentials); other queries have none.
func (s *Searcher) potRow(pos int) index.Row {
	if pos >= len(s.pot) {
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
// the next row's value at c (destDist for i = k−1), built by costToGoRow.
// Position 0 gets no row: only the single expansion of the empty route
// could use it. The reverse graph carries no time table, so on
// time-dependent datasets every value is a lower-bound distance (see
// completeToDest).
func (s *Searcher) computePotentials(dest graph.VertexID) {
	k := len(s.seq)
	g := s.d.Graph
	s.destDist = make([]float64, g.NumVertices())
	for v := range s.destDist {
		s.destDist[v] = math.Inf(1)
	}
	s.reverseSweep([]graph.VertexID{dest}, nil, func(v graph.VertexID, d float64) { s.destDist[v] = d })
	s.pot = make([]index.Row, k)
	for i := k - 1; i >= 1; i-- {
		s.pot[i] = s.costToGoRow(g.PoIVertices(), func(c graph.VertexID) float64 {
			switch {
			case s.seq[i].Sim(g.Categories(c)) <= 0:
				return math.Inf(1)
			case i == k-1:
				return s.destDist[c]
			}
			return float64(s.pot[i+1][c])
		})
	}
}

// sharedPotentials gives an ordered query without a destination, run with
// a SharedCache, a cost-to-go row for every position m but the last, the
// start position included: pot[m][u] lower-bounds the cost of finishing a
// route from u by visiting positions m..k−1 in order, the least
// D(u, x) + pot[m+1][x] over the PoIs x of position m's tree, with the
// last position's tree row for pot[k−1]. Such a row depends only on the
// dataset version and the tree roots of positions m..k−1, so the
// SharedCache keeps it under those roots (a suffix of potKey) for every
// query with that suffix.
//
// A missing row costs one sweep of the graph, by costToGoRow, charged to
// DestLegRuns, DestLegTime and SettledVertices, and pays back only part of
// the runs it cuts, so it is bought as in ski rental: the queries that
// miss it pay rent instead, the vertices their runs at its position
// settle (payRent), and the rows missing from position m on are built
// once the rents paid to them reach rowPriceSweeps sweeps of every vertex
// per row. A row needs the next position's, so a chain is built suffix
// first, and the longest chain whose rent covers it wins. A position left
// without a row runs on its tree rows and the §5.3.3 bounds, as a query
// without rows does.
//
// Rows need every position to be a plain category, the last one's tree
// row resident and a byte cap that admits a row; without them pot stays
// nil. So it does when a cancellation halts a sweep: a halted row is no
// lower bound, so it is neither stored nor used.
func (s *Searcher) sharedPotentials() {
	k := len(s.seq)
	n := s.d.Graph.NumVertices()
	ir := &s.idxRows
	last := ir.semRow(k - 1)
	if s.opts.Shared == nil || k < 2 || last == nil || !s.opts.Shared.admitsRow(n) {
		return
	}
	key := make([]byte, 0, rootKeyBytes*k)
	for _, r := range ir.roots {
		if r == taxonomy.NoCategory {
			return
		}
		key = binary.LittleEndian.AppendUint32(key, uint32(r))
	}
	potKey := string(key)
	pot := make([]index.Row, k-1)
	from := k - 1 // build the missing rows of positions from..k−2
	var paid, owed int64
	for m := k - 2; m >= 0; m-- {
		row, rent := s.opts.Shared.row(potKey[rootKeyBytes*m:])
		if pot[m] = row; row == nil {
			paid += rent
			owed += rowPriceSweeps * int64(n)
			if paid >= owed {
				from = m
			}
		}
	}
	next := last
	for m := k - 2; m >= 0; m-- {
		if pot[m] == nil && m >= from {
			row := s.costToGoRow(s.d.PoIsAssociated(ir.roots[m]), func(x graph.VertexID) float64 { return float64(next[x]) })
			if s.cc.checkpoint() {
				return
			}
			pot[m] = s.opts.Shared.storeRow(potKey[rootKeyBytes*m:], row)
		}
		next = pot[m]
	}
	s.pot, s.potKey = pot, potKey
	if cap(s.rent) < k-1 {
		s.rent = make([]int64, k-1)
	}
	s.rent = s.rent[:k-1]
	clear(s.rent)
}

// payRent pays each cost-to-go row the query lacked (sharedPotentials) the
// vertices its runs at that row's position settled, work the row would
// have cut.
func (s *Searcher) payRent() {
	for m, settled := range s.rent {
		if s.pot[m] == nil && settled > 0 {
			s.opts.Shared.payRent(s.potKey[rootKeyBytes*m:], settled)
		}
	}
}

// rootKeyBytes is the width of one tree root in potKey and in the
// SharedCache's row and suffix keys.
const rootKeyBytes = 4

// rowPriceSweeps is the rent, in sweeps of the graph, that a cost-to-go
// row must have earned before it is built. Rent counts all the work at the
// row's position, of which a row cuts about a quarter where it pays best:
// on batches of recurring category templates rows cut the search's
// settled vertices by a quarter, on random categories by less.
const rowPriceSweeps = 4

// costToGoRow builds one cost-to-go row: its entry at u is the least
// D(u, c) + at(c) over the vertices c of pois, +Inf where no c with a
// finite at(c) is reachable — one reverse multi-source sweep seeded at
// every such c at at(c). Like the category index's rows, entries are
// rounded down to float32, so they stay lower bounds and cut the modified
// Dijkstra through the same goal-row code.
func (s *Searcher) costToGoRow(pois []graph.VertexID, at func(graph.VertexID) float64) index.Row {
	var seeds []graph.VertexID
	var dist []float64
	for _, c := range pois {
		if d := at(c); !math.IsInf(d, 1) {
			seeds = append(seeds, c)
			dist = append(dist, d)
		}
	}
	row := make(index.Row, s.d.Graph.NumVertices())
	for v := range row {
		row[v] = float32(math.Inf(1))
	}
	s.reverseSweep(seeds, dist, func(v graph.VertexID, d float64) { row[v] = index.RoundDown32(d) })
	return row
}

// reverseSweep runs one Dijkstra on the reverse graph, so directed
// networks are handled correctly, from sources at the start distances at
// (zero when at is nil), and reports every settled vertex with its
// distance to the sources. Each sweep is charged as one DestLegRuns, to
// DestLegTime and to SettledVertices. A cancellation halts it, leaving
// every vertex it did not settle unreported.
func (s *Searcher) reverseSweep(sources []graph.VertexID, at []float64, settle func(graph.VertexID, float64)) {
	s.stats.DestLegRuns++
	began := time.Now()
	defer func() { s.stats.DestLegTime += time.Since(began) }()
	faults.Fire(faults.DestLeg)
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
