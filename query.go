package skysr

import (
	"context"
	"fmt"
	"math"
	"strings"
	"time"

	"skysr/internal/core"
	"skysr/internal/graph"
	"skysr/internal/osr"
	"skysr/internal/route"
	"skysr/internal/taxonomy"
)

// Requirement is one position of a query: what kind of PoI must be visited
// there. Build requirements with Category, AnyOf, AllOf and Excluding (§6
// "Complex category requirement").
type Requirement struct {
	kind     reqKind
	name     string
	excluded string
	subs     []Requirement
}

type reqKind int

const (
	reqCategory reqKind = iota
	reqAnyOf
	reqAllOf
	reqExcluding
)

// Category requires a PoI of the named category (or, flexibly, of a
// semantically similar category in the same tree — that is the point of
// the SkySR query).
func Category(name string) Requirement {
	return Requirement{kind: reqCategory, name: name}
}

// AnyOf requires any of the given requirements (disjunction).
func AnyOf(subs ...Requirement) Requirement {
	return Requirement{kind: reqAnyOf, subs: subs}
}

// AllOf requires all of the given requirements simultaneously
// (conjunction; sensible for PoIs carrying multiple categories).
func AllOf(subs ...Requirement) Requirement {
	return Requirement{kind: reqAllOf, subs: subs}
}

// Excluding restricts base to PoIs outside the excluded category's subtree
// (negation), e.g. Excluding(Category("Mexican Restaurant"), "Taco Place").
func Excluding(base Requirement, excludedCategory string) Requirement {
	return Requirement{kind: reqExcluding, excluded: excludedCategory, subs: []Requirement{base}}
}

func (r Requirement) compile(f *taxonomy.Forest, sim taxonomy.Similarity) (route.Matcher, error) {
	switch r.kind {
	case reqCategory:
		c, ok := f.Lookup(r.name)
		if !ok {
			return nil, fmt.Errorf("skysr: unknown category %q", r.name)
		}
		return route.NewCategory(f, c, sim), nil
	case reqAnyOf, reqAllOf:
		if len(r.subs) == 0 {
			return nil, fmt.Errorf("skysr: empty combinator requirement")
		}
		subs := make([]route.Matcher, len(r.subs))
		for i, s := range r.subs {
			m, err := s.compile(f, sim)
			if err != nil {
				return nil, err
			}
			subs[i] = m
		}
		if r.kind == reqAnyOf {
			return route.NewAnyOf(subs...), nil
		}
		return route.NewAllOf(subs...), nil
	case reqExcluding:
		base, err := r.subs[0].compile(f, sim)
		if err != nil {
			return nil, err
		}
		c, ok := f.Lookup(r.excluded)
		if !ok {
			return nil, fmt.Errorf("skysr: unknown excluded category %q", r.excluded)
		}
		return route.NewExcluding(base, f, c), nil
	default:
		return nil, fmt.Errorf("skysr: invalid requirement")
	}
}

// key renders the requirement canonically for the Engine's compiled-matcher
// cache. Names are length-prefixed, so the encoding is prefix-decodable and
// two distinct requirement trees can never produce the same key, whatever
// characters category names contain.
func (r Requirement) key() string {
	name := func(s string) string { return fmt.Sprintf("%d:%s", len(s), s) }
	switch r.kind {
	case reqCategory:
		return "c(" + name(r.name) + ")"
	case reqAnyOf, reqAllOf:
		op := "any"
		if r.kind == reqAllOf {
			op = "all"
		}
		parts := make([]string, len(r.subs))
		for i, s := range r.subs {
			parts[i] = s.key()
		}
		return op + "(" + strings.Join(parts, ",") + ")"
	case reqExcluding:
		return "ex(" + r.subs[0].key() + "," + name(r.excluded) + ")"
	default:
		return fmt.Sprintf("invalid(%d)", int(r.kind))
	}
}

// maxCachedMatchers bounds the Engine's compiled-matcher cache. Plain
// category workloads are bounded by the taxonomy anyway; the cap only
// matters for services that synthesize unbounded AnyOf/AllOf/Excluding
// combinations, which compile uncached once the cache is full.
const maxCachedMatchers = 4096

// compiledMatcher compiles r under the given similarity, serving repeats
// from the Engine's matcher cache. Compilation builds a dense similarity
// row per category (route.NewCategory), which recurs for every query of a
// production workload naming the same categories; matchers are immutable
// after construction and depend only on the category forest — which live
// updates never change — so one compiled instance serves all goroutines
// across every snapshot.
func (e *Engine) compiledMatcher(f *taxonomy.Forest, r Requirement, simID Similarity, sim taxonomy.Similarity) (route.Matcher, error) {
	key := fmt.Sprintf("%d|%s", simID, r.key())
	if m, ok := e.matchers.Load(key); ok {
		return m.(route.Matcher), nil
	}
	m, err := r.compile(f, sim)
	if err != nil {
		return nil, err
	}
	if e.numMatchers.Load() >= maxCachedMatchers {
		return m, nil
	}
	actual, loaded := e.matchers.LoadOrStore(key, m)
	if !loaded {
		e.numMatchers.Add(1)
	}
	return actual.(route.Matcher), nil
}

// Similarity selects the category similarity function (Definition 3.3).
type Similarity int

const (
	// WuPalmer is the paper's experimental choice (Eq. 6).
	WuPalmer Similarity = iota
	// PathLength is the inverse path-length alternative.
	PathLength
)

// Aggregation selects how per-position similarities combine into the
// semantic score (Definition 3.5).
type Aggregation = route.Aggregation

// Aggregation values; Product is the paper's Eq. 7.
const (
	Product = route.AggProduct
	Min     = route.AggMin
	Mean    = route.AggMean
)

// Algorithm selects the query algorithm.
type Algorithm int

const (
	// BSSR is the paper's bulk SkySR algorithm with all optimizations —
	// the default and the right choice for applications.
	BSSR Algorithm = iota
	// BSSRNoOpt is BSSR without the four optimizations ("BSSR w/o Opt").
	BSSRNoOpt
	// NaiveDijkstra iterates optimal-sequenced-route queries with the
	// Dijkstra-based solution over super-category sequences (baseline).
	NaiveDijkstra
	// NaivePNE iterates OSR queries with progressive neighbour
	// exploration (baseline).
	NaivePNE
)

// String implements fmt.Stringer.
func (a Algorithm) String() string {
	switch a {
	case BSSR:
		return "BSSR"
	case BSSRNoOpt:
		return "BSSR w/o Opt"
	case NaiveDijkstra:
		return "Dij"
	case NaivePNE:
		return "PNE"
	default:
		return fmt.Sprintf("Algorithm(%d)", int(a))
	}
}

// Typed search-interruption errors. Both match with errors.Is; when a
// context caused the interruption the returned error also wraps the
// context's error, so errors.Is(err, context.Canceled) and errors.Is(err,
// context.DeadlineExceeded) hold where applicable.
var (
	// ErrSearchCancelled reports a search abandoned because its
	// SearchOptions.Context was cancelled.
	ErrSearchCancelled = core.ErrCancelled
	// ErrDeadlineExceeded reports a search abandoned because its
	// SearchOptions.Context's deadline passed.
	ErrDeadlineExceeded = core.ErrDeadlineExceeded
)

// SearchOptions tunes a Search beyond the defaults. The zero value means:
// BSSR with all optimizations, Wu–Palmer similarity, product aggregation.
type SearchOptions struct {
	Algorithm   Algorithm
	Similarity  Similarity
	Aggregation Aggregation
	// ExpandPaths fills RouteInfo.Path with the full vertex path of each
	// result route (costs one Dijkstra per leg).
	ExpandPaths bool
	// Budget caps the work of the naive baselines (route pops + settled
	// vertices); 0 means unlimited. BSSR ignores it (it does not need
	// one).
	Budget int64
	// UseCategoryIndex enables the category-index serving profile: per-
	// category distance rows are built on demand (within the Engine's
	// index memory budget, see ConfigureCategoryIndex) and, once a
	// query's categories are covered, the §5.3.3 lower bounds and the
	// expansion pruning radii come from index lookups instead of
	// per-query Dijkstras. Answers are identical to a plain Search —
	// every substituted bound is a proven lower bound — while median
	// latency drops substantially on repeated-category workloads.
	// Queries the index cannot cover (non-Category requirements, budget
	// exhausted) transparently fall back to the per-query path.
	UseCategoryIndex bool
	// TopK asks for ranked alternatives: the answer is the k-skyband of
	// the achievable score points — every route with fewer than k
	// score-distinct routes at least as short and at least as similar —
	// instead of the single best route per similarity level. 0 and 1 both
	// mean the classic skyline query; SearchTopK is the convenience
	// wrapper that sets this field. See Engine.SearchTopK for the exact
	// semantics and restrictions.
	TopK int
	// DepartAt is the departure time of the query at its start vertex, in
	// the dataset's time domain (seconds of a day under the default
	// period; see Engine.TimePeriod). On datasets with time-dependent
	// edge profiles every leg is priced at the instant it is actually
	// traversed, route lengths become travel times, and answers are exact
	// under the FIFO profile contract — the rush-hour workload of Costa
	// et al. On static datasets the field has no effect. Must be
	// non-negative and finite; times past the period wrap around.
	// SearchAt is the convenience wrapper that sets this field. The naive
	// baseline algorithms do not support time-dependent datasets.
	DepartAt float64
	// Context, when non-nil, cancels the search: the BSSR expansion loops
	// observe it on an amortized schedule (every search start and every
	// ~1024 units of hot-loop work) and unwind, returning an Answer whose
	// Routes are nil but whose Stats describe the work done, alongside
	// ErrSearchCancelled (or ErrDeadlineExceeded when the context's
	// deadline caused it). The engine, its pools, caches and snapshots
	// remain fully usable afterwards. The naive baselines check it only
	// before starting. A nil Context costs nothing.
	Context context.Context
}

// Query is one SkySR query.
type Query struct {
	// Start is the query's start vertex v_q.
	Start VertexID
	// Via lists the PoI requirements in visit order (or, with Unordered,
	// as an unordered set).
	Via []Requirement
	// Destination, when not NoVertex and set via HasDestination, adds a
	// final leg to the length score (§6 "SkySR with destination"). Leave
	// zero-valued for no destination.
	Destination VertexID
	// HasDestination enables Destination (so the zero Query means "no
	// destination" rather than "vertex 0").
	HasDestination bool
	// Unordered answers the §6 "skyline trip planning query": the
	// requirements may be satisfied in any order.
	Unordered bool
	// IncludeRatings adds PoI ratings as a third skyline criterion (the
	// §9 multi-attribute extension): results are Pareto-optimal in
	// (length, semantic score, rating penalty). Requires BSSR and is
	// mutually exclusive with Unordered and HasDestination. On datasets
	// without ratings the penalty is 0 everywhere and results match the
	// plain query.
	IncludeRatings bool
}

// Answer is the result of one Search.
type Answer struct {
	// Routes is the minimal skyline set S, sorted by ascending length.
	Routes []RouteInfo
	// Elapsed is the wall-clock query time.
	Elapsed time.Duration
	// Algorithm echoes the algorithm that produced the answer.
	Algorithm Algorithm
	// Stats carries the paper's instrumentation counters for BSSR runs
	// (nil for the naive baselines).
	Stats *core.Stats
}

// RouteInfo is one skyline route in user-facing form.
type RouteInfo struct {
	// Rank is the route's 1-based position in the answer's length-sorted
	// order — the rank a top-k client presents ("1st, 2nd, … alternative").
	Rank int
	// PoIs are the visited PoI vertices in visit order.
	PoIs []VertexID
	// PoINames are the "Category@id" labels of the PoIs.
	PoINames []string
	// LengthScore is l(R) (Definition 3.5 Eq. 1), in the dataset's edge
	// weight unit.
	LengthScore float64
	// SemanticScore is s(R) in [0, 1]; 0 means every position matched
	// perfectly (Eq. 7).
	SemanticScore float64
	// RatingScore is the rating penalty in [0, 1] for Query.IncludeRatings
	// searches (0 = every visited PoI top-rated), and -1 otherwise.
	RatingScore float64
	// Path is the full vertex path (with SearchOptions.ExpandPaths).
	Path []VertexID
}

// String renders the route like the paper's tables: PoIs, length, score
// (and the rating penalty for three-criteria results).
func (r RouteInfo) String() string {
	s := ""
	for i, n := range r.PoINames {
		if i > 0 {
			s += " → "
		}
		s += n
	}
	if r.RatingScore >= 0 {
		return fmt.Sprintf("%s  (length %.1f, semantic %.3f, rating penalty %.3f)",
			s, r.LengthScore, r.SemanticScore, r.RatingScore)
	}
	return fmt.Sprintf("%s  (length %.1f, semantic %.3f)", s, r.LengthScore, r.SemanticScore)
}

// Search answers q with default options.
func (e *Engine) Search(q Query) (*Answer, error) {
	return e.SearchWith(q, SearchOptions{})
}

// MaxTopK bounds SearchOptions.TopK: band maintenance is O(k) per
// threshold probe, so unbounded k would turn a ranked-alternatives query
// into an accidental full enumeration. Services wanting "all
// alternatives" should page by level instead.
const MaxTopK = 1024

// SearchTopK answers q with the k best routes per similarity level,
// ranked: the answer is the k-skyband of the achievable (length,
// semantic) score points — a route is returned iff fewer than k
// score-distinct routes exist that are at least as short and at least as
// similar — with Answer.Routes sorted by ascending length and
// RouteInfo.Rank filled 1..n. Alternatives are score-distinct: of
// several routes achieving the same (length, semantic) point, one
// representative is returned, exactly as the skyline query does.
//
// k = 1 is byte-identical to Search/SearchWith with the same options —
// it runs the very same code path. For k > 1 the enumeration is exact
// (verified against a brute-force enumerator in the tests) and flows
// through every serving profile; note that k > 1 queries in a SearchBatch
// bypass its cross-query m-Dijkstra sharing, because ranked enumeration
// must keep dominated routes the shared entries' Lemma 5.5 annotations
// discard. Top-k supports ordered, destination and
// unordered queries under BSSR/BSSRNoOpt; the naive baselines and
// IncludeRatings do not support k > 1.
func (e *Engine) SearchTopK(q Query, k int, opts SearchOptions) (*Answer, error) {
	if k < 1 {
		return nil, fmt.Errorf("skysr: top-k requires k >= 1, got %d", k)
	}
	opts.TopK = k
	return e.SearchWith(q, opts)
}

// SearchAt answers q departing the start vertex at the given time of the
// dataset's time domain. On time-dependent datasets (Engine
// HasTimeProfiles) the answer's lengths are exact travel times for that
// departure; on static datasets it is identical to SearchWith.
func (e *Engine) SearchAt(q Query, departAt float64, opts SearchOptions) (*Answer, error) {
	opts.DepartAt = departAt
	return e.SearchWith(q, opts)
}

// SearchWith answers q with explicit options. The query runs against the
// dataset version current when the call starts: a concurrent ApplyUpdates
// publishes a new snapshot for later queries but never changes the data an
// in-flight search reads.
func (e *Engine) SearchWith(q Query, opts SearchOptions) (*Answer, error) {
	sn := e.pin()
	defer sn.release()
	return e.searchOn(sn, q, opts, false)
}

// searchOn answers q against one pinned snapshot. share, set only by
// SearchBatch, runs BSSR queries with the category index and the Engine's
// cross-query m-Dijkstra cache whatever opts.UseCategoryIndex says.
func (e *Engine) searchOn(sn *snapshot, q Query, opts SearchOptions, share bool) (*Answer, error) {
	if len(q.Via) == 0 {
		return nil, fmt.Errorf("skysr: query has no requirements")
	}
	if opts.TopK < 0 {
		return nil, fmt.Errorf("skysr: negative TopK %d", opts.TopK)
	}
	if opts.TopK > MaxTopK {
		return nil, fmt.Errorf("skysr: TopK %d exceeds MaxTopK %d", opts.TopK, MaxTopK)
	}
	if opts.TopK > 1 {
		if opts.Algorithm != BSSR && opts.Algorithm != BSSRNoOpt {
			return nil, fmt.Errorf("skysr: top-k requires the BSSR algorithms, not %s", opts.Algorithm)
		}
		if q.IncludeRatings {
			return nil, fmt.Errorf("skysr: top-k cannot combine with IncludeRatings")
		}
	}
	if opts.DepartAt < 0 || math.IsNaN(opts.DepartAt) || math.IsInf(opts.DepartAt, 0) {
		return nil, fmt.Errorf("skysr: departure time %v is not non-negative and finite", opts.DepartAt)
	}
	if sn.ds.Graph.TimeVarying() && (opts.Algorithm == NaiveDijkstra || opts.Algorithm == NaivePNE) {
		return nil, fmt.Errorf("skysr: the naive baselines do not support time-dependent datasets")
	}
	// Pre-dispatch check: algorithms that do not thread cancellation
	// internally (the naive baselines) still refuse to start, in O(1),
	// once their caller has given up.
	if err := core.ContextError(opts.Context); err != nil {
		return nil, err
	}
	f := sn.ds.Forest
	var sim taxonomy.Similarity
	switch opts.Similarity {
	case WuPalmer:
		sim = f.WuPalmer
	case PathLength:
		sim = f.PathLength
	default:
		return nil, fmt.Errorf("skysr: unknown similarity %d", opts.Similarity)
	}
	seq := make(route.Sequence, len(q.Via))
	for i, r := range q.Via {
		m, err := e.compiledMatcher(f, r, opts.Similarity, sim)
		if err != nil {
			return nil, err
		}
		seq[i] = m
	}

	began := time.Now()
	var routes []*route.Route
	var stats *core.Stats
	switch opts.Algorithm {
	case BSSR, BSSRNoOpt:
		copts := core.DefaultOptions()
		if opts.Algorithm == BSSRNoOpt {
			copts = core.WithoutOptimizations()
		}
		copts.Aggregation = opts.Aggregation
		copts.Epoch = sn.epoch
		copts.TopK = opts.TopK
		copts.DepartAt = opts.DepartAt
		// A trace carried by the context (serve's sampled requests,
		// skysr-query -trace) receives the query's explain span tree.
		copts.Context = opts.Context
		share = share && opts.Algorithm == BSSR
		if opts.UseCategoryIndex || share {
			copts.Index = e.categoryIndex(sn)
		}
		if share {
			copts.Shared = e.shared[opts.Similarity]
		}
		s := sn.pool.Get(sim, copts)
		defer sn.pool.Put(s)
		if q.IncludeRatings {
			if q.Unordered || q.HasDestination {
				return nil, fmt.Errorf("skysr: IncludeRatings cannot combine with Unordered or Destination")
			}
			res, err := s.QueryRated(q.Start, seq)
			if err != nil {
				if res != nil {
					e.observeSearch(&res.Stats, true)
					return partialAnswer(opts.Algorithm, &res.Stats, began), err
				}
				return nil, err
			}
			e.observeSearch(&res.Stats, false)
			return buildRatedAnswer(sn, q, opts, res, began, s)
		}
		var res *core.Result
		var err error
		switch {
		case q.Unordered && q.HasDestination:
			return nil, fmt.Errorf("skysr: unordered queries with destinations are not supported")
		case q.Unordered:
			res, err = s.QueryUnordered(q.Start, seq)
		case q.HasDestination:
			res, err = s.QueryWithDestination(q.Start, seq, q.Destination)
		default:
			res, err = s.Query(q.Start, seq)
		}
		if err != nil {
			if res != nil {
				e.observeSearch(&res.Stats, true)
				return partialAnswer(opts.Algorithm, &res.Stats, began), err
			}
			return nil, err
		}
		routes = res.Routes
		stats = &res.Stats
		e.observeSearch(stats, false)
		if opts.ExpandPaths {
			dest := graph.NoVertex
			if q.HasDestination {
				dest = q.Destination
			}
			return buildAnswer(sn, q, opts, routes, stats, began, s, dest)
		}
	case NaiveDijkstra, NaivePNE:
		if q.Unordered || q.HasDestination || q.IncludeRatings {
			return nil, fmt.Errorf("skysr: the naive baselines answer only plain ordered queries")
		}
		cats, ok := seq.Categories()
		if !ok {
			return nil, fmt.Errorf("skysr: the naive baselines answer only plain category sequences")
		}
		engine := osr.EngineDijkstra
		if opts.Algorithm == NaivePNE {
			engine = osr.EnginePNE
		}
		solver := osr.NewSolver(sn.ds, engine, sim, opts.Aggregation)
		solver.Budget = opts.Budget
		sky, err := solver.SkySRExact(q.Start, cats)
		if err != nil {
			return nil, err
		}
		routes = sky.Routes()
	default:
		return nil, fmt.Errorf("skysr: unknown algorithm %d", opts.Algorithm)
	}
	return buildAnswer(sn, q, opts, routes, stats, began, nil, graph.NoVertex)
}

// partialAnswer packages the instrumentation of an interrupted search:
// no routes, but the Stats of the work done before cancellation, so
// callers can account for abandoned queries. It is returned alongside the
// interruption error.
func partialAnswer(alg Algorithm, stats *core.Stats, began time.Time) *Answer {
	return &Answer{Algorithm: alg, Stats: stats, Elapsed: time.Since(began)}
}

// buildRatedAnswer converts a three-criteria result into an Answer.
func buildRatedAnswer(sn *snapshot, q Query, opts SearchOptions, res *core.RatedResult, began time.Time, s *core.Searcher) (*Answer, error) {
	ans := &Answer{Algorithm: opts.Algorithm, Stats: &res.Stats}
	for i, rr := range res.Routes {
		info := RouteInfo{
			Rank:          i + 1,
			PoIs:          rr.Route.PoIs(),
			LengthScore:   rr.Route.Length(),
			SemanticScore: rr.Route.Semantic(),
			RatingScore:   rr.Rating,
		}
		for _, p := range info.PoIs {
			info.PoINames = append(info.PoINames, poiName(sn.ds, p))
		}
		if opts.ExpandPaths {
			path, err := s.ExpandPath(q.Start, rr.Route, graph.NoVertex)
			if err != nil {
				return nil, err
			}
			info.Path = path
		}
		ans.Routes = append(ans.Routes, info)
	}
	ans.Elapsed = time.Since(began)
	return ans, nil
}

func buildAnswer(sn *snapshot, q Query, opts SearchOptions, routes []*route.Route, stats *core.Stats, began time.Time, s *core.Searcher, dest VertexID) (*Answer, error) {
	ans := &Answer{Algorithm: opts.Algorithm, Stats: stats}
	for i, r := range routes {
		info := RouteInfo{
			Rank:          i + 1,
			PoIs:          r.PoIs(),
			LengthScore:   r.Length(),
			SemanticScore: r.Semantic(),
			RatingScore:   -1,
		}
		for _, p := range info.PoIs {
			info.PoINames = append(info.PoINames, poiName(sn.ds, p))
		}
		if opts.ExpandPaths && s != nil {
			path, err := s.ExpandPath(q.Start, r, dest)
			if err != nil {
				return nil, err
			}
			info.Path = path
		}
		ans.Routes = append(ans.Routes, info)
	}
	ans.Elapsed = time.Since(began)
	return ans, nil
}
