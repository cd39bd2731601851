package core

import (
	"math"
	"time"

	"skysr/internal/dijkstra"
	"skysr/internal/faults"
	"skysr/internal/graph"
	"skysr/internal/route"
)

// candidate is one PoI found by the modified Dijkstra: the position it
// matched, its network distance from the search origin, its similarity
// to that position's requirement, and the strongest PoI on the shortest
// path to it (for the route-aware part of the Lemma 5.5 filter). Only an
// unordered route reads pos, to clear it from its open set: an ordered or
// rated run matches one position, and a SharedCache entry may come from a
// query that placed the category at another one.
//
// pos is an int32 beside v so the struct stays at 40 bytes: every cached
// candidate costs that much, and the SharedCache under SearchBatch holds
// hundreds of thousands of them.
type candidate struct {
	v     graph.VertexID
	pos   int32
	dist  float64
	sim   float64
	block blocker // the strongest intermediate PoI on the path
}

// blocker is the strongest PoI on a path, the Lemma 5.5 annotation: its
// largest similarity to a matched position, and the vertex (NoVertex, at
// similarity 0, when the path holds no matching PoI).
type blocker struct {
	sim float64
	v   graph.VertexID
}

// cacheKey identifies one modified-Dijkstra run within a query: the
// origin vertex, the positions searched, the route's size pos and — on
// time-dependent datasets — the absolute departure time at the origin.
// Ordered and rated runs search position pos alone and leave open zero;
// unordered runs search every position in open, the set the route has
// not satisfied yet. pos is 0 exactly when the route is empty, the one
// case in which the origin is a usable candidate (see runMDijkstra). The
// cache is per-query ("on the fly"), so positions fully determine the
// requirements; static queries always use depart 0, so their keys (and
// hit pattern) are byte-identical to the classic code.
type cacheKey struct {
	from   graph.VertexID
	open   uint32
	pos    int
	depart float64
}

// cacheEntry stores the candidates one modified Dijkstra found around an
// origin (see runMDijkstra's frontier cut):
//
//   - every candidate whose route can still finish within the radius is
//     present, with its exact distance; for a run cut by tree rows alone,
//     that is every matching PoI with dist < radius, and for a run cut by
//     a cost-to-go row, every one whose dist plus the next position's
//     row entry there stays below the radius;
//   - other items may be missing, or may carry a longer distance when
//     their shortest path crossed a cut vertex, and every route built
//     from them fails its threshold;
//   - the cut depends only on the key (origin, position and open set),
//     the run's goal rows and the radius, so serving the entry at a
//     smaller radius keeps the guarantee. A SharedCache key names the
//     tree roots a cost-to-go row depends on (see sharedKey).
//
// Unordered runs stay unfiltered and never enter the SharedCache.
type cacheEntry struct {
	radius   float64
	complete bool // whole reachable component explored
	items    []candidate
}

// nextPoIs returns the PoIs that semantically match e's open positions,
// reachable from `from` within the route's Lemma 5.3 radius, serving from
// the on-the-fly cache when possible (§5.3.4). On time-dependent datasets
// distances are travel times for a departure at the route's arrival time
// at `from`.
func (s *Searcher) nextPoIs(e entry, from graph.VertexID) []candidate {
	r := e.r
	pos := r.Size()
	// Allowed search radius: Algorithm 2 line 8 stops when
	// l(Rt) = l(Rd) + dist ≥ l̄(Rd).
	radius := s.threshold(e) - r.Length()
	if s.bounds != nil && s.bounds.fromIndex && s.potRow(pos) == nil {
		// Tighten the radius by the §5.3.3 suffix: a candidate found here
		// sits at position pos, and completing the route from it costs at
		// least lsSuffix[pos] more, so any candidate beyond
		// threshold − lsSuffix[pos] yields a route the semantic rule would
		// prune at pop (the threshold only shrinks in the meantime, and
		// extension only raises the semantic score and a rated route's
		// rating penalty) — don't explore it.
		// Final-position candidates (lsSuffix = 0) are unaffected, so
		// skyline entries are byte-identical with or without the cut. A
		// run cut by a cost-to-go row, a destination's or an ordered
		// query's, skips this: the row already counts those hops, and
		// subtracting them again would count them twice.
		if rem := s.bounds.lsSuffix[pos]; rem > 0 {
			if math.IsInf(rem, 1) {
				return nil
			}
			radius -= rem
		}
	}
	if radius <= 0 {
		return nil
	}
	return s.lookupOrRun(cacheKey{from: from, open: e.open, pos: pos, depart: s.expandDepart(r)}, radius)
}

// lookupOrRun answers one modified-Dijkstra request of the search loop:
// from the on-the-fly cache when an entry covers the radius, otherwise
// by a run (through the SharedCache where it applies) whose entry is
// then cached.
func (s *Searcher) lookupOrRun(key cacheKey, radius float64) []candidate {
	s.stats.MDijkstraRequests++
	if s.cache == nil {
		return s.sharedOrRun(key, radius).items
	}
	old, ok := s.cache[key]
	if ok && (old.complete || old.radius >= radius) {
		s.stats.CacheHits++
		if lg := s.legHook(key.pos); lg != nil {
			lg.cacheHits++
		}
		return old.items
	}
	e := s.sharedOrRun(key, radius)
	if !s.cc.cancelled() {
		// A truncated run's items stop at an arbitrary frontier; caching
		// them could serve an incomplete candidate set to a later query
		// on this searcher.
		if ok {
			s.cacheBytes -= entryBytes(old)
		}
		s.cache[key] = e
		s.cacheBytes += entryBytes(e)
		s.stats.PeakCacheBytes = max(s.stats.PeakCacheBytes, s.cacheBytes)
	}
	return e.items
}

// sharedOrRun serves a modified-Dijkstra request from the cross-query
// SharedCache when the run is shareable, running (and publishing) the
// search otherwise. A run is shareable when its position is a plain
// Category matcher after the first, the query has no destination, its
// Lemma 5.5 path filter is on, none of the position's perfect matches
// serves another position of the query (so the run stops at all of them;
// see perfectStops), and the dataset is not time-dependent: the cached
// candidates — including their blocking-PoI annotations — then depend only
// on the immutable dataset, the similarity function the cache is
// dedicated to and the run's goal rows. Rated, unordered and k > 1
// queries run unfiltered (see begin), so they never share. Time-dependent
// runs bypass the shared cache entirely (their distances are functions of
// the departure time, which the shared key does not carry), and so do
// destination queries: their cost-to-go rows leave out candidates that
// cannot reach this query's destination in time. A start run is never
// shared: its origin varies with every query and rarely recurs, and it is
// the one run whose origin is itself a candidate. A run cut by an ordered
// query's cost-to-go row is published under a key that also names the
// tree roots of every later position, the suffix that row depends on.
func (s *Searcher) sharedOrRun(key cacheKey, radius float64) *cacheEntry {
	shared := s.opts.Shared
	if shared == nil || key.pos == 0 || s.hasDest() || !s.pathFilter || s.td || !s.stopsAtPerfect[key.pos] {
		return s.runMDijkstra(key, radius)
	}
	cat, ok := s.seq[key.pos].(*route.Category)
	if !ok {
		return s.runMDijkstra(key, radius)
	}
	skey := sharedKey{from: key.from, cat: cat.ID()}
	if s.potRow(key.pos) != nil {
		skey.suffix = s.potKey[rootKeyBytes*(key.pos+1):]
	}
	if e := shared.lookup(skey, radius); e != nil {
		s.stats.SharedCacheHits++
		if lg := s.legHook(key.pos); lg != nil {
			lg.sharedHits++
		}
		return e
	}
	e := s.runMDijkstra(key, radius)
	if !s.cc.cancelled() {
		// Never publish a truncated run: a poisoned entry would corrupt
		// every query sharing the cache, not just this one.
		shared.store(skey, e)
	}
	return e
}

// runMDijkstra is Algorithm 2: one run of the searcher's Dijkstra kernel
// from key.from, bounded by the radius, that collects the PoIs matching
// the key's positions, does not expand through perfectly matching PoIs
// that serve no other position while the query's Lemma 5.5 filter is on,
// and records for each candidate the strongest intermediate PoI on its
// path. Ordered and rated runs match one position; unordered runs match
// every open one, record each (PoI, position) pair as its own candidate,
// and run unfiltered (begin leaves the filter off). On time-dependent
// datasets arcs are priced at their arrival time (depart + d); the radius
// and goal-row cuts below compare those travel times against lower-bound
// distances, which keeps them admissible (see graph/metric.go).
//
// The origin itself is a usable candidate only when the route is empty
// (key.pos == 0): there the origin is the query start vertex, which may be
// a matching PoI serving the first visit at distance zero. Otherwise the
// origin is the expanding route's own last PoI, which Definition 3.4(iii)
// forbids reusing — and for the same reason it can neither block other
// candidates (Lemma 5.5's substitution would be infeasible) nor stop the
// traversal. This split keeps cache entries consistent: every route
// expanding through a key has the same relationship to the origin.
//
// Goal-directed frontier cut. The run skips a vertex u, at pop and at
// relax, once d + GoalBound(u) ≥ radius. GoalBound is the largest entry
// at u of the run's goal rows (goalRows): position pos's cost-to-go row
// alone where it has one (see potRow), otherwise the tree row of every
// matched position that has one. Let r be a route expanding
// through this key, so radius = threshold(sem r) − l(r), and let x be a
// candidate of position p whose shortest path from the origin runs
// through u. Each row bounds what a completion of r through x still
// costs beyond u:
//
//   - p's own tree row: D(u,x) ≥ D_p(u) ≥ row_p[u], where D_q(v) is v's
//     distance to the nearest semantic match of q. For an ordered or
//     rated run this is the whole bound, and it keeps every candidate
//     within the radius.
//   - Another open position q of an unordered run: the completion visits
//     q after x, so it costs at least D(u,x) + D_q(x) ≥ D_q(u) ≥ row_q[u].
//   - A cost-to-go row: it seeds x's position at C(x), the next row's
//     value at x (destDist for a destination query's last position, the
//     last position's tree row for an ordered query), so pot[pos][u] ≤
//     D(u,x) + C(x), and every completion through x costs at least that.
//
// A skipped vertex or arc therefore carries only completions R of length
// at least l(r) + radius = threshold(sem r) ≥ threshold(sem R): the
// threshold only shrinks and extension only raises the semantic score,
// so none of them enters the answer. The argument uses true distances,
// never a stored row entry at x, and rows are rounded down, so
// row_q[u] ≤ D_q(u) holds directly, up to the float64 rounding the
// radius test itself shares. A position without a row contributes
// nothing to the max, which stays a lower bound. A +Inf entry proves
// that no completion passes through u at any radius, so it cuts without
// marking the entry radius-limited.
//
// No vertex on a kept candidate's shortest paths is cut, so the
// candidate is settled with its exact distance, and in the same order as
// without the cut, which leaves an ordered query's Lemma 5.5 annotations
// (the strongest PoI on the path) unchanged too. Entries therefore keep
// the cacheEntry contract.
//
// The annotations travel along the kernel's shortest-path tree: a vertex
// reads its blocker from its parent's entry in s.blockers when it
// settles, and writes the one it passes on, its own similarity folded
// in, when it expands. The parent settled, and wrote its entry, earlier
// in the same run, so a candidate's blocker is the strongest PoI on the
// path the kernel settled it along. That path is fixed by the kernel: it
// settles in (distance, vertex id) order and moves a parent only on a
// strict improvement of a tentative distance. The kernel checks the goal
// rows before it queues a vertex, the origin included, so an origin the
// rows cut settles nothing. A +Inf entry cuts without marking the run
// Cut, so an uncancelled run's entry is complete exactly when the run
// was not cut.
func (s *Searcher) runMDijkstra(key cacheKey, radius float64) *cacheEntry {
	from, depart := key.from, key.depart
	s.stats.MDijkstraRuns++
	mdBegan := time.Now()
	settled := 0
	defer func() {
		d := time.Since(mdBegan)
		s.stats.MDijkstraTime += d
		if lg := s.legHook(key.pos); lg != nil {
			lg.runs++
			lg.settled += int64(settled)
			lg.time += d
			if !lg.hasDepart && s.td {
				lg.firstDepart = depart
				lg.hasDepart = true
			}
		}
	}()
	// The fault hook fires before the checkpoint so a hook that cancels a
	// context is observed within this very run, keeping cancellation
	// deterministic on graphs far smaller than the check stride.
	faults.Fire(faults.MDijkstraRun)
	if s.cc.checkpoint() {
		return &cacheEntry{}
	}
	originUsable := key.pos == 0
	filter := s.pathFilter
	g := s.d.Graph
	if s.blockers == nil {
		s.blockers = make([]blocker, g.NumVertices())
	}

	var matchBuf [8]int32
	var goalBuf [8][]float32
	match := s.matchPositions(matchBuf[:0], key.pos, key.open)
	goal := s.goalRows(goalBuf[:0], key.pos, match)

	entry := &cacheEntry{}
	maxSettled := 0.0
	settled = s.ws.Run(dijkstra.Options{
		Sources:       []graph.VertexID{from},
		Bound:         radius,
		Goal:          goal,
		TimeDependent: s.td,
		DepartAt:      depart,
		Halt:          s.cc.halt(),
		OnSettle: func(u graph.VertexID, d float64) dijkstra.Control {
			maxSettled = d
			block := blocker{v: graph.NoVertex}
			if p := s.ws.Parent(u); p != graph.NoVertex {
				block = s.blockers[p]
			}
			sim := 0.0
			perfect := false
			if (u != from || originUsable) && g.IsPoI(u) {
				cats := g.Categories(u)
				for _, p := range match {
					m := s.seq[p]
					if ps := m.Sim(cats); ps > 0 {
						entry.items = append(entry.items, candidate{v: u, pos: p, dist: d, sim: ps, block: block})
						sim = max(sim, ps)
					}
					perfect = perfect || filter && m.Perfect(cats)
				}
			}
			// Lemma 5.5 property (ii): no traversal through a perfect
			// match that serves no other position. One that does may sit
			// in the prefix or the suffix of a route expanding through
			// this key, so the candidates behind it stay reachable,
			// annotated with it.
			if perfect && (s.stopsAtPerfect[key.pos] || !s.servesOther(u, key.pos, 0)) {
				return dijkstra.SkipExpand
			}
			// Downstream vertices see u as an intermediate PoI when it
			// matches at all.
			if sim > block.sim {
				block = blocker{sim, u}
			}
			s.blockers[u] = block
			return dijkstra.Continue
		},
	})
	switch {
	case s.cc.cancelled():
		// Truncated run: radius 0 and complete false make the entry
		// unservable by both cache lookups (radius must be positive), so
		// an aborted search can never masquerade as a finished one.
	case s.ws.Cut():
		// A larger radius could reach more candidates.
		entry.radius = radius
	default:
		// The whole reachable component was explored: the entry is
		// complete at any radius.
		entry.complete = true
		entry.radius = math.Inf(1)
	}
	s.noteFirstRadius(maxSettled)
	s.stats.SettledVertices += int64(settled)
	if key.pos < len(s.rent) {
		s.rent[key.pos] += int64(settled)
	}
	return entry
}

// matchPositions appends to buf the sequence positions a search matches:
// pos alone when open is empty (ordered and rated searches), otherwise
// every position in open (unordered searches), in ascending order.
func (s *Searcher) matchPositions(buf []int32, pos int, open uint32) []int32 {
	if open == 0 {
		return append(buf, int32(pos))
	}
	for p := range s.seq {
		if open&(1<<p) != 0 {
			buf = append(buf, int32(p))
		}
	}
	return buf
}

// goalRows appends to buf the rows whose largest entry at a vertex
// lower-bounds what a route expanding through a run of key position pos,
// matching the positions in match, still has to travel from that vertex
// (see runMDijkstra): pos's cost-to-go row when there is one (potRow),
// otherwise the tree row of every matched position that has one.
// pruneByIndex reads the same rows for a route with several open
// positions.
func (s *Searcher) goalRows(buf [][]float32, pos int, match []int32) [][]float32 {
	if row := s.potRow(pos); row != nil {
		return append(buf, row)
	}
	for _, p := range match {
		if int(p) < len(s.idxRows.sem) && s.idxRows.sem[p] != nil {
			buf = append(buf, s.idxRows.sem[p])
		}
	}
	return buf
}

// noteFirstRadius records the explored radius of the first modified
// Dijkstra — the Table 7 "weight sum" search-space metric.
func (s *Searcher) noteFirstRadius(r float64) {
	if s.stats.MDijkstraRuns == 1 {
		s.stats.FirstMDijkstraRadius = r
	}
}
