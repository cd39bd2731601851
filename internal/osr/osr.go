// Package osr implements the optimal sequenced route (OSR) machinery the
// paper compares against (§2, §7.1): the Dijkstra-based solution and the
// Progressive Neighbour Exploration (PNE) approach of Sharifzadeh et al.,
// plus the naive SkySR solution that iterates OSR queries over every
// super-category sequence (§4).
//
// It also holds the one reference oracle the test suite checks every
// algorithm in this repository against. BruteForce enumerates every
// sequenced route of an ordered or unordered query, with or without a
// destination, a departure time or ratings, and Band reduces the routes'
// (length, semantic, rating) points to their k-skyband: k = 1 is the
// skyline of Definition 4.1, k > 1 the top-k band of Liu et al. Its legs
// come from Distances, a label-setting search that prices FIFO
// time-dependent arcs as Costa et al. do and shares no code with
// internal/dijkstra, and its bands from Band alone, not from the result
// sets the search fills.
package osr

import (
	"errors"
	"fmt"
	"math"

	"skysr/internal/dataset"
	"skysr/internal/dijkstra"
	"skysr/internal/graph"
	"skysr/internal/pq"
	"skysr/internal/route"
	"skysr/internal/taxonomy"
)

// Engine selects which OSR algorithm answers the per-super-sequence
// queries.
type Engine int

const (
	// EngineDijkstra is the paper's "Dij": best-first expansion of partial
	// routes where each expansion runs a full Dijkstra search for the PoIs
	// of the next category. It stores every expanded route, which is why
	// its memory footprint dwarfs the others (Table 6).
	EngineDijkstra Engine = iota
	// EnginePNE is the paper's "PNE": best-first expansion where each
	// expansion asks an incremental nearest-neighbour iterator for the
	// next-closest matching PoI, re-queueing the parent route for its
	// next-nearest alternative.
	EnginePNE
)

// String implements fmt.Stringer.
func (e Engine) String() string {
	switch e {
	case EngineDijkstra:
		return "Dij"
	case EnginePNE:
		return "PNE"
	default:
		return fmt.Sprintf("Engine(%d)", int(e))
	}
}

// ErrBudgetExceeded is returned when an OSR search exceeds the configured
// work budget. The experiment harness reports such runs as DNF, matching
// the paper's missing |Sq|=5 bars ("executions were not finished after a
// month", §7.2).
var ErrBudgetExceeded = errors.New("osr: work budget exceeded")

// Stats aggregates work counters across the OSR queries of one SkySR
// evaluation.
type Stats struct {
	OSRQueries     int   // sub-queries (super-sequences / level combos) run
	RoutePops      int64 // partial routes popped from queues
	RoutePushes    int64 // partial routes pushed
	SettledVerts   int64 // graph vertices settled by inner searches
	PeakQueueBytes int64 // peak estimated queue memory (Table 6)
}

// Solver answers OSR and naive-SkySR queries over one dataset.
type Solver struct {
	d      *dataset.Dataset
	engine Engine
	sim    taxonomy.Similarity
	agg    route.Aggregation

	// Budget caps the total work (route pops + settled vertices) per
	// SkySR evaluation; 0 = unlimited. Exceeding it aborts the evaluation
	// with ErrBudgetExceeded, the harness's DNF.
	Budget int64

	ws    *dijkstra.Workspace
	nn    map[nnKey]*nnIterator
	stats Stats
}

// nnKey identifies a shared nearest-neighbour iterator: source vertex plus
// the candidate-set fingerprint (query category and similarity level; the
// ancestor mode uses level 0 with the ancestor category).
type nnKey struct {
	from  graph.VertexID
	cat   taxonomy.CategoryID
	level uint64
}

// NewSolver returns a Solver using the given engine, similarity and
// aggregation (the same scoring configuration as the BSSR engine, so
// results are directly comparable).
func NewSolver(d *dataset.Dataset, engine Engine, sim taxonomy.Similarity, agg route.Aggregation) *Solver {
	return &Solver{
		d:      d,
		engine: engine,
		sim:    sim,
		agg:    agg,
		ws:     dijkstra.New(d.Graph),
		nn:     make(map[nnKey]*nnIterator),
	}
}

// Stats returns the counters accumulated since the last reset.
func (s *Solver) Stats() Stats { return s.stats }

// ResetStats zeroes the counters and drops cached NN iterators.
func (s *Solver) ResetStats() {
	s.stats = Stats{}
	s.nn = make(map[nnKey]*nnIterator)
}

func (s *Solver) overBudget() bool {
	return s.Budget > 0 && s.stats.RoutePops+s.stats.SettledVerts > s.Budget
}

func (s *Solver) chargePop() error {
	s.stats.RoutePops++
	if s.overBudget() {
		return ErrBudgetExceeded
	}
	return nil
}

// posSpec is one position of an OSR sub-query: the candidate PoI set and
// the key under which NN iterators over that set may be shared.
type posSpec struct {
	members map[graph.VertexID]struct{}
	key     nnKey // from field filled per lookup
}

// ancestorSpec builds the candidate set of super-sequence position c:
// P_c, every PoI associated with c directly or through a descendant.
func (s *Solver) ancestorSpec(c taxonomy.CategoryID) posSpec {
	pois := s.d.PoIsAssociated(c)
	set := make(map[graph.VertexID]struct{}, len(pois))
	for _, p := range pois {
		set[p] = struct{}{}
	}
	return posSpec{members: set, key: nnKey{cat: c}}
}

// levelSpec builds the candidate set {p : sim(queryCat, cat(p)) ≥ level}.
func (s *Solver) levelSpec(queryCat taxonomy.CategoryID, level float64) posSpec {
	set := make(map[graph.VertexID]struct{})
	for _, p := range s.d.PoIsInTree(queryCat) {
		best := 0.0
		for _, c := range s.d.Graph.Categories(p) {
			if h := s.sim(queryCat, c); h > best {
				best = h
			}
		}
		if best >= level {
			set[p] = struct{}{}
		}
	}
	return posSpec{members: set, key: nnKey{cat: queryCat, level: math.Float64bits(level)}}
}

// label is a queue entry of the OSR engines: a partial route ordered by
// length score; rank is the PNE next-nearest counter.
type label struct {
	r    *route.Route
	rank int
}

func labelLess(a, b label) bool {
	if a.r.Length() != b.r.Length() {
		return a.r.Length() < b.r.Length()
	}
	if a.r.Size() != b.r.Size() {
		return a.r.Size() > b.r.Size()
	}
	return a.r.Last() < b.r.Last()
}

// OSR finds the optimal sequenced route from start through one PoI of each
// category of superseq in order, where a PoI matches a category when it is
// associated with it directly or through a descendant. It returns nil when
// no complete route exists. The returned route's scores are computed
// against scoreSeq — the ORIGINAL query sequence — so naive-SkySR
// candidates are comparable.
func (s *Solver) OSR(start graph.VertexID, superseq []taxonomy.CategoryID, scoreSeq route.Sequence) (*route.Route, error) {
	if len(superseq) == 0 {
		return nil, fmt.Errorf("osr: empty sequence")
	}
	if len(superseq) != len(scoreSeq) {
		return nil, fmt.Errorf("osr: super-sequence length %d != scoring sequence length %d", len(superseq), len(scoreSeq))
	}
	specs := make([]posSpec, len(superseq))
	for i, c := range superseq {
		specs[i] = s.ancestorSpec(c)
	}
	return s.solve(start, specs, scoreSeq)
}

func (s *Solver) solve(start graph.VertexID, specs []posSpec, scoreSeq route.Sequence) (*route.Route, error) {
	s.stats.OSRQueries++
	switch s.engine {
	case EngineDijkstra:
		return s.osrDijkstra(start, specs, scoreSeq)
	case EnginePNE:
		return s.osrPNE(start, specs, scoreSeq)
	default:
		return nil, fmt.Errorf("osr: unknown engine %d", s.engine)
	}
}

func (s *Solver) trackQueueBytes(queued int) {
	// A queued label holds a *Route node (~64 bytes) plus heap slot.
	if b := int64(queued) * 80; b > s.stats.PeakQueueBytes {
		s.stats.PeakQueueBytes = b
	}
}

// osrDijkstra is the Dijkstra-based solution: pop the shortest partial
// route, run a Dijkstra from its end collecting every PoI of the next
// category, and queue all extensions. The first complete route popped is
// optimal (queue keyed by length, all weights non-negative).
func (s *Solver) osrDijkstra(start graph.VertexID, specs []posSpec, scoreSeq route.Sequence) (*route.Route, error) {
	k := len(specs)
	scorer := route.NewScorer(s.agg, k)
	q := pq.NewHeap(labelLess)
	q.Push(label{r: route.Empty(scorer)})
	for q.Len() > 0 {
		s.trackQueueBytes(q.Len())
		if err := s.chargePop(); err != nil {
			return nil, err
		}
		cur := q.Pop().r
		if cur.Size() == k {
			return cur, nil
		}
		pos := cur.Size()
		from := cur.Last()
		if from == graph.NoVertex {
			from = start
		}
		// Full Dijkstra from the route end; every matching PoI settled
		// spawns an extension. This unbounded search is what makes Dij
		// slow and memory-hungry — faithfully to the baseline.
		blown := false
		s.ws.Run(dijkstra.Options{
			Sources: []graph.VertexID{from},
			OnSettle: func(v graph.VertexID, d float64) dijkstra.Control {
				s.stats.SettledVerts++
				if s.overBudget() {
					blown = true
					return dijkstra.Stop
				}
				if _, ok := specs[pos].members[v]; ok && !cur.Contains(v) {
					h := scoreSeq[pos].Sim(s.d.Graph.Categories(v))
					q.Push(label{r: cur.Extend(scorer, v, d, h)})
					s.stats.RoutePushes++
				}
				return dijkstra.Continue
			},
		})
		if blown {
			return nil, ErrBudgetExceeded
		}
	}
	return nil, nil
}

// osrPNE is Progressive Neighbour Exploration: pop the shortest partial
// route, extend it with the rank-th nearest matching PoI, and re-queue the
// parent route at rank+1 so alternatives surface lazily.
func (s *Solver) osrPNE(start graph.VertexID, specs []posSpec, scoreSeq route.Sequence) (*route.Route, error) {
	k := len(specs)
	scorer := route.NewScorer(s.agg, k)
	q := pq.NewHeap(labelLess)
	q.Push(label{r: route.Empty(scorer), rank: 0})
	for q.Len() > 0 {
		s.trackQueueBytes(q.Len())
		if err := s.chargePop(); err != nil {
			return nil, err
		}
		cur := q.Pop()
		if cur.r.Size() == k {
			return cur.r, nil
		}
		pos := cur.r.Size()
		from := cur.r.Last()
		if from == graph.NoVertex {
			from = start
		}
		it := s.nnFor(from, specs[pos])
		// Skip ranks whose PoI is already on the route (Definition
		// 3.4(iii): all PoIs differ).
		rank := cur.rank
		for {
			p, d, ok := it.get(rank, s)
			if s.overBudget() {
				return nil, ErrBudgetExceeded
			}
			if !ok {
				break // candidate set exhausted from this vertex
			}
			if cur.r.Contains(p) {
				rank++
				continue
			}
			h := scoreSeq[pos].Sim(s.d.Graph.Categories(p))
			q.Push(label{r: cur.r.Extend(scorer, p, d, h)})
			q.Push(label{r: cur.r, rank: rank + 1})
			s.stats.RoutePushes += 2
			break
		}
	}
	return nil, nil
}

// nnIterator lazily materializes the matching PoIs around a vertex in
// ascending network distance, shared across all OSR sub-queries of a SkySR
// evaluation.
type nnIterator struct {
	it      *dijkstra.Iterator
	members map[graph.VertexID]struct{}
	found   []dijkstra.Settled
	done    bool
}

func (s *Solver) nnFor(from graph.VertexID, spec posSpec) *nnIterator {
	key := spec.key
	key.from = from
	if it, ok := s.nn[key]; ok {
		return it
	}
	it := &nnIterator{
		it:      dijkstra.NewIterator(s.d.Graph, from),
		members: spec.members,
	}
	s.nn[key] = it
	return it
}

// get returns the rank-th nearest matching PoI (0-based).
func (it *nnIterator) get(rank int, s *Solver) (graph.VertexID, float64, bool) {
	for len(it.found) <= rank && !it.done {
		settled, ok := it.it.Next()
		if !ok {
			it.done = true
			break
		}
		s.stats.SettledVerts++
		if _, member := it.members[settled.V]; member {
			it.found = append(it.found, settled)
		}
	}
	if rank < len(it.found) {
		f := it.found[rank]
		return f.V, f.Dist, true
	}
	return graph.NoVertex, math.Inf(1), false
}

// MemoryFootprintBytes estimates the solver's resident bytes beyond the
// dataset: cached NN iterators plus the workspace arrays (Table 6).
func (s *Solver) MemoryFootprintBytes() int64 {
	b := int64(s.d.Graph.NumVertices()) * 24 // workspace arrays
	for _, it := range s.nn {
		b += it.it.ExploredBytes() + int64(len(it.found))*16
	}
	b += s.stats.PeakQueueBytes
	return b
}
