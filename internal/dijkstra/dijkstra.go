// Package dijkstra implements the shortest-path machinery the paper's
// algorithms are built from: bounded, goal-cut single-source searches
// (the kernel of Algorithm 2), multi-source multi-destination searches
// (Algorithm 4, Lemma 5.9), an incremental nearest-neighbour iterator (the
// primitive behind the PNE baseline), and path reconstruction for
// presenting final routes.
//
// A Workspace amortizes the per-search arrays across the many Dijkstra
// executions a single SkySR query performs (the paper counts hundreds,
// Figure 5): arrays are epoch-stamped so resetting between runs is O(1).
//
// A run may carry an A* potential (Options.Potential): rows of per-vertex
// lower bounds on the distance to the nearest target, queued by distance
// plus potential. The category index stores its rows rounded down to
// float32, so a potential is admissible but may be inconsistent by an ulp
// along an arc; a potential run therefore reopens a settled vertex that a
// strictly shorter path reaches later. With an admissible potential a
// target (potential 0) is settled only at its exact distance: any shorter
// path to it leaves a queued vertex on that path keyed at most that
// distance, up to the float64 rounding every sum shares. On a
// time-dependent run the rows hold distances on the lower-bound graph,
// which stay admissible because profiles are FIFO.
package dijkstra

import (
	"math"

	"skysr/internal/graph"
	"skysr/internal/pq"
)

// Control tells Run how to proceed after settling a vertex.
type Control int

const (
	// Continue settles the vertex and relaxes its out-edges.
	Continue Control = iota
	// SkipExpand settles the vertex but does not relax its out-edges
	// (Lemma 5.5: do not traverse through a perfectly matching PoI).
	SkipExpand
	// Stop terminates the search immediately.
	Stop
	// StopAfterTies expands the vertex like Continue, then lowers Bound to
	// just above its key: what is still queued at that key, or reaches it
	// through zero-cost arcs, settles before the search stops. A search
	// for the match with the least (distance, vertex id) returns this at
	// every match and keeps the least one it sees.
	StopAfterTies
)

// Settled is a vertex together with its final shortest-path distance.
type Settled struct {
	V    graph.VertexID
	Dist float64
}

// Options configures one Run.
type Options struct {
	// Sources are settled at distance zero, or at SourceDist. Multiple
	// sources give the multi-source search of Lemma 5.9.
	Sources []graph.VertexID
	// SourceDist, when non-nil, holds per-source start distances parallel
	// to Sources: a search from a virtual vertex with an arc of that length
	// to each source. A source listed twice starts at its smaller value.
	SourceDist []float64
	// Bound, when positive, stops the search as soon as the next settled
	// distance is ≥ Bound (the Lemma 5.3 cut in Algorithm 2 line 8).
	// Zero or negative means unbounded.
	Bound float64
	// Goal, when non-empty, cuts the search by rows of per-vertex lower
	// bounds on what is still to travel from a vertex: a vertex v reached
	// at distance d, a source included, is not queued once
	// d + GoalBound(Goal, v) ≥ Bound.
	Goal [][]float32
	// Potential, when non-empty, turns the run into A*: a vertex v
	// reached at distance d is queued by the key d plus the smallest
	// entry of the rows at v, and Bound compares against keys rather than
	// distances. Each row must lower-bound the distance from a vertex to
	// the run's targets, so a +Inf entry proves none is reachable from v
	// and drops it, a source included. Vertices settle in key order, and
	// a settled vertex that a strictly shorter path reaches later is
	// reopened (see the package doc); OnSettle then sees it again at the
	// shorter distance.
	Potential [][]float32
	// OnSettle, when non-nil, observes every settled vertex in ascending
	// key order (distance order without a Potential) and steers the
	// search.
	OnSettle func(v graph.VertexID, d float64) Control

	// Halt, when non-nil, is polled once per heap pop; a true return
	// aborts the search immediately, like Stop but from outside the
	// OnSettle steering. Query cancellation and deadlines thread through
	// here: the core installs its amortized cancellation check so every
	// search a query runs — NNinit stages, lower-bound sweeps,
	// destination tables, leg pricing — unwinds within one check stride
	// of the cancel. A halted run's distances are partial; callers must
	// not treat them as complete.
	Halt func() bool

	// TimeDependent switches relaxation to cost-at-arrival evaluation:
	// the arc u→t costs Graph.CostAt(arc, DepartAt + dist(u)). Settled
	// distances are then travel times from the sources. Label-setting
	// Dijkstra stays exact because profiles are FIFO
	// (graph.Profile.Validate enforces it). Unset, relaxation reads the
	// graph's weight column, the lower-bound graph of its profiles.
	TimeDependent bool
	// DepartAt is the absolute departure time at the sources; only
	// meaningful with TimeDependent.
	DepartAt float64
}

// Workspace holds the reusable state for searches over one graph. It is
// not safe for concurrent use.
type Workspace struct {
	g       *graph.Graph
	dist    []float64
	parent  []graph.VertexID
	stamp   []uint32
	settled []uint32
	epoch   uint32
	heap    *pq.IndexedHeap
	cut     bool
}

// New returns a Workspace for g.
func New(g *graph.Graph) *Workspace {
	n := g.NumVertices()
	return &Workspace{
		g:       g,
		dist:    make([]float64, n),
		parent:  make([]graph.VertexID, n),
		stamp:   make([]uint32, n),
		settled: make([]uint32, n),
		heap:    pq.NewIndexedHeap(n),
	}
}

// Run executes one Dijkstra search and returns the number of settled
// vertices (the Table 8 "number of visited vertices" metric), counting a
// reopened vertex each time it settles. Distances, parents and Cut of the
// run remain queryable until the next Run.
func (w *Workspace) Run(opts Options) int {
	w.epoch++
	if w.epoch == 0 {
		// The epoch wrapped: stamps written 2^32 runs ago could collide
		// with the new epoch. Workspaces now outlive single queries (they
		// are pooled), so a long-running server does reach this.
		clear(w.stamp)
		clear(w.settled)
		w.epoch = 1
	}
	w.heap.Reset()
	w.cut = false
	bound := opts.Bound
	if bound <= 0 {
		bound = math.Inf(1)
	}
	goal, pot := opts.Goal, opts.Potential
	for i, s := range opts.Sources {
		d := 0.0
		if opts.SourceDist != nil {
			d = opts.SourceDist[i]
		}
		if w.stamp[s] == w.epoch && w.dist[s] <= d {
			continue // listed twice: the smaller start stands
		}
		if len(goal) > 0 && w.goalCut(goal, s, d, bound) {
			continue
		}
		key := d
		if len(pot) > 0 {
			h := potentialBound(pot, s)
			if math.IsInf(h, 1) {
				continue
			}
			key += h
		}
		w.dist[s] = d
		w.parent[s] = graph.NoVertex
		w.stamp[s] = w.epoch
		w.heap.PushOrDecrease(s, key)
	}
	count := 0
	for w.heap.Len() > 0 {
		if opts.Halt != nil && opts.Halt() {
			break
		}
		v, key := w.heap.Pop()
		if key >= bound {
			w.cut = true
			break
		}
		d := key
		if len(pot) > 0 {
			d = w.dist[v]
		}
		w.settled[v] = w.epoch
		count++

		ctrl := Continue
		if opts.OnSettle != nil {
			ctrl = opts.OnSettle(v, d)
		}
		if ctrl == Stop {
			break
		}
		if ctrl == SkipExpand {
			continue
		}
		if ctrl == StopAfterTies {
			bound = math.Nextafter(key, math.Inf(1))
		}
		ts, ws := w.g.Neighbors(v)
		var base int32
		if opts.TimeDependent {
			base = w.g.ArcBase(v)
		}
		for i, t := range ts {
			if w.settled[t] == w.epoch && len(pot) == 0 {
				continue // final: only a potential run reopens
			}
			cost := ws[i]
			if opts.TimeDependent {
				cost = w.g.CostAt(base+int32(i), opts.DepartAt+d)
			}
			nd := d + cost
			if nd >= bound {
				w.cut = true
				continue
			}
			if len(goal) > 0 && w.goalCut(goal, t, nd, bound) {
				continue
			}
			if w.stamp[t] != w.epoch || nd < w.dist[t] {
				key := nd
				if len(pot) > 0 {
					h := potentialBound(pot, t)
					if math.IsInf(h, 1) {
						continue
					}
					if key += h; key >= bound {
						w.cut = true
						continue
					}
					w.settled[t] = 0 // reopen: epochs start at 1
				}
				w.dist[t] = nd
				w.parent[t] = v
				w.stamp[t] = w.epoch
				w.heap.PushOrDecrease(t, key)
			}
		}
	}
	return count
}

// GoalBound is the goal rows' lower bound at v: their largest entry
// there, 0 when there are none.
func GoalBound(rows [][]float32, v graph.VertexID) float64 {
	var lb float32
	for _, row := range rows {
		lb = max(lb, row[v])
	}
	return float64(lb)
}

// potentialBound is the potential at v: the smallest entry of the
// (non-empty) potential rows there.
func potentialBound(rows [][]float32, v graph.VertexID) float64 {
	lb := rows[0][v]
	for _, row := range rows[1:] {
		lb = min(lb, row[v])
	}
	return float64(lb)
}

// goalCut reports whether the goal rows rule v out at distance d: no
// completion through v can end below bound. A finite entry marks the run
// cut, since a larger Bound could let v through; a +Inf entry proves that
// no completion ever passes through v, so it cuts without marking.
func (w *Workspace) goalCut(goal [][]float32, v graph.VertexID, d, bound float64) bool {
	lb := GoalBound(goal, v)
	if d+lb < bound {
		return false
	}
	if !math.IsInf(lb, 1) {
		w.cut = true
	}
	return true
}

// Cut reports whether Bound or a finite Goal entry suppressed a vertex or
// an arc in the most recent Run. A run that was neither cut nor halted
// would settle the same vertices at the same distances under any larger
// Bound.
func (w *Workspace) Cut() bool { return w.cut }

// Parent returns the predecessor of v on its shortest path in the most
// recent Run, NoVertex for a source. v must have been reached.
func (w *Workspace) Parent(v graph.VertexID) graph.VertexID { return w.parent[v] }

// Dist returns the distance of v computed by the most recent Run and
// whether v was reached (settled or still queued with a tentative value;
// for settled vertices the value is final).
func (w *Workspace) Dist(v graph.VertexID) (float64, bool) {
	if w.stamp[v] != w.epoch {
		return 0, false
	}
	return w.dist[v], true
}

// WasSettled reports whether v was settled by the most recent Run.
func (w *Workspace) WasSettled(v graph.VertexID) bool {
	return w.settled[v] == w.epoch
}

// PathTo reconstructs the vertex path from the (nearest) source to v for
// the most recent Run. It returns nil when v was not reached.
func (w *Workspace) PathTo(v graph.VertexID) []graph.VertexID {
	if w.stamp[v] != w.epoch {
		return nil
	}
	var rev []graph.VertexID
	for cur := v; cur != graph.NoVertex; cur = w.parent[cur] {
		rev = append(rev, cur)
		if w.parent[cur] != graph.NoVertex && w.stamp[w.parent[cur]] != w.epoch {
			return nil // defensive: broken parent chain
		}
	}
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	return rev
}

// Distance returns the network distance D(u, v) (Definition 3.5), or +Inf
// when v is unreachable from u. The search stops as soon as v settles.
func (w *Workspace) Distance(u, v graph.VertexID) float64 {
	if u == v {
		return 0
	}
	found := math.Inf(1)
	w.Run(Options{
		Sources: []graph.VertexID{u},
		OnSettle: func(x graph.VertexID, d float64) Control {
			if x == v {
				found = d
				return Stop
			}
			return Continue
		},
	})
	return found
}

// MinDistance runs the multi-source multi-destination search of Algorithm
// 4: all sources start at distance zero and the search stops at the first
// settled vertex for which isDest returns true (Lemma 5.9 guarantees it is
// the closest). bound limits the explored radius (≤ 0 for unbounded). ok is
// false when no destination lies within the bound.
func (w *Workspace) MinDistance(sources []graph.VertexID, isDest func(v graph.VertexID) bool, bound float64) (d float64, at graph.VertexID, ok bool) {
	at = graph.NoVertex
	w.Run(Options{
		Sources: sources,
		Bound:   bound,
		OnSettle: func(v graph.VertexID, dist float64) Control {
			if isDest(v) {
				d, at, ok = dist, v, true
				return Stop
			}
			return Continue
		},
	})
	return d, at, ok
}
