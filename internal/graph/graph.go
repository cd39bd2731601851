// Package graph implements the road-network substrate of the paper: a
// connected graph G = (V ∪ P, E) where V are road vertices, P are PoI
// vertices embedded in the network, and E are weighted edges (§3).
//
// Graphs are built with a Builder and frozen into a compact CSR
// (compressed sparse row) adjacency representation that the Dijkstra
// family iterates over without allocation. Both directed and undirected
// graphs are supported (§6 "Directed graphs"); an undirected edge is
// stored as two arcs.
//
// PoI vertices carry one or more category ids (§6 "PoI with multiple
// categories"); the semantics of those ids (trees, similarity) live in
// package taxonomy.
package graph

import (
	"fmt"
	"math"

	"skysr/internal/geo"
)

// VertexID identifies a vertex (road or PoI) in a Graph. IDs are dense,
// starting at 0.
type VertexID = int32

// NoVertex is the sentinel for "no vertex".
const NoVertex VertexID = -1

// CategoryID identifies a category in a taxonomy.Forest. It is declared
// here (rather than importing taxonomy) so the graph layer stays
// independent of the semantic layer.
type CategoryID = int32

// NoCategory marks a road vertex that is not a PoI.
const NoCategory CategoryID = -1

// Graph is an immutable weighted graph in CSR form. Create one with a
// Builder.
type Graph struct {
	directed bool

	points []geo.Point

	// CSR adjacency: arcs out of vertex v occupy
	// targets[offsets[v]:offsets[v+1]] and weights[...] in parallel.
	// weights always holds each arc's lower-bound cost: the static weight
	// for plain arcs, the profile minimum for time-profiled arcs — so
	// every distance derived from the raw weights is an admissible lower
	// bound of the time-dependent cost CostAt (see metric.go).
	offsets []int32
	targets []VertexID
	weights []float64

	// tt is the optional time-dependent cost table; nil for static
	// graphs.
	tt *TimeTable

	// cat holds the primary category of each vertex (NoCategory for road
	// vertices). extraCats holds additional categories for the §6
	// multi-category extension; it is nil for most graphs.
	cat       []CategoryID
	extraCats map[VertexID][]CategoryID

	pois     []VertexID // all PoI vertices, ascending
	numEdges int        // logical edge count (undirected edges counted once)
}

// Directed reports whether the graph is directed.
func (g *Graph) Directed() bool { return g.directed }

// NumVertices returns the total number of vertices (road + PoI).
func (g *Graph) NumVertices() int { return len(g.points) }

// NumPoIs returns the number of PoI vertices.
func (g *Graph) NumPoIs() int { return len(g.pois) }

// NumRoadVertices returns the number of non-PoI vertices.
func (g *Graph) NumRoadVertices() int { return len(g.points) - len(g.pois) }

// NumEdges returns the number of logical edges (an undirected edge counts
// once).
func (g *Graph) NumEdges() int { return g.numEdges }

// Point returns the coordinates of v.
func (g *Graph) Point(v VertexID) geo.Point { return g.points[v] }

// IsPoI reports whether v is a PoI vertex.
func (g *Graph) IsPoI(v VertexID) bool { return g.cat[v] != NoCategory }

// PrimaryCategory returns the first category of v, or NoCategory for road
// vertices.
func (g *Graph) PrimaryCategory(v VertexID) CategoryID { return g.cat[v] }

// Categories returns all categories of v (primary first). The returned
// slice must not be mutated. Road vertices return nil.
func (g *Graph) Categories(v VertexID) []CategoryID {
	if g.cat[v] == NoCategory {
		return nil
	}
	if g.extraCats == nil {
		return g.cat[v : v+1]
	}
	extra, ok := g.extraCats[v]
	if !ok {
		return g.cat[v : v+1]
	}
	return extra // extra already includes the primary at position 0
}

// PoIVertices returns all PoI vertices in ascending id order. The returned
// slice must not be mutated.
func (g *Graph) PoIVertices() []VertexID { return g.pois }

// Neighbors returns the out-neighbors of v and the parallel arc weights.
// The returned slices alias internal storage and must not be mutated.
func (g *Graph) Neighbors(v VertexID) ([]VertexID, []float64) {
	lo, hi := g.offsets[v], g.offsets[v+1]
	return g.targets[lo:hi], g.weights[lo:hi]
}

// Degree returns the out-degree of v.
func (g *Graph) Degree(v VertexID) int {
	return int(g.offsets[v+1] - g.offsets[v])
}

// EdgeWeight returns the weight of the arc u->v and whether it exists. With
// parallel arcs the smallest weight is returned. An arc from a vertex
// outside the graph does not exist.
func (g *Graph) EdgeWeight(u, v VertexID) (float64, bool) {
	if u < 0 || int(u) >= g.NumVertices() {
		return 0, false
	}
	ts, ws := g.Neighbors(u)
	best := math.Inf(1)
	found := false
	for i, t := range ts {
		if t == v && ws[i] < best {
			best = ws[i]
			found = true
		}
	}
	return best, found
}

// Bounds returns the bounding box of all vertex coordinates.
func (g *Graph) Bounds() geo.Rect {
	var r geo.Rect
	for _, p := range g.points {
		r.Extend(p)
	}
	return r
}

// MemoryFootprintBytes estimates the heap bytes held by the CSR arrays.
// The experiment harness uses it for the Table 6 memory accounting.
func (g *Graph) MemoryFootprintBytes() int64 {
	b := int64(len(g.points)) * 16
	b += int64(len(g.offsets)) * 4
	b += int64(len(g.targets)) * 4
	b += int64(len(g.weights)) * 8
	b += int64(len(g.cat)) * 4
	b += int64(len(g.pois)) * 4
	if g.tt != nil {
		b += g.tt.memoryFootprintBytes()
	}
	return b
}

// ComponentOf returns the set of vertices reachable from start ignoring
// direction (weakly connected component), as a bitmap indexed by vertex id.
func (g *Graph) ComponentOf(start VertexID) []bool {
	seen := make([]bool, g.NumVertices())
	if g.NumVertices() == 0 {
		return seen
	}
	// For directed graphs weak connectivity needs reverse arcs too; build
	// a temporary reverse adjacency only in that case.
	var rev [][]VertexID
	if g.directed {
		rev = make([][]VertexID, g.NumVertices())
		for v := VertexID(0); int(v) < g.NumVertices(); v++ {
			ts, _ := g.Neighbors(v)
			for _, t := range ts {
				rev[t] = append(rev[t], v)
			}
		}
	}
	stack := []VertexID{start}
	seen[start] = true
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		ts, _ := g.Neighbors(v)
		for _, t := range ts {
			if !seen[t] {
				seen[t] = true
				stack = append(stack, t)
			}
		}
		if g.directed {
			for _, t := range rev[v] {
				if !seen[t] {
					seen[t] = true
					stack = append(stack, t)
				}
			}
		}
	}
	return seen
}

// LargestComponent returns the vertices of the largest weakly connected
// component.
func (g *Graph) LargestComponent() []VertexID {
	n := g.NumVertices()
	assigned := make([]bool, n)
	var best []VertexID
	for v := VertexID(0); int(v) < n; v++ {
		if assigned[v] {
			continue
		}
		comp := g.ComponentOf(v)
		var members []VertexID
		for u := VertexID(0); int(u) < n; u++ {
			if comp[u] {
				assigned[u] = true
				members = append(members, u)
			}
		}
		if len(members) > len(best) {
			best = members
		}
	}
	return best
}

// IsConnected reports whether the graph is (weakly) connected.
func (g *Graph) IsConnected() bool {
	if g.NumVertices() == 0 {
		return true
	}
	comp := g.ComponentOf(0)
	for _, ok := range comp {
		if !ok {
			return false
		}
	}
	return true
}

// Reversed returns a graph with every arc direction flipped; vertices, PoI
// categories and coordinates are shared. For undirected graphs it returns
// the receiver itself. The "SkySR with destination" extension (§6) uses it
// to compute distances TO the destination on directed networks.
//
// The time table is deliberately not carried onto a reversed directed
// graph: a backward search cannot know arrival times, so every reverse
// consumer (destination tables, index row builds) searches the
// lower-bound graph — which is exactly the reversed weights array.
func (g *Graph) Reversed() *Graph {
	if !g.directed {
		return g
	}
	n := g.NumVertices()
	deg := make([]int32, n+1)
	for _, t := range g.targets {
		deg[t+1]++
	}
	offsets := make([]int32, n+1)
	for i := 0; i < n; i++ {
		offsets[i+1] = offsets[i] + deg[i+1]
	}
	targets := make([]VertexID, len(g.targets))
	weights := make([]float64, len(g.weights))
	cursor := make([]int32, n)
	copy(cursor, offsets[:n])
	for v := VertexID(0); int(v) < n; v++ {
		lo, hi := g.offsets[v], g.offsets[v+1]
		for i := lo; i < hi; i++ {
			t := g.targets[i]
			targets[cursor[t]] = v
			weights[cursor[t]] = g.weights[i]
			cursor[t]++
		}
	}
	return &Graph{
		directed:  true,
		points:    g.points,
		offsets:   offsets,
		targets:   targets,
		weights:   weights,
		cat:       g.cat,
		extraCats: g.extraCats,
		pois:      g.pois,
		numEdges:  g.numEdges,
	}
}

// edge is a builder-side edge record.
type edge struct {
	u, v    VertexID
	w       float64
	deleted bool
}

// Builder accumulates vertices and edges and produces an immutable Graph.
type Builder struct {
	directed  bool
	points    []geo.Point
	cat       []CategoryID
	extraCats map[VertexID][]CategoryID
	edges     []edge
	deleted   int

	// period is the time-domain length for edge profiles (0 = unset,
	// DefaultPeriod applies); profiles maps builder edge indexes to their
	// travel-time profiles.
	period   float64
	profiles map[int]Profile
}

// SetTimePeriod declares the time-domain length edge profiles repeat
// over. It must be called before the first SetEdgeProfile (profiles are
// validated against the period as they are attached).
func (b *Builder) SetTimePeriod(period float64) error {
	if period <= 0 || math.IsNaN(period) || math.IsInf(period, 0) {
		return fmt.Errorf("%w: period %v is not positive and finite", ErrBadProfile, period)
	}
	if len(b.profiles) > 0 && period != b.TimePeriod() {
		return fmt.Errorf("%w: period changed to %v after profiles were attached", ErrBadProfile, period)
	}
	b.period = period
	return nil
}

// TimePeriod returns the builder's effective profile period.
func (b *Builder) TimePeriod() float64 {
	if b.period > 0 {
		return b.period
	}
	return DefaultPeriod
}

// SetEdgeProfile attaches a time-dependent travel-time profile to a
// previously added edge (both arcs, on undirected graphs). The edge's
// static weight is superseded: in the built graph its weight column
// holds the profile's minimum — the lower-bound cost — and traversal
// cost comes from the profile. The profile is validated against the
// builder's period immediately.
func (b *Builder) SetEdgeProfile(idx int, p Profile) error {
	if idx < 0 || idx >= len(b.edges) || b.edges[idx].deleted {
		return fmt.Errorf("graph: SetEdgeProfile on dead edge index %d", idx)
	}
	if err := p.Validate(b.TimePeriod()); err != nil {
		return fmt.Errorf("edge %d: %w", idx, err)
	}
	if b.profiles == nil {
		b.profiles = make(map[int]Profile)
	}
	b.profiles[idx] = p.clone()
	return nil
}

// NewBuilder returns a Builder for a directed or undirected graph.
func NewBuilder(directed bool) *Builder {
	return &Builder{directed: directed}
}

// Directed reports the directedness the builder was created with.
func (b *Builder) Directed() bool { return b.directed }

// NumVertices returns the number of vertices added so far.
func (b *Builder) NumVertices() int { return len(b.points) }

// NumEdges returns the number of live edges added so far.
func (b *Builder) NumEdges() int { return len(b.edges) - b.deleted }

// AddVertex adds a road vertex at p and returns its id.
func (b *Builder) AddVertex(p geo.Point) VertexID {
	b.points = append(b.points, p)
	b.cat = append(b.cat, NoCategory)
	return VertexID(len(b.points) - 1)
}

// AddPoI adds a PoI vertex at p with the given category and returns its id.
func (b *Builder) AddPoI(p geo.Point, c CategoryID) VertexID {
	if c == NoCategory {
		panic("graph: AddPoI with NoCategory")
	}
	b.points = append(b.points, p)
	b.cat = append(b.cat, c)
	return VertexID(len(b.points) - 1)
}

// AddCategory attaches an additional category to an existing PoI vertex
// (the §6 multi-category extension).
func (b *Builder) AddCategory(v VertexID, c CategoryID) {
	if b.cat[v] == NoCategory {
		panic("graph: AddCategory on a road vertex")
	}
	if c == b.cat[v] {
		return
	}
	if b.extraCats == nil {
		b.extraCats = make(map[VertexID][]CategoryID)
	}
	cur, ok := b.extraCats[v]
	if !ok {
		cur = []CategoryID{b.cat[v]}
	}
	for _, existing := range cur {
		if existing == c {
			return
		}
	}
	b.extraCats[v] = append(cur, c)
}

// AddEdge adds an edge from u to v with weight w (both directions when the
// builder is undirected). It returns the edge index usable with RemoveEdge.
func (b *Builder) AddEdge(u, v VertexID, w float64) int {
	if w < 0 || math.IsNaN(w) {
		panic(fmt.Sprintf("graph: invalid edge weight %v", w))
	}
	if u == v {
		panic("graph: self-loop edges are not allowed")
	}
	b.edges = append(b.edges, edge{u: u, v: v, w: w})
	return len(b.edges) - 1
}

// RemoveEdge tombstones a previously added edge (used when splitting an
// edge to embed a PoI). Removing twice is a no-op.
func (b *Builder) RemoveEdge(idx int) {
	if !b.edges[idx].deleted {
		b.edges[idx].deleted = true
		b.deleted++
	}
}

// Edge returns the endpoints and weight of a live builder edge.
func (b *Builder) Edge(idx int) (u, v VertexID, w float64, live bool) {
	e := b.edges[idx]
	return e.u, e.v, e.w, !e.deleted
}

// Point returns the coordinates of vertex v as added so far.
func (b *Builder) Point(v VertexID) geo.Point { return b.points[v] }

// Build freezes the builder into an immutable CSR Graph. The builder can
// keep being used afterwards (Build copies what it needs).
func (b *Builder) Build() *Graph {
	n := len(b.points)
	arcFactor := 1
	if !b.directed {
		arcFactor = 2
	}
	live := len(b.edges) - b.deleted

	deg := make([]int32, n+1)
	for _, e := range b.edges {
		if e.deleted {
			continue
		}
		deg[e.u+1]++
		if !b.directed {
			deg[e.v+1]++
		}
	}
	offsets := make([]int32, n+1)
	for i := 0; i < n; i++ {
		offsets[i+1] = offsets[i] + deg[i+1]
	}
	targets := make([]VertexID, live*arcFactor)
	weights := make([]float64, live*arcFactor)
	// Time-dependent state: profiled arcs remember their profile id and
	// store the profile minimum as their weight (the lower-bound graph
	// invariant every pruning structure relies on). A declared period is
	// sticky: once a builder names a time domain, the built graph keeps a
	// (possibly profile-less) time table so the period survives edits and
	// serialization even after the last profile is cleared.
	var tt *TimeTable
	if len(b.profiles) > 0 || b.period > 0 {
		tt = &TimeTable{period: b.TimePeriod(), arcProf: make([]int32, live*arcFactor)}
		for i := range tt.arcProf {
			tt.arcProf[i] = -1
		}
	}
	cursor := make([]int32, n)
	copy(cursor, offsets[:n])
	for i, e := range b.edges {
		if e.deleted {
			continue
		}
		w := e.w
		pid := int32(-1)
		if tt != nil {
			if p, ok := b.profiles[i]; ok {
				pid = int32(len(tt.profiles))
				tt.profiles = append(tt.profiles, p.clone())
				w = p.Min()
			}
		}
		targets[cursor[e.u]] = e.v
		weights[cursor[e.u]] = w
		if pid >= 0 {
			tt.arcProf[cursor[e.u]] = pid
		}
		cursor[e.u]++
		if !b.directed {
			targets[cursor[e.v]] = e.u
			weights[cursor[e.v]] = w
			if pid >= 0 {
				tt.arcProf[cursor[e.v]] = pid
			}
			cursor[e.v]++
		}
	}

	if tt != nil {
		tt.finalize()
	}

	cat := make([]CategoryID, n)
	copy(cat, b.cat)
	var pois []VertexID
	for v := 0; v < n; v++ {
		if cat[v] != NoCategory {
			pois = append(pois, VertexID(v))
		}
	}
	points := make([]geo.Point, n)
	copy(points, b.points)

	var extra map[VertexID][]CategoryID
	if len(b.extraCats) > 0 {
		extra = make(map[VertexID][]CategoryID, len(b.extraCats))
		for v, cs := range b.extraCats {
			extra[v] = append([]CategoryID(nil), cs...)
		}
	}

	return &Graph{
		directed:  b.directed,
		points:    points,
		offsets:   offsets,
		targets:   targets,
		weights:   weights,
		tt:        tt,
		cat:       cat,
		extraCats: extra,
		pois:      pois,
		numEdges:  live,
	}
}
