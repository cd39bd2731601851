package graph

import (
	"errors"
	"fmt"
	"math"
	"slices"

	"skysr/internal/geo"
)

// This file is the serialization seam of the package: GraphParts exposes
// the frozen CSR columns so a writer can emit them verbatim, and
// FromParts rebuilds a Graph around externally supplied columns — in
// particular slices aliasing a read-only memory mapping — without going
// through the Builder. Everything else in the package treats the columns
// as immutable, so a Graph over mmap'd sections is safe as long as the
// mapping outlives it.

// GraphParts is the frozen column-level view of a Graph: exactly the
// state a byte-level serializer needs to round-trip one. Slices are the
// Graph's own backing arrays (from Parts) or become the new Graph's
// backing arrays (to FromParts) — they are never copied, and must not be
// mutated on either side.
type GraphParts struct {
	Directed bool
	Points   []geo.Point
	// CSR adjacency columns; see Graph. Weights holds each arc's
	// lower-bound cost (the profile minimum for time-profiled arcs), so
	// round-tripping the column verbatim preserves it bit-exactly.
	Offsets []int32
	Targets []VertexID
	Weights []float64
	// Cat holds each vertex's primary category (NoCategory for road
	// vertices); ExtraCats the §6 multi-category extension (nil for most
	// graphs; entries repeat the primary at position 0).
	Cat       []CategoryID
	ExtraCats map[VertexID][]CategoryID
	// NumEdges is the logical edge count (undirected edges counted once).
	NumEdges int
	// TT is the optional time-dependent cost table (nil when static).
	TT *TimeTable
}

// Parts returns the column-level view of g. The slices alias g's backing
// arrays and must not be mutated.
func (g *Graph) Parts() GraphParts {
	return GraphParts{
		Directed:  g.directed,
		Points:    g.points,
		Offsets:   g.offsets,
		Targets:   g.targets,
		Weights:   g.weights,
		Cat:       g.cat,
		ExtraCats: g.extraCats,
		NumEdges:  g.numEdges,
		TT:        g.tt,
	}
}

// FromParts freezes a Graph directly around the supplied columns,
// validating the invariants the Builder would have enforced: the CSR
// shape, arcs that are no self-loops and carry a non-negative weight,
// and, on undirected graphs, every arc u→v paired with its own reverse
// arc v→u of the same weight and profile (reverse searches run on an
// undirected graph itself). The slices are adopted, not copied: callers
// hand over ownership, and read-only backings (an mmap'd file) are fine
// because no Graph method writes to them. The PoI list is re-derived from
// the category column.
func FromParts(p GraphParts) (*Graph, error) {
	n := len(p.Points)
	if len(p.Offsets) != n+1 {
		return nil, fmt.Errorf("graph: offsets length %d, want %d", len(p.Offsets), n+1)
	}
	if len(p.Cat) != n {
		return nil, fmt.Errorf("graph: categories length %d, want %d", len(p.Cat), n)
	}
	numArcs := len(p.Targets)
	if len(p.Weights) != numArcs {
		return nil, fmt.Errorf("graph: weights length %d, want %d arcs", len(p.Weights), numArcs)
	}
	if p.Offsets[0] != 0 || int(p.Offsets[n]) != numArcs {
		return nil, fmt.Errorf("graph: offsets span [%d,%d], want [0,%d]", p.Offsets[0], p.Offsets[n], numArcs)
	}
	for v := 0; v < n; v++ {
		if p.Offsets[v] > p.Offsets[v+1] {
			return nil, fmt.Errorf("graph: offsets not monotone at vertex %d", v)
		}
	}
	for u := 0; u < n; u++ {
		for i := p.Offsets[u]; i < p.Offsets[u+1]; i++ {
			switch t, w := p.Targets[i], p.Weights[i]; {
			case t < 0 || int(t) >= n:
				return nil, fmt.Errorf("graph: arc %d target %d out of range", i, t)
			case int(t) == u:
				return nil, fmt.Errorf("graph: arc %d is a self-loop at vertex %d", i, u)
			case w < 0 || math.IsNaN(w):
				return nil, fmt.Errorf("graph: arc %d has weight %v", i, w)
			}
		}
	}
	wantArcs := p.NumEdges
	if !p.Directed {
		wantArcs = 2 * p.NumEdges
	}
	if numArcs != wantArcs {
		return nil, fmt.Errorf("graph: %d arcs for %d logical edges (directed=%v)", numArcs, p.NumEdges, p.Directed)
	}
	if tt := p.TT; tt != nil && len(tt.arcProf) != numArcs {
		return nil, fmt.Errorf("graph: time table covers %d arcs, want %d", len(tt.arcProf), numArcs)
	}
	if !p.Directed {
		if err := checkPaired(p); err != nil {
			return nil, err
		}
	}
	var pois []VertexID
	for v := 0; v < n; v++ {
		if p.Cat[v] != NoCategory {
			pois = append(pois, VertexID(v))
		}
	}
	return &Graph{
		directed:  p.Directed,
		points:    p.Points,
		offsets:   p.Offsets,
		targets:   p.Targets,
		weights:   p.Weights,
		tt:        p.TT,
		cat:       p.Cat,
		extraCats: p.ExtraCats,
		pois:      pois,
		numEdges:  p.NumEdges,
	}, nil
}

// checkPaired matches every arc of an undirected graph with a reverse
// arc of the same weight and profile. Two stable counting sorts list
// each vertex's in-arcs by source and its out-arcs by target; the lists
// must agree entry by entry, which pairs the arcs one to one in linear
// time. Parallel arcs between two vertices must therefore keep one order
// at both ends, as the Builder and every edit lay them out.
func checkPaired(p GraphParts) error {
	n, m := len(p.Points), len(p.Targets)
	src := make([]VertexID, m)
	for u := 0; u < n; u++ {
		for i := p.Offsets[u]; i < p.Offsets[u+1]; i++ {
			src[i] = VertexID(u)
		}
	}
	inStart := make([]int32, n+1)
	for _, v := range p.Targets {
		inStart[v+1]++
	}
	for v := 0; v < n; v++ {
		inStart[v+1] += inStart[v]
	}
	if !slices.Equal(inStart, p.Offsets) {
		return errors.New("graph: undirected graph whose in-degrees differ from its out-degrees")
	}
	// in lists the arcs by target, then source; out by source, then target.
	in, out := make([]int32, m), make([]int32, m)
	next := slices.Clone(p.Offsets[:n])
	for i, v := range p.Targets {
		in[next[v]] = int32(i)
		next[v]++
	}
	copy(next, p.Offsets[:n])
	for _, i := range in {
		out[next[src[i]]] = i
		next[src[i]]++
	}
	prof := func(i int32) int32 {
		if p.TT == nil {
			return -1
		}
		return p.TT.arcProf[i]
	}
	for k, a := range in {
		if b := out[k]; src[a] != p.Targets[b] || p.Weights[a] != p.Weights[b] || prof(a) != prof(b) {
			return fmt.Errorf("graph: undirected arc %d→%d has no reverse arc of the same weight and profile", src[b], p.Targets[b])
		}
	}
	return nil
}

// NewTimeTable builds a TimeTable from its serialized parts: the period,
// the per-arc profile index column (-1 for static arcs), and the profile
// set. Profiles are validated exactly as on the build path, and the
// evaluation table is derived. The slices are adopted, not copied.
func NewTimeTable(period float64, arcProf []int32, profiles []Profile) (*TimeTable, error) {
	if period <= 0 {
		return nil, fmt.Errorf("%w: period %g", ErrBadProfile, period)
	}
	for i, p := range profiles {
		if err := p.Validate(period); err != nil {
			return nil, fmt.Errorf("profile %d: %w", i, err)
		}
	}
	for i, pid := range arcProf {
		if pid < -1 || int(pid) >= len(profiles) {
			return nil, fmt.Errorf("%w: arc %d references profile %d of %d", ErrBadProfile, i, pid, len(profiles))
		}
	}
	tt := &TimeTable{period: period, arcProf: arcProf, profiles: profiles}
	tt.finalize()
	return tt, nil
}

// ArcProfileIDs returns the per-arc profile index column (-1 for static
// arcs). The slice aliases the table's backing array and must not be
// mutated.
func (tt *TimeTable) ArcProfileIDs() []int32 { return tt.arcProf }

// Profiles returns the profile set, indexed by the ids in ArcProfileIDs.
// The slice and the profiles' breakpoint slices must not be mutated.
func (tt *TimeTable) Profiles() []Profile { return tt.profiles }
