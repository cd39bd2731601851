// Package dataset ties together the two halves of the paper's data model —
// the road network (package graph) and the semantic hierarchy (package
// taxonomy) — and maintains the PoI indexes the algorithms query: P_c (PoIs
// associated with a category, including via descendants, §3) and P_t (PoIs
// of a whole tree).
//
// It also provides a line-oriented text serialization so generated datasets
// can be saved and reloaded by the CLI tools.
package dataset

import (
	"fmt"
	"sort"

	"skysr/internal/graph"
	"skysr/internal/taxonomy"
)

// Dataset is an immutable bundle of a road network, a category forest and
// the derived PoI indexes.
type Dataset struct {
	Name   string
	Graph  *graph.Graph
	Forest *taxonomy.Forest

	byCategory map[taxonomy.CategoryID][]graph.VertexID // subtree association
	exact      map[taxonomy.CategoryID][]graph.VertexID // exact category only

	// ratings holds per-vertex PoI ratings in [0, MaxRating] for the §9
	// multi-attribute extension; nil when the dataset carries none.
	ratings []float64
}

// MaxRating is the top of the PoI rating scale (Foursquare-style 0–5,
// higher is better).
const MaxRating = 5.0

// New indexes g against f and returns the Dataset. Every PoI category in g
// must be a valid id of f.
func New(name string, g *graph.Graph, f *taxonomy.Forest) (*Dataset, error) {
	d := &Dataset{
		Name:       name,
		Graph:      g,
		Forest:     f,
		byCategory: make(map[taxonomy.CategoryID][]graph.VertexID),
		exact:      make(map[taxonomy.CategoryID][]graph.VertexID),
	}
	n := taxonomy.CategoryID(f.NumCategories())
	for _, p := range g.PoIVertices() {
		seen := map[taxonomy.CategoryID]bool{}
		for _, c := range g.Categories(p) {
			if c < 0 || c >= n {
				return nil, fmt.Errorf("dataset %s: PoI %d has category %d outside forest (%d categories)", name, p, c, n)
			}
			d.exact[c] = append(d.exact[c], p)
			// A PoI with category c is associated with every ancestor of
			// c (§3), so it belongs to P_a for each ancestor a.
			for _, a := range f.Ancestors(c) {
				if !seen[a] {
					seen[a] = true
					d.byCategory[a] = append(d.byCategory[a], p)
				}
			}
		}
	}
	return d, nil
}

// MustNew is New that panics on error, for tests and generators whose
// inputs are constructed consistently.
func MustNew(name string, g *graph.Graph, f *taxonomy.Forest) *Dataset {
	d, err := New(name, g, f)
	if err != nil {
		panic(err)
	}
	return d
}

// SetRatings attaches per-vertex PoI ratings (len == NumVertices; entries
// for road vertices are ignored). Ratings must lie in [0, MaxRating]. It
// is part of dataset construction — call it before sharing the dataset.
func (d *Dataset) SetRatings(ratings []float64) error {
	if len(ratings) != d.Graph.NumVertices() {
		return fmt.Errorf("dataset: ratings length %d != vertex count %d", len(ratings), d.Graph.NumVertices())
	}
	if err := d.checkRatings(ratings); err != nil {
		return err
	}
	d.ratings = append([]float64(nil), ratings...)
	return nil
}

// checkRatings fails unless every PoI's rating lies in [0, MaxRating].
func (d *Dataset) checkRatings(ratings []float64) error {
	for _, p := range d.Graph.PoIVertices() {
		if r := ratings[p]; !(r >= 0 && r <= MaxRating) {
			return fmt.Errorf("dataset: rating %v of PoI %d outside [0, %v]", r, p, MaxRating)
		}
	}
	return nil
}

// HasRatings reports whether the dataset carries PoI ratings.
func (d *Dataset) HasRatings() bool { return d.ratings != nil }

// Rating returns the rating of v. Datasets without ratings (and road
// vertices) report MaxRating, which makes the rating penalty neutral.
func (d *Dataset) Rating(v graph.VertexID) float64 {
	if d.ratings == nil || !d.Graph.IsPoI(v) {
		return MaxRating
	}
	return d.ratings[v]
}

// RatingPenalty converts a rating into the [0, 1] penalty used as the
// third skyline criterion: 0 for a top-rated PoI, 1 for the worst.
func RatingPenalty(rating float64) float64 { return 1 - rating/MaxRating }

// Apply returns a new Dataset over the graph produced by applying the
// edit batch (see graph.Edits); the receiver is untouched, so concurrent
// readers of the old dataset stay correct. The forest is shared (live
// updates never change the taxonomy), the PoI indexes are re-derived from
// the new graph, and ratings carry over vertex by vertex. Category ids in
// the batch are validated against the forest.
func (d *Dataset) Apply(edits graph.Edits) (*Dataset, error) {
	n := taxonomy.CategoryID(d.Forest.NumCategories())
	for _, c := range edits.SetCategories {
		for _, cat := range c.Categories {
			if cat < 0 || cat >= n {
				return nil, fmt.Errorf("dataset %s: category edit of vertex %d names category %d outside forest (%d categories)",
					d.Name, c.V, cat, n)
			}
		}
	}
	g, err := d.Graph.Apply(edits)
	if err != nil {
		return nil, err
	}
	out, err := New(d.Name, g, d.Forest)
	if err != nil {
		return nil, err
	}
	if d.ratings != nil {
		out.ratings = append([]float64(nil), d.ratings...)
	}
	return out, nil
}

// PoIsAssociated returns P_c: every PoI associated with c directly or
// through a descendant category. The slice is shared; do not mutate.
func (d *Dataset) PoIsAssociated(c taxonomy.CategoryID) []graph.VertexID {
	return d.byCategory[c]
}

// PoIsExact returns the PoIs whose own category list contains exactly c.
// The slice is shared; do not mutate.
func (d *Dataset) PoIsExact(c taxonomy.CategoryID) []graph.VertexID {
	return d.exact[c]
}

// PoIsInTree returns P_t for the tree containing c: every PoI whose
// category belongs to the same tree — the paper's "semantic match"
// candidate set.
func (d *Dataset) PoIsInTree(c taxonomy.CategoryID) []graph.VertexID {
	return d.byCategory[d.Forest.Root(c)]
}

// CategoriesWithAtLeast returns the leaf categories that have at least min
// exactly-matching PoIs, in descending PoI-count order (ties by id). The
// workload generator uses it to honor the paper's "select only categories
// that have a large number of PoI vertices" protocol (§7.1).
func (d *Dataset) CategoriesWithAtLeast(min int) []taxonomy.CategoryID {
	var out []taxonomy.CategoryID
	for _, c := range d.Forest.Leaves() {
		if len(d.exact[c]) >= min {
			out = append(out, c)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		ni, nj := len(d.exact[out[i]]), len(d.exact[out[j]])
		if ni != nj {
			return ni > nj
		}
		return out[i] < out[j]
	})
	return out
}

// Stats summarizes the dataset in the shape of the paper's Table 5.
type Stats struct {
	Name         string
	RoadVertices int // |V|
	PoIVertices  int // |P|
	Edges        int // |E|
	Categories   int
	Trees        int
}

// Stats computes the Table 5 row for the dataset.
func (d *Dataset) Stats() Stats {
	return Stats{
		Name:         d.Name,
		RoadVertices: d.Graph.NumRoadVertices(),
		PoIVertices:  d.Graph.NumPoIs(),
		Edges:        d.Graph.NumEdges(),
		Categories:   d.Forest.NumCategories(),
		Trees:        d.Forest.NumTrees(),
	}
}

// String renders the stats as a table row.
func (s Stats) String() string {
	return fmt.Sprintf("%-8s |V|=%-8d |P|=%-8d |E|=%-8d categories=%d trees=%d",
		s.Name, s.RoadVertices, s.PoIVertices, s.Edges, s.Categories, s.Trees)
}

// MemoryFootprintBytes estimates the resident bytes of the dataset (graph
// arrays plus PoI indexes), used in the Table 6 accounting.
func (d *Dataset) MemoryFootprintBytes() int64 {
	b := d.Graph.MemoryFootprintBytes()
	for _, v := range d.byCategory {
		b += int64(len(v)) * 4
	}
	for _, v := range d.exact {
		b += int64(len(v)) * 4
	}
	return b
}
