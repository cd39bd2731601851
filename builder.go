package skysr

import (
	"fmt"

	"skysr/internal/dataset"
	"skysr/internal/geo"
	"skysr/internal/graph"
	"skysr/internal/taxonomy"
)

// TaxonomyBuilder assembles a category forest (the semantic hierarchy of
// §3). Names must be unique across the forest.
type TaxonomyBuilder struct {
	fb  *taxonomy.ForestBuilder
	ids map[string]taxonomy.CategoryID
	err error
}

// NewTaxonomyBuilder returns an empty TaxonomyBuilder.
func NewTaxonomyBuilder() *TaxonomyBuilder {
	return &TaxonomyBuilder{
		fb:  taxonomy.NewForestBuilder(),
		ids: make(map[string]taxonomy.CategoryID),
	}
}

// Root adds a new category tree and returns the builder for chaining.
func (tb *TaxonomyBuilder) Root(name string) *TaxonomyBuilder {
	if tb.err == nil {
		var id taxonomy.CategoryID
		if id, tb.err = tb.fb.AddRoot(name); tb.err == nil {
			tb.ids[name] = id
		}
	}
	return tb
}

// Child adds a category under parent (which must already exist) and
// returns the builder for chaining.
func (tb *TaxonomyBuilder) Child(parent, name string) *TaxonomyBuilder {
	if tb.err != nil {
		return tb
	}
	p, ok := tb.ids[parent]
	if !ok {
		tb.err = fmt.Errorf("skysr: unknown parent category %.64q", parent)
		return tb
	}
	var id taxonomy.CategoryID
	if id, tb.err = tb.fb.AddChild(p, name); tb.err == nil {
		tb.ids[name] = id
	}
	return tb
}

// Err returns the first error encountered while building.
func (tb *TaxonomyBuilder) Err() error { return tb.err }

// NetworkBuilder assembles a road network with embedded PoIs through the
// public API. Edge weights are explicit, in any consistent unit (the
// paper's datasets use lon/lat degrees; meters work equally well).
type NetworkBuilder struct {
	name     string
	gb       *graph.Builder
	forest   *taxonomy.Forest
	tb       *TaxonomyBuilder
	err      error
	embedder *graph.Embedder
	ratings  map[VertexID]float64
}

// NewNetworkBuilder returns a builder for an undirected network using the
// taxonomy assembled by tb.
func NewNetworkBuilder(name string, tb *TaxonomyBuilder) *NetworkBuilder {
	return &NetworkBuilder{name: name, gb: graph.NewBuilder(false), tb: tb}
}

// NewDirectedNetworkBuilder is NewNetworkBuilder for one-way road networks
// (§6 "Directed graphs").
func NewDirectedNetworkBuilder(name string, tb *TaxonomyBuilder) *NetworkBuilder {
	return &NetworkBuilder{name: name, gb: graph.NewBuilder(true), tb: tb}
}

// NewFoursquareNetworkBuilder returns a builder for an undirected network
// using the built-in ten-tree Foursquare-like taxonomy of the paper's
// Tokyo/NYC datasets (§7.1), with category names like "Sushi Restaurant",
// "Art Museum" and "Gift Shop".
func NewFoursquareNetworkBuilder(name string) *NetworkBuilder {
	return &NetworkBuilder{
		name:   name,
		gb:     graph.NewBuilder(false),
		forest: taxonomy.FoursquareLike(),
	}
}

func (nb *NetworkBuilder) forestReady() *taxonomy.Forest {
	if nb.forest == nil {
		nb.forest = nb.tb.fb.Build()
	}
	return nb.forest
}

// AddVertex adds a road vertex at (lon, lat) and returns its id.
func (nb *NetworkBuilder) AddVertex(lon, lat float64) VertexID {
	return nb.gb.AddVertex(geo.Point{Lon: lon, Lat: lat})
}

// AddPoI adds a PoI vertex with one or more categories and returns its id.
func (nb *NetworkBuilder) AddPoI(lon, lat float64, categories ...string) (VertexID, error) {
	if nb.err != nil {
		return NoVertex, nb.err
	}
	if len(categories) == 0 {
		return NoVertex, fmt.Errorf("skysr: AddPoI needs at least one category")
	}
	f := nb.forestReady()
	ids := make([]taxonomy.CategoryID, len(categories))
	for i, name := range categories {
		c, ok := f.Lookup(name)
		if !ok {
			return NoVertex, fmt.Errorf("skysr: unknown category %.64q", name)
		}
		ids[i] = c
	}
	v := nb.gb.AddPoI(geo.Point{Lon: lon, Lat: lat}, ids[0])
	for _, c := range ids[1:] {
		nb.gb.AddCategory(v, c)
	}
	return v, nil
}

// AddRoad adds an edge between u and v, both already added, with the given
// non-negative weight (both directions on undirected networks).
func (nb *NetworkBuilder) AddRoad(u, v VertexID, weight float64) error {
	if n := VertexID(nb.gb.NumVertices()); u < 0 || u >= n || v < 0 || v >= n {
		return fmt.Errorf("skysr: road %d-%d has an endpoint outside [0, %d)", u, v, n)
	}
	if !(weight >= 0) {
		return fmt.Errorf("skysr: road weight %v is not non-negative", weight)
	}
	if u == v {
		return fmt.Errorf("skysr: road endpoints must differ")
	}
	nb.gb.AddEdge(u, v, weight)
	return nil
}

// EmbedPoI places a PoI on the nearest existing road edge (splitting it),
// the preprocessing the paper applies to Foursquare PoIs (§7.1). Roads
// must be added before the first EmbedPoI call.
func (nb *NetworkBuilder) EmbedPoI(lon, lat float64, category string) (VertexID, error) {
	if nb.err != nil {
		return NoVertex, nb.err
	}
	f := nb.forestReady()
	c, ok := f.Lookup(category)
	if !ok {
		return NoVertex, fmt.Errorf("skysr: unknown category %.64q", category)
	}
	if nb.embedder == nil {
		em, err := graph.NewEmbedder(nb.gb, 64)
		if err != nil {
			return NoVertex, err
		}
		nb.embedder = em
	}
	return nb.embedder.Embed(geo.Point{Lon: lon, Lat: lat}, c)
}

// SetRating attaches a rating in [0, 5] to a PoI (the §9 multi-attribute
// extension); higher is better. Ratings take effect at Build.
func (nb *NetworkBuilder) SetRating(v VertexID, rating float64) error {
	if !(rating >= 0 && rating <= dataset.MaxRating) {
		return fmt.Errorf("skysr: rating %v outside [0, %v]", rating, dataset.MaxRating)
	}
	if nb.ratings == nil {
		nb.ratings = make(map[VertexID]float64)
	}
	nb.ratings[v] = rating
	return nil
}

// Build freezes the network into an Engine.
func (nb *NetworkBuilder) Build() (*Engine, error) {
	if nb.err != nil {
		return nil, nb.err
	}
	if nb.tb != nil {
		if err := nb.tb.Err(); err != nil {
			return nil, err
		}
	}
	ds, err := dataset.New(nb.name, nb.gb.Build(), nb.forestReady())
	if err != nil {
		return nil, err
	}
	if len(nb.ratings) > 0 {
		all := make([]float64, ds.Graph.NumVertices())
		for i := range all {
			all[i] = dataset.MaxRating
		}
		for v, r := range nb.ratings {
			if v < 0 || int(v) >= len(all) {
				return nil, fmt.Errorf("skysr: rating set for unknown vertex %d", v)
			}
			all[v] = r
		}
		if err := ds.SetRatings(all); err != nil {
			return nil, err
		}
	}
	return newEngine(ds), nil
}
