// Package gen builds the synthetic datasets and query workloads of the
// experimental study (§7.1). The paper evaluates on Tokyo/NYC road networks
// from OpenStreetMap with Foursquare PoIs and on the California dataset;
// none of those are redistributable here, so gen produces parameterized
// synthetic equivalents that preserve the properties the evaluation
// manipulates: vertex/PoI/edge ratios, category-popularity skew, and the
// spatial concentration of PoIs that drives the Figure 4 lower-bound
// behaviour.
package gen

import (
	"fmt"
	"math"
	"math/rand"

	"skysr/internal/dataset"
	"skysr/internal/geo"
	"skysr/internal/graph"
	"skysr/internal/taxonomy"
)

// Model selects the road-network topology generator.
type Model int

const (
	// GridModel produces a perturbed lattice with arterial shortcuts —
	// the street-grid look of Tokyo and NYC.
	GridModel Model = iota
	// GeometricModel produces a random geometric graph (vertices thrown
	// uniformly, each connected to its nearest neighbours) — the sparse
	// highway look of the California dataset.
	GeometricModel
)

// Config parameterizes one synthetic dataset.
type Config struct {
	Name     string
	Seed     int64
	Model    Model
	Directed bool

	// Vertices is the approximate road-vertex count. For GridModel the
	// lattice dimensions are derived from it.
	Vertices int

	// Bounds is the lon/lat box the network covers.
	Bounds geo.Rect

	// Irregularity in [0, 1] jitters lattice positions and drops a
	// fraction of lattice edges (connectivity is always preserved).
	Irregularity float64

	// ShortcutFrac adds this fraction of |V| long-range arterial edges.
	ShortcutFrac float64

	// HighwayTiers, for GridModel, assigns road-class weight multipliers:
	// every eighth lattice row/column becomes a secondary arterial (weight
	// ×0.7) and the ShortcutFrac long-range edges become highways (weight
	// ×0.4). The resulting weight hierarchy mimics OSM road classes and is
	// what makes contraction hierarchies effective at scale; presets
	// without the flag are bit-identical to their pre-tier output.
	HighwayTiers bool

	// PoIs is the number of PoIs to embed.
	PoIs int

	// Forest supplies the category hierarchy; PoI categories are drawn
	// from its leaves.
	Forest *taxonomy.Forest

	// CategorySkew ≥ 0 is the Zipf-like exponent of category popularity;
	// zero means uniform. The paper notes PoI-per-category counts are
	// "significantly biased" (§7.1).
	CategorySkew float64

	// Clustering in [0, 1] mixes uniform PoI placement (0) with placement
	// around Hotspots (1). High clustering reproduces the NYC/Cal "PoIs
	// concentrated in a small area" effect (§7.3, Figure 4).
	Clustering float64

	// Hotspots is the number of PoI cluster centers (≥ 1 when
	// Clustering > 0).
	Hotspots int

	// Metric computes edge weights from endpoint coordinates. Defaults to
	// geo.Euclidean over lon/lat degrees, matching the paper's "distances
	// based on longitude and latitude" (§7.1).
	Metric geo.DistanceFunc

	// Ratings attaches synthetic PoI ratings (triangular-ish distribution
	// centered near 3.5 on the Foursquare-style 0–5 scale) for the §9
	// multi-attribute extension.
	Ratings bool
}

func (c *Config) validate() error {
	if c.Vertices < 4 {
		return fmt.Errorf("gen: need at least 4 vertices, got %d", c.Vertices)
	}
	if c.Forest == nil {
		return fmt.Errorf("gen: Config.Forest is required")
	}
	if c.PoIs < 0 {
		return fmt.Errorf("gen: negative PoI count")
	}
	if c.Bounds.Empty() {
		return fmt.Errorf("gen: Config.Bounds is required")
	}
	if c.Clustering < 0 || c.Clustering > 1 {
		return fmt.Errorf("gen: Clustering must be in [0,1], got %v", c.Clustering)
	}
	if c.Irregularity < 0 || c.Irregularity > 1 {
		return fmt.Errorf("gen: Irregularity must be in [0,1], got %v", c.Irregularity)
	}
	if c.Clustering > 0 && c.Hotspots < 1 {
		return fmt.Errorf("gen: Clustering > 0 requires Hotspots ≥ 1")
	}
	return nil
}

// Build generates the dataset described by cfg. Generation is
// deterministic in cfg.Seed.
func Build(cfg Config) (*dataset.Dataset, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	metric := cfg.Metric
	if metric == nil {
		metric = geo.Euclidean
	}
	rng := rand.New(rand.NewSource(cfg.Seed))

	var b *graph.Builder
	switch cfg.Model {
	case GridModel:
		b = buildGrid(rng, cfg, metric)
	case GeometricModel:
		b = buildGeometric(rng, cfg, metric)
	default:
		return nil, fmt.Errorf("gen: unknown model %d", cfg.Model)
	}

	if cfg.PoIs > 0 {
		if err := placePoIs(rng, b, cfg); err != nil {
			return nil, err
		}
	}
	g := b.Build()
	if !g.IsConnected() {
		// The constructions below always thread a spanning structure, so
		// this is a generator bug, not an input error.
		return nil, fmt.Errorf("gen: generated graph is not connected")
	}
	d, err := dataset.New(cfg.Name, g, cfg.Forest)
	if err != nil {
		return nil, err
	}
	if cfg.Ratings {
		ratings := make([]float64, g.NumVertices())
		for i := range ratings {
			ratings[i] = dataset.MaxRating
		}
		for _, p := range g.PoIVertices() {
			// Sum of two uniforms gives the triangular shape of review
			// averages; clamp into the scale.
			r := 1.0 + (rng.Float64()+rng.Float64())*2.25
			if r > dataset.MaxRating {
				r = dataset.MaxRating
			}
			ratings[p] = math.Round(r*2) / 2 // half-star granularity
		}
		if err := d.SetRatings(ratings); err != nil {
			return nil, err
		}
	}
	return d, nil
}

// buildGrid lays out ~cfg.Vertices on a jittered lattice with lattice
// edges, randomly dropped (except a guaranteed spanning path) and
// supplemented with arterial shortcuts.
func buildGrid(rng *rand.Rand, cfg Config, metric geo.DistanceFunc) *graph.Builder {
	cols := int(math.Round(math.Sqrt(float64(cfg.Vertices) * cfg.Bounds.Width() / math.Max(cfg.Bounds.Height(), 1e-12))))
	if cols < 2 {
		cols = 2
	}
	rows := (cfg.Vertices + cols - 1) / cols
	if rows < 2 {
		rows = 2
	}
	b := graph.NewBuilder(cfg.Directed)

	cellW := cfg.Bounds.Width() / float64(cols)
	cellH := cfg.Bounds.Height() / float64(rows)
	jitter := cfg.Irregularity * 0.4

	idx := func(r, c int) graph.VertexID { return graph.VertexID(r*cols + c) }
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			p := geo.Point{
				Lon: cfg.Bounds.MinLon + (float64(c)+0.5+(rng.Float64()*2-1)*jitter)*cellW,
				Lat: cfg.Bounds.MinLat + (float64(r)+0.5+(rng.Float64()*2-1)*jitter)*cellH,
			}
			b.AddVertex(p)
		}
	}
	uf := newUnionFind(rows * cols)
	addTiered := func(u, v graph.VertexID, mult float64) {
		w := metric(b.Point(u), b.Point(v)) * mult
		b.AddEdge(u, v, w)
		if cfg.Directed {
			b.AddEdge(v, u, w) // directed road networks still carry both carriageways
		}
		uf.union(int(u), int(v))
	}
	addEdge := func(u, v graph.VertexID) { addTiered(u, v, 1) }
	// Road-class multipliers under HighwayTiers: every eighth lattice line
	// is a faster secondary arterial, long-range shortcuts are highways.
	const (
		arterialStride = 8
		arterialMult   = 0.7
		highwayMult    = 0.4
	)
	lattice := func(u, v graph.VertexID, line int) {
		if cfg.HighwayTiers && line%arterialStride == 0 {
			addTiered(u, v, arterialMult)
		} else {
			addEdge(u, v)
		}
	}
	dropProb := cfg.Irregularity * 0.25
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			// Horizontal neighbour: row 0 is a guaranteed spine.
			if c+1 < cols {
				if r == 0 || rng.Float64() >= dropProb {
					lattice(idx(r, c), idx(r, c+1), r)
				}
			}
			// Vertical neighbour: column 0 is a guaranteed spine.
			if r+1 < rows {
				if c == 0 || rng.Float64() >= dropProb {
					lattice(idx(r, c), idx(r+1, c), c)
				}
			}
		}
	}
	// Edge dropping can strand pockets; a row-major sweep reconnects each
	// vertex to an already-processed lattice neighbour, which guarantees
	// global connectivity by induction.
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			if r == 0 && c == 0 {
				continue
			}
			if uf.find(int(idx(r, c))) != uf.find(0) {
				if c > 0 {
					addEdge(idx(r, c-1), idx(r, c))
				} else {
					addEdge(idx(r-1, c), idx(r, c))
				}
			}
		}
	}
	// Arterial shortcuts between random vertices, weight = direct metric
	// distance (expressways) — under HighwayTiers, discounted highways.
	n := rows * cols
	for s := 0; s < int(cfg.ShortcutFrac*float64(n)); s++ {
		u := graph.VertexID(rng.Intn(n))
		v := graph.VertexID(rng.Intn(n))
		if u != v {
			if cfg.HighwayTiers {
				addTiered(u, v, highwayMult)
			} else {
				addEdge(u, v)
			}
		}
	}
	return b
}

// buildGeometric throws cfg.Vertices points uniformly and connects each to
// its 3 nearest neighbours, threading a random spanning tree to guarantee
// connectivity.
func buildGeometric(rng *rand.Rand, cfg Config, metric geo.DistanceFunc) *graph.Builder {
	b := graph.NewBuilder(cfg.Directed)
	n := cfg.Vertices
	pts := make([]geo.Point, n)
	for i := range pts {
		pts[i] = geo.Point{
			Lon: cfg.Bounds.MinLon + rng.Float64()*cfg.Bounds.Width(),
			Lat: cfg.Bounds.MinLat + rng.Float64()*cfg.Bounds.Height(),
		}
		b.AddVertex(pts[i])
	}
	addEdge := func(u, v graph.VertexID) {
		w := metric(b.Point(u), b.Point(v))
		b.AddEdge(u, v, w)
		if cfg.Directed {
			b.AddEdge(v, u, w)
		}
	}
	// k-nearest-neighbour edges via a coarse grid to stay O(n·k).
	grid := newPointGrid(pts, cfg.Bounds, int(math.Sqrt(float64(n)))+1)
	const k = 3
	seen := make(map[[2]graph.VertexID]bool)
	for i := 0; i < n; i++ {
		for _, j := range grid.kNearest(pts, i, k) {
			u, v := graph.VertexID(i), graph.VertexID(j)
			if u > v {
				u, v = v, u
			}
			key := [2]graph.VertexID{u, v}
			if !seen[key] {
				seen[key] = true
				addEdge(u, v)
			}
		}
	}
	// Spanning chain through a random permutation connects any leftover
	// islands; duplicate edges with existing kNN links are skipped.
	perm := rng.Perm(n)
	for i := 1; i < n; i++ {
		u, v := graph.VertexID(perm[i-1]), graph.VertexID(perm[i])
		if u > v {
			u, v = v, u
		}
		key := [2]graph.VertexID{u, v}
		if !seen[key] {
			seen[key] = true
			addEdge(u, v)
		}
	}
	return b
}

// placePoIs embeds cfg.PoIs PoIs into the network built so far.
func placePoIs(rng *rand.Rand, b *graph.Builder, cfg Config) error {
	leaves := cfg.Forest.Leaves()
	if len(leaves) == 0 {
		return fmt.Errorf("gen: forest has no leaf categories")
	}
	weights := categoryWeights(rng, len(leaves), cfg.CategorySkew)

	var hotspots []geo.Point
	for h := 0; h < cfg.Hotspots; h++ {
		hotspots = append(hotspots, geo.Point{
			Lon: cfg.Bounds.MinLon + rng.Float64()*cfg.Bounds.Width(),
			Lat: cfg.Bounds.MinLat + rng.Float64()*cfg.Bounds.Height(),
		})
	}
	hotspotStd := 0.05 * math.Max(cfg.Bounds.Width(), cfg.Bounds.Height())

	em, err := graph.NewEmbedder(b, gridCellsFor(b.NumVertices()))
	if err != nil {
		return err
	}
	for i := 0; i < cfg.PoIs; i++ {
		var p geo.Point
		if cfg.Clustering > 0 && rng.Float64() < cfg.Clustering {
			h := hotspots[rng.Intn(len(hotspots))]
			p = geo.Point{
				Lon: h.Lon + rng.NormFloat64()*hotspotStd,
				Lat: h.Lat + rng.NormFloat64()*hotspotStd,
			}
		} else {
			p = geo.Point{
				Lon: cfg.Bounds.MinLon + rng.Float64()*cfg.Bounds.Width(),
				Lat: cfg.Bounds.MinLat + rng.Float64()*cfg.Bounds.Height(),
			}
		}
		cat := leaves[sampleIndex(rng, weights)]
		if _, err := em.Embed(p, cat); err != nil {
			return err
		}
	}
	return nil
}

// categoryWeights returns sampling weights for leaf categories: a Zipf-like
// distribution with the given exponent over a randomly permuted rank order.
func categoryWeights(rng *rand.Rand, n int, skew float64) []float64 {
	weights := make([]float64, n)
	perm := rng.Perm(n)
	for i := 0; i < n; i++ {
		rank := float64(perm[i] + 1)
		weights[i] = 1 / math.Pow(rank, skew)
	}
	return weights
}

func sampleIndex(rng *rand.Rand, weights []float64) int {
	total := 0.0
	for _, w := range weights {
		total += w
	}
	x := rng.Float64() * total
	for i, w := range weights {
		x -= w
		if x <= 0 {
			return i
		}
	}
	return len(weights) - 1
}

func gridCellsFor(vertices int) int {
	c := int(math.Sqrt(float64(vertices)))
	if c < 8 {
		c = 8
	}
	if c > 512 {
		c = 512
	}
	return c
}

// unionFind is a minimal disjoint-set structure for connectivity repair.
type unionFind struct {
	parent []int
}

func newUnionFind(n int) *unionFind {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	return &unionFind{parent: p}
}

func (u *unionFind) find(x int) int {
	for u.parent[x] != x {
		u.parent[x] = u.parent[u.parent[x]]
		x = u.parent[x]
	}
	return x
}

func (u *unionFind) union(a, b int) {
	ra, rb := u.find(a), u.find(b)
	if ra != rb {
		u.parent[ra] = rb
	}
}

// pointGrid is a minimal bucket grid for kNN during geometric generation.
type pointGrid struct {
	cells  map[int][]int
	bounds geo.Rect
	cols   int
	rows   int
	cw, ch float64
}

func newPointGrid(pts []geo.Point, bounds geo.Rect, cells int) *pointGrid {
	g := &pointGrid{
		cells:  make(map[int][]int),
		bounds: bounds,
		cols:   cells,
		rows:   cells,
		cw:     bounds.Width() / float64(cells),
		ch:     bounds.Height() / float64(cells),
	}
	for i, p := range pts {
		g.cells[g.cellOf(p)] = append(g.cells[g.cellOf(p)], i)
	}
	return g
}

func (g *pointGrid) cellOf(p geo.Point) int {
	c := int((p.Lon - g.bounds.MinLon) / g.cw)
	r := int((p.Lat - g.bounds.MinLat) / g.ch)
	if c < 0 {
		c = 0
	}
	if c >= g.cols {
		c = g.cols - 1
	}
	if r < 0 {
		r = 0
	}
	if r >= g.rows {
		r = g.rows - 1
	}
	return r*g.cols + c
}

// kNearest returns up to k nearest distinct points to pts[i], searching an
// expanding neighbourhood of grid cells.
func (g *pointGrid) kNearest(pts []geo.Point, i, k int) []int {
	p := pts[i]
	c0 := int((p.Lon - g.bounds.MinLon) / g.cw)
	r0 := int((p.Lat - g.bounds.MinLat) / g.ch)
	type cand struct {
		j int
		d float64
	}
	var cands []cand
	for radius := 1; radius <= g.cols || radius <= g.rows; radius++ {
		cands = cands[:0]
		for r := r0 - radius; r <= r0+radius; r++ {
			for c := c0 - radius; c <= c0+radius; c++ {
				if r < 0 || r >= g.rows || c < 0 || c >= g.cols {
					continue
				}
				for _, j := range g.cells[r*g.cols+c] {
					if j != i {
						cands = append(cands, cand{j: j, d: geo.Euclidean(p, pts[j])})
					}
				}
			}
		}
		if len(cands) >= k || radius > g.cols && radius > g.rows {
			break
		}
	}
	// Partial selection sort for the k smallest.
	if k > len(cands) {
		k = len(cands)
	}
	for a := 0; a < k; a++ {
		min := a
		for bIdx := a + 1; bIdx < len(cands); bIdx++ {
			if cands[bIdx].d < cands[min].d {
				min = bIdx
			}
		}
		cands[a], cands[min] = cands[min], cands[a]
	}
	out := make([]int, 0, k)
	for a := 0; a < k; a++ {
		out = append(out, cands[a].j)
	}
	return out
}
