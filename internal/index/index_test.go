package index

import (
	"math"
	"math/rand"
	"testing"

	"skysr/internal/dataset"
	"skysr/internal/dijkstra"
	"skysr/internal/geo"
	"skysr/internal/graph"
	"skysr/internal/taxonomy"
)

func randomDataset(rng *rand.Rand, f *taxonomy.Forest, vertices, pois int, directed bool) *dataset.Dataset {
	b := graph.NewBuilder(directed)
	for i := 0; i < vertices; i++ {
		b.AddVertex(geo.Point{Lon: rng.Float64(), Lat: rng.Float64()})
	}
	for i := 1; i < vertices; i++ {
		j := graph.VertexID(rng.Intn(i))
		b.AddEdge(graph.VertexID(i), j, 1+rng.Float64()*9)
		if directed {
			b.AddEdge(j, graph.VertexID(i), 1+rng.Float64()*9)
		}
	}
	leaves := f.Leaves()
	for i := 0; i < pois; i++ {
		attach := graph.VertexID(rng.Intn(vertices))
		p := b.AddPoI(geo.Point{Lon: rng.Float64(), Lat: rng.Float64()}, leaves[rng.Intn(len(leaves))])
		b.AddEdge(attach, p, 0.5)
		if directed {
			b.AddEdge(p, attach, 0.5)
		}
	}
	return dataset.MustNew("idx", b.Build(), f)
}

// rootIndex returns an index over d with every tree-root row resident.
func rootIndex(d *dataset.Dataset) *CategoryDistances {
	ci := New(d, 0)
	ci.EnsureRoots()
	return ci
}

// bruteNearest computes the exact nearest-associated-PoI distance from v
// for category c with per-target Dijkstras on the forward graph.
func bruteNearest(d *dataset.Dataset, ws *dijkstra.Workspace, c taxonomy.CategoryID, v graph.VertexID) float64 {
	want := math.Inf(1)
	for _, p := range d.PoIsAssociated(c) {
		if dd := ws.Distance(v, p); dd < want {
			want = dd
		}
	}
	return want
}

// TestRowsMatchBruteForce is the satellite property test at index level:
// for random directed and undirected graphs, every row entry must equal
// the float32 round-down of the brute-force nearest-matching-PoI distance,
// for every vertex and every taxonomy node (roots, inner nodes, leaves).
func TestRowsMatchBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	f := taxonomy.Generated(3, 2, 2)
	for _, directed := range []bool{false, true} {
		d := randomDataset(rng, f, 25, 15, directed)
		ci := New(d, 0)
		ws := dijkstra.New(d.Graph)
		for c := taxonomy.CategoryID(0); int(c) < f.NumCategories(); c++ {
			row := ci.Row(c)
			if row == nil {
				t.Fatalf("row %d not built", c)
			}
			for v := graph.VertexID(0); int(v) < d.Graph.NumVertices(); v++ {
				want := bruteNearest(d, ws, c, v)
				got := row[v]
				if math.IsInf(want, 1) {
					if !math.IsInf(float64(got), 1) {
						t.Fatalf("directed=%v cat %d vertex %d: index %v, brute force +Inf", directed, c, v, got)
					}
					continue
				}
				if got != RoundDown32(want) {
					t.Fatalf("directed=%v cat %d vertex %d: index %v, want round-down(%v) = %v",
						directed, c, v, got, want, RoundDown32(want))
				}
				if float64(got) > want {
					t.Fatalf("directed=%v cat %d vertex %d: stored %v exceeds exact %v (not a lower bound)",
						directed, c, v, got, want)
				}
			}
		}
	}
}

func TestRoundDown32(t *testing.T) {
	for _, d := range []float64{0, 1, 2, 0.1, 1e-8, 123456.789, 1e30, math.Pi} {
		f := RoundDown32(d)
		if float64(f) > d {
			t.Fatalf("RoundDown32(%v) = %v exceeds input", d, f)
		}
		if up := math.Nextafter32(f, float32(math.Inf(1))); float64(up) <= d && float64(f) < d {
			// f must be the LARGEST float32 not exceeding d.
			t.Fatalf("RoundDown32(%v) = %v is not tight (next up %v still ≤)", d, f, up)
		}
	}
	if !math.IsInf(float64(RoundDown32(math.Inf(1))), 1) {
		t.Fatal("+Inf must stay +Inf")
	}
}

func TestEmptyTreeRowIsInf(t *testing.T) {
	fb := taxonomy.NewForestBuilder()
	a := fb.MustAddRoot("A")
	empty := fb.MustAddRoot("EmptyTree")
	f := fb.Build()
	b := graph.NewBuilder(false)
	v := b.AddVertex(geo.Point{})
	p := b.AddPoI(geo.Point{Lon: 1}, a)
	b.AddEdge(v, p, 2)
	d := dataset.MustNew("e", b.Build(), f)
	ci := rootIndex(d)
	if got := ci.RowIfBuilt(a); got == nil || got[v] != 2 {
		t.Errorf("tree A distance = %v, want 2", got)
	}
	if got := ci.RowIfBuilt(empty); got == nil || !math.IsInf(float64(got[v]), 1) {
		t.Errorf("empty tree distance = %v, want +Inf", got)
	}
	if ci.MemoryFootprintBytes() <= 0 {
		t.Error("footprint should be positive")
	}
}

func TestRowAtPoIIsZero(t *testing.T) {
	rng := rand.New(rand.NewSource(62))
	f := taxonomy.Generated(2, 2, 2)
	d := randomDataset(rng, f, 20, 12, false)
	ci := rootIndex(d)
	for _, p := range d.Graph.PoIVertices() {
		root := d.Forest.Root(d.Graph.PrimaryCategory(p))
		if got := ci.RowIfBuilt(root)[p]; got != 0 {
			t.Fatalf("PoI %d distance to own tree = %v, want 0", p, got)
		}
	}
}

// TestBudgetDeniesBuilds: lazy building must respect the configured
// memory budget, deny rows beyond it, and report the denials.
func TestBudgetDeniesBuilds(t *testing.T) {
	rng := rand.New(rand.NewSource(63))
	f := taxonomy.Generated(3, 2, 2)
	d := randomDataset(rng, f, 30, 12, false)
	rowCost := int64(d.Graph.NumVertices()) * 4

	ci := New(d, 2*rowCost)
	if ci.Row(f.Roots()[0]) == nil || ci.Row(f.Roots()[1]) == nil {
		t.Fatal("first two rows must fit the budget")
	}
	if ci.Row(f.Roots()[2]) != nil {
		t.Fatal("third row must be denied by the budget")
	}
	st := ci.Stats()
	if st.RowsBuilt != 2 || st.Bytes != 2*rowCost || st.SkippedBuilds != 1 {
		t.Fatalf("stats = %+v, want 2 rows, %d bytes, 1 skip", st, 2*rowCost)
	}
	if ci.MemoryFootprintBytes() > ci.MaxBytes() {
		t.Fatalf("footprint %d exceeds budget %d", ci.MemoryFootprintBytes(), ci.MaxBytes())
	}
	// RowIfBuilt never builds.
	if ci.RowIfBuilt(f.Roots()[2]) != nil {
		t.Fatal("RowIfBuilt must not build")
	}
	// Raising the budget admits the denied row.
	ci.SetMaxBytes(3 * rowCost)
	if ci.Row(f.Roots()[2]) == nil {
		t.Fatal("row must build after the budget was raised")
	}
}

// TestMinOverAssociated: the cached hop lower bound must equal the
// brute-force minimum over source PoIs of the destination row.
func TestMinOverAssociated(t *testing.T) {
	rng := rand.New(rand.NewSource(64))
	f := taxonomy.Generated(3, 2, 2)
	d := randomDataset(rng, f, 30, 18, true)
	ci := New(d, 0)
	for _, src := range f.Roots() {
		for c := taxonomy.CategoryID(0); int(c) < f.NumCategories(); c++ {
			row := ci.Row(c)
			want := math.Inf(1)
			for _, p := range d.PoIsAssociated(src) {
				if dd := float64(row[p]); dd < want {
					want = dd
				}
			}
			for pass := 0; pass < 2; pass++ { // second pass exercises the cache
				got, ok := ci.MinOverAssociated(src, c)
				if !ok || got != want {
					t.Fatalf("MinOverAssociated(%d, %d) pass %d = %v ok=%v, want %v", src, c, pass, got, ok, want)
				}
			}
		}
	}
	// Unavailable destination rows report ok=false.
	ci2 := New(d, 1) // budget too small for any row
	if _, ok := ci2.MinOverAssociated(f.Roots()[0], f.Roots()[1]); ok {
		t.Fatal("MinOverAssociated must report ok=false without a destination row")
	}
}
