package graph

import (
	"math"
	"testing"

	"skysr/internal/geo"
)

// line builds a path graph 0-1-2-...-(n-1) with unit weights.
func line(t *testing.T, n int, directed bool) *Graph {
	t.Helper()
	b := NewBuilder(directed)
	for i := 0; i < n; i++ {
		b.AddVertex(geo.Point{Lon: float64(i), Lat: 0})
	}
	for i := 0; i < n-1; i++ {
		b.AddEdge(VertexID(i), VertexID(i+1), 1)
	}
	return b.Build()
}

func TestBuildUndirected(t *testing.T) {
	g := line(t, 4, false)
	if g.Directed() {
		t.Error("expected undirected")
	}
	if g.NumVertices() != 4 || g.NumEdges() != 3 {
		t.Fatalf("|V|=%d |E|=%d, want 4, 3", g.NumVertices(), g.NumEdges())
	}
	// Middle vertices see both neighbors.
	ts, ws := g.Neighbors(1)
	if len(ts) != 2 {
		t.Fatalf("degree(1) = %d, want 2", len(ts))
	}
	seen := map[VertexID]float64{}
	for i, v := range ts {
		seen[v] = ws[i]
	}
	if seen[0] != 1 || seen[2] != 1 {
		t.Errorf("neighbors of 1 = %v", seen)
	}
	if g.Degree(0) != 1 || g.Degree(3) != 1 {
		t.Error("endpoint degrees wrong")
	}
}

func TestBuildDirected(t *testing.T) {
	b := NewBuilder(true)
	for i := 0; i < 3; i++ {
		b.AddVertex(geo.Point{Lon: float64(i)})
	}
	b.AddEdge(0, 1, 2.5)
	b.AddEdge(1, 2, 1.5)
	g := b.Build()
	if !g.Directed() {
		t.Error("expected directed")
	}
	ts, _ := g.Neighbors(1)
	if len(ts) != 1 || ts[0] != 2 {
		t.Errorf("directed neighbors of 1 = %v, want [2]", ts)
	}
	ts, _ = g.Neighbors(2)
	if len(ts) != 0 {
		t.Errorf("directed neighbors of 2 = %v, want []", ts)
	}
	if w, ok := g.EdgeWeight(0, 1); !ok || w != 2.5 {
		t.Errorf("EdgeWeight(0,1) = %v,%v", w, ok)
	}
	if _, ok := g.EdgeWeight(1, 0); ok {
		t.Error("reverse arc should not exist in a directed graph")
	}
	for _, u := range []VertexID{-1, VertexID(g.NumVertices())} {
		if _, ok := g.EdgeWeight(u, 0); ok {
			t.Errorf("EdgeWeight(%d,0) found an arc from outside the graph", u)
		}
	}
}

func TestPoIBookkeeping(t *testing.T) {
	b := NewBuilder(false)
	v0 := b.AddVertex(geo.Point{})
	p1 := b.AddPoI(geo.Point{Lon: 1}, 7)
	v2 := b.AddVertex(geo.Point{Lon: 2})
	p3 := b.AddPoI(geo.Point{Lon: 3}, 9)
	b.AddEdge(v0, p1, 1)
	b.AddEdge(p1, v2, 1)
	b.AddEdge(v2, p3, 1)
	g := b.Build()

	if g.NumPoIs() != 2 || g.NumRoadVertices() != 2 {
		t.Fatalf("pois=%d roads=%d, want 2, 2", g.NumPoIs(), g.NumRoadVertices())
	}
	if !g.IsPoI(p1) || g.IsPoI(v0) {
		t.Error("IsPoI wrong")
	}
	if g.PrimaryCategory(p1) != 7 || g.PrimaryCategory(v2) != NoCategory {
		t.Error("PrimaryCategory wrong")
	}
	want := []VertexID{p1, p3}
	got := g.PoIVertices()
	if len(got) != len(want) || got[0] != want[0] || got[1] != want[1] {
		t.Errorf("PoIVertices = %v, want %v", got, want)
	}
	if cats := g.Categories(p1); len(cats) != 1 || cats[0] != 7 {
		t.Errorf("Categories(p1) = %v, want [7]", cats)
	}
	if cats := g.Categories(v0); cats != nil {
		t.Errorf("Categories(road) = %v, want nil", cats)
	}
}

func TestMultiCategoryPoI(t *testing.T) {
	b := NewBuilder(false)
	p := b.AddPoI(geo.Point{}, 3)
	v := b.AddVertex(geo.Point{Lon: 1})
	b.AddEdge(p, v, 1)
	b.AddCategory(p, 5)
	b.AddCategory(p, 5) // duplicate ignored
	b.AddCategory(p, 3) // primary duplicate ignored
	g := b.Build()
	cats := g.Categories(p)
	if len(cats) != 2 || cats[0] != 3 || cats[1] != 5 {
		t.Errorf("Categories = %v, want [3 5]", cats)
	}
	if g.PrimaryCategory(p) != 3 {
		t.Errorf("PrimaryCategory = %d, want 3", g.PrimaryCategory(p))
	}
}

func TestAddCategoryOnRoadVertexPanics(t *testing.T) {
	b := NewBuilder(false)
	v := b.AddVertex(geo.Point{})
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	b.AddCategory(v, 1)
}

func TestInvalidEdgePanics(t *testing.T) {
	cases := map[string]func(b *Builder, u, v VertexID){
		"negative weight": func(b *Builder, u, v VertexID) { b.AddEdge(u, v, -1) },
		"nan weight":      func(b *Builder, u, v VertexID) { b.AddEdge(u, v, math.NaN()) },
		"self loop":       func(b *Builder, u, v VertexID) { b.AddEdge(u, u, 1) },
	}
	for name, fn := range cases {
		t.Run(name, func(t *testing.T) {
			b := NewBuilder(false)
			u := b.AddVertex(geo.Point{})
			v := b.AddVertex(geo.Point{Lon: 1})
			defer func() {
				if recover() == nil {
					t.Errorf("%s should panic", name)
				}
			}()
			fn(b, u, v)
		})
	}
}

func TestRemoveEdge(t *testing.T) {
	b := NewBuilder(false)
	u := b.AddVertex(geo.Point{})
	v := b.AddVertex(geo.Point{Lon: 1})
	w := b.AddVertex(geo.Point{Lon: 2})
	e0 := b.AddEdge(u, v, 1)
	b.AddEdge(v, w, 1)
	b.RemoveEdge(e0)
	b.RemoveEdge(e0) // idempotent
	if b.NumEdges() != 1 {
		t.Fatalf("NumEdges = %d, want 1", b.NumEdges())
	}
	g := b.Build()
	if g.NumEdges() != 1 {
		t.Fatalf("built NumEdges = %d, want 1", g.NumEdges())
	}
	if _, ok := g.EdgeWeight(u, v); ok {
		t.Error("removed edge still present")
	}
	if _, ok := g.EdgeWeight(v, w); !ok {
		t.Error("surviving edge missing")
	}
}

func TestConnectivity(t *testing.T) {
	g := line(t, 5, false)
	if !g.IsConnected() {
		t.Error("line should be connected")
	}
	// Two components: a triangle and an edge.
	b := NewBuilder(false)
	for i := 0; i < 5; i++ {
		b.AddVertex(geo.Point{Lon: float64(i)})
	}
	b.AddEdge(0, 1, 1)
	b.AddEdge(1, 2, 1)
	b.AddEdge(2, 0, 1)
	b.AddEdge(3, 4, 1)
	g = b.Build()
	if g.IsConnected() {
		t.Error("two components should not be connected")
	}
	comp := g.LargestComponent()
	if len(comp) != 3 {
		t.Fatalf("largest component size = %d, want 3", len(comp))
	}
	for i, want := range []VertexID{0, 1, 2} {
		if comp[i] != want {
			t.Errorf("component[%d] = %d, want %d", i, comp[i], want)
		}
	}
}

func TestComponentOfDirectedIsWeak(t *testing.T) {
	b := NewBuilder(true)
	for i := 0; i < 3; i++ {
		b.AddVertex(geo.Point{Lon: float64(i)})
	}
	b.AddEdge(0, 1, 1)
	b.AddEdge(2, 1, 1) // only reachable from 1 by reverse arc
	g := b.Build()
	comp := g.ComponentOf(0)
	for v := VertexID(0); v < 3; v++ {
		if !comp[v] {
			t.Errorf("vertex %d should be in the weak component of 0", v)
		}
	}
}

func TestBounds(t *testing.T) {
	g := line(t, 3, false)
	r := g.Bounds()
	if r.MinLon != 0 || r.MaxLon != 2 || r.MinLat != 0 || r.MaxLat != 0 {
		t.Errorf("bounds = %+v", r)
	}
}

func TestMemoryFootprintPositive(t *testing.T) {
	g := line(t, 10, false)
	if g.MemoryFootprintBytes() <= 0 {
		t.Error("footprint should be positive")
	}
}

func TestEmbedPoISplitsEdge(t *testing.T) {
	b := NewBuilder(false)
	u := b.AddVertex(geo.Point{Lon: 0, Lat: 0})
	v := b.AddVertex(geo.Point{Lon: 10, Lat: 0})
	b.AddEdge(u, v, 10)
	em, err := NewEmbedder(b, 16)
	if err != nil {
		t.Fatal(err)
	}
	poi, err := em.Embed(geo.Point{Lon: 3, Lat: 2}, 1)
	if err != nil {
		t.Fatal(err)
	}
	g := b.Build()
	if !g.IsPoI(poi) || g.PrimaryCategory(poi) != 1 {
		t.Fatal("embedded vertex is not the expected PoI")
	}
	pt := g.Point(poi)
	if math.Abs(pt.Lon-3) > 1e-9 || math.Abs(pt.Lat) > 1e-9 {
		t.Errorf("PoI embedded at %v, want {3 0}", pt)
	}
	if w, ok := g.EdgeWeight(u, poi); !ok || math.Abs(w-3) > 1e-9 {
		t.Errorf("left split weight = %v, %v", w, ok)
	}
	if w, ok := g.EdgeWeight(poi, v); !ok || math.Abs(w-7) > 1e-9 {
		t.Errorf("right split weight = %v, %v", w, ok)
	}
	if _, ok := g.EdgeWeight(u, v); ok {
		t.Error("original edge should have been split away")
	}
	if !g.IsConnected() {
		t.Error("embedding must preserve connectivity")
	}
}

func TestEmbedMultiplePoIsOnSameEdge(t *testing.T) {
	b := NewBuilder(false)
	u := b.AddVertex(geo.Point{Lon: 0, Lat: 0})
	v := b.AddVertex(geo.Point{Lon: 10, Lat: 0})
	b.AddEdge(u, v, 10)
	em, err := NewEmbedder(b, 16)
	if err != nil {
		t.Fatal(err)
	}
	p1, err := em.Embed(geo.Point{Lon: 2, Lat: 1}, 1)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := em.Embed(geo.Point{Lon: 7, Lat: -1}, 2)
	if err != nil {
		t.Fatal(err)
	}
	g := b.Build()
	if !g.IsConnected() {
		t.Fatal("graph must stay connected after repeated embedding")
	}
	// Total network length along the original edge must be preserved.
	total := 0.0
	for _, pair := range [][2]VertexID{{u, p1}, {p1, p2}, {p2, v}} {
		w, ok := g.EdgeWeight(pair[0], pair[1])
		if !ok {
			t.Fatalf("missing edge %v", pair)
		}
		total += w
	}
	if math.Abs(total-10) > 1e-9 {
		t.Errorf("total split length = %v, want 10", total)
	}
}

func TestEmbedIntoEmptyBuilder(t *testing.T) {
	b := NewBuilder(false)
	b.AddVertex(geo.Point{})
	if _, err := NewEmbedder(b, 4); err == nil {
		t.Error("NewEmbedder on edge-less builder should fail")
	}
}

func TestBuilderReusableAfterBuild(t *testing.T) {
	b := NewBuilder(false)
	u := b.AddVertex(geo.Point{})
	v := b.AddVertex(geo.Point{Lon: 1})
	b.AddEdge(u, v, 1)
	g1 := b.Build()
	w := b.AddVertex(geo.Point{Lon: 2})
	b.AddEdge(v, w, 1)
	g2 := b.Build()
	if g1.NumVertices() != 2 || g1.NumEdges() != 1 {
		t.Error("first build mutated by later builder use")
	}
	if g2.NumVertices() != 3 || g2.NumEdges() != 2 {
		t.Error("second build missing additions")
	}
}
