package osr

import (
	"errors"
	"math/rand"
	"testing"

	"skysr/internal/dataset"
	"skysr/internal/geo"
	"skysr/internal/graph"
	"skysr/internal/route"
	"skysr/internal/taxonomy"
)

// TestPNESkipsUsedPoIs builds the degenerate case where the nearest
// next-category PoI is already on the route: PNE's rank-skipping must move
// past it instead of reusing it (Definition 3.4(iii)).
func TestPNESkipsUsedPoIs(t *testing.T) {
	fb := taxonomy.NewForestBuilder()
	a := fb.MustAddRoot("A")
	f := fb.Build()
	gb := graph.NewBuilder(false)
	v0 := gb.AddVertex(geo.Point{})
	p1 := gb.AddPoI(geo.Point{Lon: 1}, a)
	p2 := gb.AddPoI(geo.Point{Lon: 2}, a)
	gb.AddEdge(v0, p1, 1)
	gb.AddEdge(p1, p2, 5)
	d := dataset.MustNew("pne-skip", gb.Build(), f)
	// Both positions ask for A; the nearest A from p1 is p1 itself
	// (distance 0) which is used, so rank skipping must pick p2.
	seq := route.NewCategorySequence(f, f.WuPalmer, a, a)
	s := NewSolver(d, EnginePNE, f.WuPalmer, route.AggProduct)
	got, err := s.OSR(v0, []taxonomy.CategoryID{a, a}, seq)
	if err != nil {
		t.Fatal(err)
	}
	if got == nil {
		t.Fatal("expected a route")
	}
	pois := got.PoIs()
	if pois[0] != p1 || pois[1] != p2 {
		t.Fatalf("route = %v, want [p1 p2]", pois)
	}
	if got.Length() != 6 {
		t.Errorf("length = %v, want 6", got.Length())
	}
}

// TestPNEBudget exercises the budget abort inside the NN iterator loop.
func TestPNEBudget(t *testing.T) {
	rng := rand.New(rand.NewSource(55))
	f := taxonomy.Generated(3, 2, 3)
	d := randomDataset(rng, f, 40, 30)
	s := NewSolver(d, EnginePNE, f.WuPalmer, route.AggProduct)
	s.Budget = 5
	_, err := s.SkySR(0, pickQueryCats(rng, f, 3))
	if !errors.Is(err, ErrBudgetExceeded) {
		t.Errorf("expected ErrBudgetExceeded, got %v", err)
	}
}

// TestSkySRExactWithMultiCategoryPoIs: the level enumeration must stay
// exact when PoIs carry several categories (similarity = best over the
// set).
func TestSkySRExactWithMultiCategoryPoIs(t *testing.T) {
	rng := rand.New(rand.NewSource(56))
	f := taxonomy.Generated(2, 2, 3)
	leaves := f.Leaves()
	for trial := 0; trial < 8; trial++ {
		// Random dataset, then sprinkle extra categories on some PoIs.
		d0 := randomDataset(rng, f, 16, 12)
		gb := graph.NewBuilder(false)
		for v := graph.VertexID(0); int(v) < d0.Graph.NumVertices(); v++ {
			pt := d0.Graph.Point(v)
			if d0.Graph.IsPoI(v) {
				p := gb.AddPoI(pt, d0.Graph.PrimaryCategory(v))
				if rng.Intn(2) == 0 {
					gb.AddCategory(p, leaves[rng.Intn(len(leaves))])
				}
			} else {
				gb.AddVertex(pt)
			}
		}
		for u := graph.VertexID(0); int(u) < d0.Graph.NumVertices(); u++ {
			ts, ws := d0.Graph.Neighbors(u)
			for i, v := range ts {
				if u < v {
					gb.AddEdge(u, v, ws[i])
				}
			}
		}
		d := dataset.MustNew("multi", gb.Build(), f)
		cats := pickQueryCats(rng, f, 2)
		seq := route.NewCategorySequence(f, f.WuPalmer, cats...)
		want := BruteForce(d, Query{Start: 0, Seq: seq, Dest: graph.NoVertex}, 1)
		s := NewSolver(d, EnginePNE, f.WuPalmer, route.AggProduct)
		got, err := s.SkySRExact(0, cats)
		if err != nil {
			t.Fatal(err)
		}
		assertSameSkyline(t, "multi-cat-exact", got, want)
	}
}

// TestSolverReuseAcrossQueries: one solver answering several queries must
// give the same results as fresh solvers (the NN cache and stats must not
// leak state between SkySR evaluations in a correctness-relevant way).
func TestSolverReuseAcrossQueries(t *testing.T) {
	rng := rand.New(rand.NewSource(57))
	f := taxonomy.Generated(3, 2, 2)
	d := randomDataset(rng, f, 20, 15)
	shared := NewSolver(d, EnginePNE, f.WuPalmer, route.AggProduct)
	for trial := 0; trial < 5; trial++ {
		cats := pickQueryCats(rng, f, 2)
		start := graph.VertexID(rng.Intn(20))
		fresh := NewSolver(d, EnginePNE, f.WuPalmer, route.AggProduct)
		a, err := shared.SkySR(start, cats)
		if err != nil {
			t.Fatal(err)
		}
		b, err := fresh.SkySR(start, cats)
		if err != nil {
			t.Fatal(err)
		}
		assertSameSkyline(t, "reuse", a, points(b))
	}
}
