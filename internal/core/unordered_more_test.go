package core

import (
	"math/rand"
	"testing"

	"skysr/internal/dataset"
	"skysr/internal/geo"
	"skysr/internal/graph"
	"skysr/internal/osr"
	"skysr/internal/route"
	"skysr/internal/taxonomy"
)

// TestUnorderedWithMultiCategoryPoI: a dual-category PoI can serve either
// position of an unordered query but never both.
func TestUnorderedWithMultiCategoryPoI(t *testing.T) {
	fb := taxonomy.NewForestBuilder()
	a := fb.MustAddRoot("A")
	bCat := fb.MustAddRoot("B")
	f := fb.Build()
	gb := graph.NewBuilder(false)
	v0 := gb.AddVertex(geo.Point{})
	dual := gb.AddPoI(geo.Point{Lon: 1}, a)
	gb.AddCategory(dual, bCat)
	pa := gb.AddPoI(geo.Point{Lon: 2}, a)
	gb.AddEdge(v0, dual, 1)
	gb.AddEdge(dual, pa, 1)
	d := dataset.MustNew("dual-un", gb.Build(), f)
	seq := route.NewCategorySequence(f, f.WuPalmer, a, bCat)
	want := osr.BruteForce(d, osr.Query{Start: v0, Seq: seq, Dest: graph.NoVertex, Unordered: true}, 1)
	s := NewSearcher(d, f.WuPalmer, DefaultOptions())
	res, err := s.QueryUnordered(v0, seq)
	if err != nil {
		t.Fatal(err)
	}
	if !sameSkyline(res.Routes, want) {
		t.Fatalf("mismatch\ngot:  %v\nwant: %v", res.Routes, want)
	}
	// The only valid assignment: dual serves B (or A) and pa serves A —
	// either way both PoIs are visited, total length 2.
	if len(res.Routes) != 1 || res.Routes[0].Length() != 2 {
		t.Fatalf("routes = %v", res.Routes)
	}
}

// TestUnorderedDeterminism: repeated unordered queries return identical
// skylines.
func TestUnorderedDeterminism(t *testing.T) {
	rng := rand.New(rand.NewSource(93))
	f := taxonomy.Generated(3, 2, 2)
	d := randomDataset(rng, f, 25, 18)
	seq := route.NewCategorySequence(f, f.WuPalmer, pickCats(rng, f, 3)...)
	s := NewSearcher(d, f.WuPalmer, DefaultOptions())
	first, err := s.QueryUnordered(0, seq)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		again, err := s.QueryUnordered(0, seq)
		if err != nil {
			t.Fatal(err)
		}
		if len(again.Routes) != len(first.Routes) {
			t.Fatal("unordered results changed between runs")
		}
		for j := range again.Routes {
			if again.Routes[j].Length() != first.Routes[j].Length() {
				t.Fatal("unordered route lengths changed between runs")
			}
		}
	}
}

// TestUnorderedRepeatedCategory: the same category at two positions means
// "visit two distinct PoIs of it" — cross-checked with the oracle.
func TestUnorderedRepeatedCategory(t *testing.T) {
	rng := rand.New(rand.NewSource(94))
	f := taxonomy.Generated(2, 2, 2)
	for trial := 0; trial < 6; trial++ {
		d := randomDataset(rng, f, 14, 10)
		leaf := f.Leaves()[rng.Intn(len(f.Leaves()))]
		seq := route.NewCategorySequence(f, f.WuPalmer, leaf, leaf)
		want := osr.BruteForce(d, osr.Query{Start: 0, Seq: seq, Dest: graph.NoVertex, Unordered: true}, 1)
		s := NewSearcher(d, f.WuPalmer, DefaultOptions())
		res, err := s.QueryUnordered(0, seq)
		if err != nil {
			t.Fatal(err)
		}
		if !sameSkyline(res.Routes, want) {
			t.Fatalf("trial %d: mismatch\ngot:  %v\nwant: %v", trial, res.Routes, want)
		}
	}
}

// TestOrderedRepeatedCategory does the same for the ordered query, where
// Definition 3.4(iii) forbids reusing the PoI at both positions.
func TestOrderedRepeatedCategory(t *testing.T) {
	rng := rand.New(rand.NewSource(95))
	f := taxonomy.Generated(2, 2, 2)
	for trial := 0; trial < 6; trial++ {
		d := randomDataset(rng, f, 14, 10)
		leaf := f.Leaves()[rng.Intn(len(f.Leaves()))]
		seq := route.NewCategorySequence(f, f.WuPalmer, leaf, leaf)
		want := osr.BruteForce(d, osr.Query{Start: 0, Seq: seq, Dest: graph.NoVertex}, 1)
		for name, opts := range optionVariants() {
			s := NewSearcher(d, f.WuPalmer, opts)
			res, err := s.Query(0, seq)
			if err != nil {
				t.Fatal(err)
			}
			if !sameSkyline(res.Routes, want) {
				t.Fatalf("trial %d %s: mismatch\ngot:  %v\nwant: %v", trial, name, res.Routes, want)
			}
		}
	}
}

// TestDestinationOnIsland: when the destination is unreachable every route
// dies on the final leg and the skyline is empty.
func TestDestinationOnIsland(t *testing.T) {
	fb := taxonomy.NewForestBuilder()
	a := fb.MustAddRoot("A")
	f := fb.Build()
	gb := graph.NewBuilder(false)
	v0 := gb.AddVertex(geo.Point{})
	p := gb.AddPoI(geo.Point{Lon: 1}, a)
	gb.AddEdge(v0, p, 1)
	island := gb.AddVertex(geo.Point{Lon: 9})
	island2 := gb.AddVertex(geo.Point{Lon: 10})
	gb.AddEdge(island, island2, 1)
	d := dataset.MustNew("island-dest", gb.Build(), f)
	seq := route.NewCategorySequence(f, f.WuPalmer, a)
	s := NewSearcher(d, f.WuPalmer, DefaultOptions())
	res, err := s.QueryWithDestination(v0, seq, island)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Routes) != 0 {
		t.Errorf("unreachable destination must yield no routes, got %v", res.Routes)
	}
}

// TestDestinationEqualsStart: a round trip back to the start is the §7.5
// use-case shape; cross-check with the oracle.
func TestDestinationEqualsStart(t *testing.T) {
	rng := rand.New(rand.NewSource(96))
	f := taxonomy.Generated(3, 2, 2)
	for trial := 0; trial < 6; trial++ {
		d := randomDataset(rng, f, 16, 12)
		start := graph.VertexID(rng.Intn(16))
		seq := route.NewCategorySequence(f, f.WuPalmer, pickCats(rng, f, 2)...)
		want := osr.BruteForce(d, osr.Query{Start: start, Seq: seq, Dest: start}, 1)
		s := NewSearcher(d, f.WuPalmer, DefaultOptions())
		res, err := s.QueryWithDestination(start, seq, start)
		if err != nil {
			t.Fatal(err)
		}
		if !sameSkyline(res.Routes, want) {
			t.Fatalf("trial %d: mismatch\ngot:  %v\nwant: %v", trial, res.Routes, want)
		}
	}
}

// TestDirectedDestination exercises the reverse-graph distance table.
func TestDirectedDestination(t *testing.T) {
	fb := taxonomy.NewForestBuilder()
	a := fb.MustAddRoot("A")
	f := fb.Build()
	gb := graph.NewBuilder(true)
	v0 := gb.AddVertex(geo.Point{})
	p := gb.AddPoI(geo.Point{Lon: 1}, a)
	dest := gb.AddVertex(geo.Point{Lon: 2})
	gb.AddEdge(v0, p, 1)
	gb.AddEdge(p, dest, 2)
	gb.AddEdge(dest, v0, 5) // the only way back
	d := dataset.MustNew("directed-dest", gb.Build(), f)
	seq := route.NewCategorySequence(f, f.WuPalmer, a)
	s := NewSearcher(d, f.WuPalmer, DefaultOptions())
	res, err := s.QueryWithDestination(v0, seq, dest)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Routes) != 1 {
		t.Fatalf("routes = %v", res.Routes)
	}
	// v0→p (1) + p→dest (2) = 3.
	if res.Routes[0].Length() != 3 {
		t.Errorf("length = %v, want 3", res.Routes[0].Length())
	}
}
