package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"skysr/internal/gen"
	"skysr/internal/graph"
	"skysr/internal/index"
	"skysr/internal/osr"
	"skysr/internal/route"
	"skysr/internal/taxonomy"
)

// TestUnorderedMatchesBruteForce: every optimization variant returns the
// brute-force unordered skyline with and without the category index, on
// undirected and directed random networks, and its top-k bands (k = 2, 3)
// are the same with the index as without. Three-position sequences keep
// two positions open after the first visit, where the index bound's max
// over open positions and a sum of their rows differ. Every run times its
// modified-Dijkstra stage, index runs report IndexCovered, and the index
// bound must prune somewhere, or the index-on trials would check nothing.
func TestUnorderedMatchesBruteForce(t *testing.T) {
	f := taxonomy.Generated(3, 2, 3)
	var prunedByIndex int64
	for _, directed := range []bool{false, true} {
		rng := rand.New(rand.NewSource(97))
		build, trials := randomDataset, 150
		if directed {
			build, trials = randomDirectedDataset, 50
		}
		for trial := 0; trial < trials; trial++ {
			d := build(rng, f, 16, 12)
			idx := index.New(d, 0)
			cats := pickCats(rng, f, 2+rng.Intn(2))
			start := graph.VertexID(rng.Intn(16))
			seq := route.NewCategorySequence(f, f.WuPalmer, cats...)
			want := osr.BruteForce(d, osr.Query{Start: start, Seq: seq, Dest: graph.NoVertex, Unordered: true}, 1)
			run := func(opts Options, ci *index.CategoryDistances, k int) *Result {
				t.Helper()
				opts.Index, opts.TopK = ci, k
				res, err := NewSearcher(d, f.WuPalmer, opts).QueryUnordered(start, seq)
				if err != nil {
					t.Fatal(err)
				}
				st := res.Stats
				if st.MDijkstraRuns > 0 && (st.MDijkstraTime <= 0 || st.MDijkstraTime > st.QueryTime) {
					t.Fatalf("%d m-Dijkstra runs timed at %v in a %v query", st.MDijkstraRuns, st.MDijkstraTime, st.QueryTime)
				}
				if st.IndexCovered != (ci != nil) {
					t.Fatalf("IndexCovered = %v with index %v", st.IndexCovered, ci != nil)
				}
				prunedByIndex += st.PrunedByIndex
				return res
			}
			for name, opts := range optionVariants() {
				ctx := fmt.Sprintf("directed=%v trial %d %s", directed, trial, name)
				for _, ci := range []*index.CategoryDistances{nil, idx} {
					if res := run(opts, ci, 0); !sameSkyline(res.Routes, want) {
						t.Fatalf("%s index=%v: unordered mismatch\ngot:  %v\nwant: %v",
							ctx, ci != nil, res.Routes, want)
					}
				}
				for _, k := range []int{2, 3} {
					plain, indexed := run(opts, nil, k), run(opts, idx, k)
					if !routesMatch(indexed.Routes, plain.Routes) {
						t.Fatalf("%s k=%d: index changed the band\ngot:  %v\nwant: %v",
							ctx, k, indexed.Routes, plain.Routes)
					}
				}
			}
		}
	}
	if prunedByIndex == 0 {
		t.Error("the index bound pruned no route in any trial")
	}
}

func TestUnorderedBeatsOrderWhenOrderIsBad(t *testing.T) {
	// Line: A ---- start ---- B. Ordered ⟨A, B⟩ must backtrack; unordered
	// may also pick B first. The unordered optimum visits the nearer side
	// first.
	fb := taxonomy.NewForestBuilder()
	a := fb.MustAddRoot("A")
	bCat := fb.MustAddRoot("B")
	f := fb.Build()
	gb := graph.NewBuilder(false)
	pa := gb.AddPoI(geoPoint(-3), a)
	v0 := gb.AddVertex(geoPoint(0))
	pb := gb.AddPoI(geoPoint(1), bCat)
	gb.AddEdge(pa, v0, 3)
	gb.AddEdge(v0, pb, 1)
	d := mustDataset(t, gb, f)
	seq := route.NewCategorySequence(f, f.WuPalmer, a, bCat)

	s := NewSearcher(d, f.WuPalmer, DefaultOptions())
	ordered, err := s.Query(v0, seq)
	if err != nil {
		t.Fatal(err)
	}
	unordered, err := s.QueryUnordered(v0, seq)
	if err != nil {
		t.Fatal(err)
	}
	// Ordered: v0→pa (3) →pb (4) = 7. Unordered: v0→pb (1) →pa (4) = 5.
	if math.Abs(ordered.Routes[0].Length()-7) > 1e-9 {
		t.Errorf("ordered length = %v, want 7", ordered.Routes[0].Length())
	}
	if math.Abs(unordered.Routes[0].Length()-5) > 1e-9 {
		t.Errorf("unordered length = %v, want 5", unordered.Routes[0].Length())
	}
}

func TestUnorderedValidation(t *testing.T) {
	ds, vq, cats := gen.PaperExample()
	s := NewSearcher(ds, ds.Forest.WuPalmer, DefaultOptions())
	if _, err := s.QueryUnordered(vq, nil); err == nil {
		t.Error("empty sequence should fail")
	}
	seq := route.NewCategorySequence(ds.Forest, ds.Forest.WuPalmer, cats...)
	if _, err := s.QueryUnordered(-5, seq); err == nil {
		t.Error("invalid start should fail")
	}
	big := make(route.Sequence, 31)
	for i := range big {
		big[i] = seq[0]
	}
	if _, err := s.QueryUnordered(vq, big); err == nil {
		t.Error("oversized sequence should fail")
	}
}

func TestUnorderedPaperExample(t *testing.T) {
	// On the Figure 1 fixture the unordered skyline must be at least as
	// good as the ordered one on every front.
	ds, vq, cats := gen.PaperExample()
	seq := route.NewCategorySequence(ds.Forest, ds.Forest.WuPalmer, cats...)
	s := NewSearcher(ds, ds.Forest.WuPalmer, DefaultOptions())
	ordered, err := s.Query(vq, seq)
	if err != nil {
		t.Fatal(err)
	}
	unordered, err := s.QueryUnordered(vq, seq)
	if err != nil {
		t.Fatal(err)
	}
	want := osr.BruteForce(ds, osr.Query{Start: vq, Seq: seq, Dest: graph.NoVertex, Unordered: true}, 1)
	if !sameSkyline(unordered.Routes, want) {
		t.Fatalf("unordered mismatch\ngot:  %v\nwant: %v", unordered.Routes, want)
	}
	for _, or := range ordered.Routes {
		cover := false
		for _, ur := range unordered.Routes {
			if ur.Length() <= or.Length() && ur.Semantic() <= or.Semantic() {
				cover = true
				break
			}
		}
		if !cover {
			t.Errorf("ordered route %v not covered by any unordered route", or)
		}
	}
}

func TestExpandPath(t *testing.T) {
	ds, vq, cats := gen.PaperExample()
	s := NewSearcher(ds, ds.Forest.WuPalmer, DefaultOptions())
	res, err := s.QueryCategories(vq, cats...)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range res.Routes {
		path, err := s.ExpandPath(vq, r, graph.NoVertex)
		if err != nil {
			t.Fatal(err)
		}
		if path[0] != vq {
			t.Errorf("path starts at %d, want %d", path[0], vq)
		}
		if path[len(path)-1] != r.Last() {
			t.Errorf("path ends at %d, want %d", path[len(path)-1], r.Last())
		}
		// Expanded length must equal the length score.
		if got := s.PathLength(path); math.Abs(got-r.Length()) > 1e-9 {
			t.Errorf("expanded path length %v != route length %v", got, r.Length())
		}
		// Every PoI of the route must appear on the path in order.
		idx := 0
		pois := r.PoIs()
		for _, v := range path {
			if idx < len(pois) && v == pois[idx] {
				idx++
			}
		}
		if idx != len(pois) {
			t.Errorf("path %v does not visit PoIs %v in order", path, pois)
		}
	}
}

func TestExpandPathWithDestination(t *testing.T) {
	ds, vq, cats := gen.PaperExample()
	seq := route.NewCategorySequence(ds.Forest, ds.Forest.WuPalmer, cats...)
	dest := graph.VertexID(3) // p3, far from everything
	s := NewSearcher(ds, ds.Forest.WuPalmer, DefaultOptions())
	res, err := s.QueryWithDestination(vq, seq, dest)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Routes) == 0 {
		t.Fatal("expected routes with destination")
	}
	r := res.Routes[0]
	path, err := s.ExpandPath(vq, r, dest)
	if err != nil {
		t.Fatal(err)
	}
	if path[len(path)-1] != dest {
		t.Errorf("path ends at %d, want destination %d", path[len(path)-1], dest)
	}
	if got := s.PathLength(path); math.Abs(got-r.Length()) > 1e-9 {
		t.Errorf("expanded length %v != adjusted route length %v", got, r.Length())
	}
}

func TestExpandPathUnreachable(t *testing.T) {
	fb := taxonomy.NewForestBuilder()
	a := fb.MustAddRoot("A")
	f := fb.Build()
	gb := graph.NewBuilder(false)
	v0 := gb.AddVertex(geoPoint(0))
	p := gb.AddPoI(geoPoint(1), a)
	gb.AddEdge(v0, p, 1)
	island := gb.AddVertex(geoPoint(9))
	v2 := gb.AddVertex(geoPoint(10))
	gb.AddEdge(island, v2, 1)
	d := mustDataset(t, gb, f)
	s := NewSearcher(d, f.WuPalmer, DefaultOptions())
	res, err := s.QueryCategories(v0, a)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.ExpandPath(v0, res.Routes[0], island); err == nil {
		t.Error("expanding to an unreachable destination should fail")
	}
}
