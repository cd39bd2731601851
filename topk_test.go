package skysr

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"skysr/internal/core"
	"skysr/internal/graph"
	"skysr/internal/osr"
	"skysr/internal/route"
	"skysr/internal/taxonomy"
)

// TestSearchTopKOneIsSearch is the acceptance-criterion property:
// SearchTopK(q, 1, opts) must be byte-identical to SearchWith(q, opts) —
// same PoIs, names, ranks, paths, bit-equal scores — on every preset and
// serving profile, and under SearchBatch.
func TestSearchTopKOneIsSearch(t *testing.T) {
	for _, preset := range Presets() {
		preset := preset
		t.Run(preset, func(t *testing.T) {
			t.Parallel()
			eng, err := Generate(preset, 0.05, 7)
			if err != nil {
				t.Fatal(err)
			}
			queries, err := eng.Workload(6, 3, 5)
			if err != nil {
				t.Fatal(err)
			}
			queries[len(queries)-1].Unordered = true
			for name, p := range servingProfiles() {
				opts := p.opts
				opts.ExpandPaths = true
				for i, q := range queries {
					if q.Unordered {
						opts.ExpandPaths = false // paths need the ordered expander
					}
					want, err := p.search(eng, q, opts)
					if err != nil {
						t.Fatalf("%s query %d: %v", name, i, err)
					}
					top1 := opts
					top1.TopK = 1
					got, err := p.search(eng, q, top1)
					if err != nil {
						t.Fatalf("%s query %d top-1: %v", name, i, err)
					}
					if !reflect.DeepEqual(got.Routes, want.Routes) {
						t.Errorf("%s query %d: top-1 routes differ\n got: %v\nwant: %v",
							name, i, got.Routes, want.Routes)
					}
				}
			}
			// Batch answers with TopK=1 must match the serial SearchTopK.
			serial := make([]*Answer, len(queries))
			for i, q := range queries {
				serial[i], err = eng.SearchTopK(q, 1, SearchOptions{UseCategoryIndex: true})
				if err != nil {
					t.Fatal(err)
				}
			}
			batch, err := eng.SearchBatch(queries, BatchOptions{
				Workers: 3,
				Options: SearchOptions{UseCategoryIndex: true, TopK: 1},
			})
			if err != nil {
				t.Fatal(err)
			}
			for i := range batch {
				if !reflect.DeepEqual(batch[i].Routes, serial[i].Routes) {
					t.Errorf("batch query %d: top-1 routes differ from serial", i)
				}
			}
		})
	}
}

// dyadicEngine builds a random connected network like randomEngine, but
// with dyadic edge weights (multiples of 1/16): every route length is
// then a sum of exactly representable values whose result is independent
// of addition order, so the brute-force enumerator and the search cannot
// disagree by an ULP on whether two routes share a score point.
func dyadicEngine(t *testing.T, rng *rand.Rand, directed bool, vertices, pois int) (*Engine, []string) {
	t.Helper()
	tb, leaves, _ := randomTaxonomy(3, 2, 2)
	var nb *NetworkBuilder
	if directed {
		nb = NewDirectedNetworkBuilder("topk-prop", tb)
	} else {
		nb = NewNetworkBuilder("topk-prop", tb)
	}
	for i := 0; i < vertices; i++ {
		nb.AddVertex(rng.Float64(), rng.Float64())
	}
	w := func() float64 { return float64(1+rng.Intn(144)) / 16.0 }
	addRoad := func(u, v VertexID) {
		if err := nb.AddRoad(u, v, w()); err != nil {
			t.Fatal(err)
		}
		if directed {
			if err := nb.AddRoad(v, u, w()); err != nil {
				t.Fatal(err)
			}
		}
	}
	for i := 1; i < vertices; i++ {
		addRoad(VertexID(i), VertexID(rng.Intn(i)))
	}
	for i := 0; i < pois; i++ {
		attach := VertexID(rng.Intn(vertices))
		cats := []string{leaves[rng.Intn(len(leaves))]}
		if rng.Intn(4) == 0 {
			cats = append(cats, leaves[rng.Intn(len(leaves))])
		}
		p, err := nb.AddPoI(rng.Float64(), rng.Float64(), cats...)
		if err != nil {
			t.Fatal(err)
		}
		addRoad(attach, p)
	}
	eng, err := nb.Build()
	if err != nil {
		t.Fatal(err)
	}
	return eng, leaves
}

// answerPoints projects an Answer onto its score points, without routes,
// so reflect.DeepEqual compares them bit for bit; an empty answer
// projects to nil, as scores does an empty band.
func answerPoints(ans *Answer) []route.Point3 {
	var out []route.Point3
	for _, r := range ans.Routes {
		out = append(out, route.Point3{L: r.LengthScore, S: r.SemanticScore})
	}
	return out
}

// routePoints is answerPoints for the routes of a core search.
func routePoints(routes []*route.Route) []route.Point3 {
	var out []route.Point3
	for _, r := range routes {
		out = append(out, route.Point3{L: r.Length(), S: r.Semantic()})
	}
	return out
}

// scores is answerPoints for the oracle's points: it drops their routes.
func scores(points []route.Point3) []route.Point3 {
	var out []route.Point3
	for _, p := range points {
		out = append(out, route.Point3{L: p.L, S: p.S, R: p.R})
	}
	return out
}

// checkRankedAnswer asserts the satellite invariants of a top-k answer:
// ranks are 1..n, the list is sorted by ascending length (ties by
// semantic), score points are duplicate-free and no PoI sequence repeats.
func checkRankedAnswer(t *testing.T, ctx string, ans *Answer) {
	t.Helper()
	seenPoint := map[[2]float64]bool{}
	seenPoIs := map[string]bool{}
	for i, r := range ans.Routes {
		if r.Rank != i+1 {
			t.Errorf("%s: route %d has rank %d", ctx, i, r.Rank)
		}
		if i > 0 {
			prev := ans.Routes[i-1]
			if r.LengthScore < prev.LengthScore ||
				(r.LengthScore == prev.LengthScore && r.SemanticScore < prev.SemanticScore) {
				t.Errorf("%s: routes not sorted at %d: %v after %v", ctx, i, r, prev)
			}
		}
		p := [2]float64{r.LengthScore, r.SemanticScore}
		if seenPoint[p] {
			t.Errorf("%s: duplicate score point %v", ctx, p)
		}
		seenPoint[p] = true
		key := fmt.Sprint(r.PoIs)
		if seenPoIs[key] {
			t.Errorf("%s: duplicate PoI sequence %s", ctx, key)
		}
		seenPoIs[key] = true
	}
}

// TestSearchTopKMatchesBruteForce verifies exactness on small random
// graphs: for every k, the (length, semantic) points SearchTopK returns
// must equal the brute-force k-skyband over all valid routes, every
// serving profile must agree bit-exactly with the plain profile, ranked
// lists must be sorted and duplicate-free, and growing k must never lose
// a point (monotonicity).
func TestSearchTopKMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	for _, directed := range []bool{false, true} {
		for trial := 0; trial < 4; trial++ {
			eng, leaves := dyadicEngine(t, rng, directed, 40, 14)
			ds := eng.internalDataset()
			for _, seqLen := range []int{2, 3} {
				cats := make([]taxonomy.CategoryID, seqLen)
				via := make([]Requirement, seqLen)
				for i := range cats {
					name := leaves[rng.Intn(len(leaves))]
					c, ok := ds.Forest.Lookup(name)
					if !ok {
						t.Fatalf("unknown leaf %q", name)
					}
					cats[i] = c
					via[i] = Category(name)
				}
				start := VertexID(rng.Intn(40))
				seq := route.NewCategorySequence(ds.Forest, ds.Forest.WuPalmer, cats...)
				q := Query{Start: start, Via: via}
				var prev []route.Point3
				for _, k := range []int{1, 2, 3, 5} {
					want := scores(osr.BruteForce(ds, osr.Query{Start: start, Seq: seq, Dest: graph.NoVertex}, k))
					base, err := eng.SearchTopK(q, k, SearchOptions{})
					if err != nil {
						t.Fatal(err)
					}
					ctx := fmt.Sprintf("directed=%v trial=%d len=%d k=%d", directed, trial, seqLen, k)
					checkRankedAnswer(t, ctx, base)
					got := answerPoints(base)
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("%s: points %v, brute force wants %v", ctx, got, want)
					}
					for name, p := range servingProfiles() {
						opts := p.opts
						opts.TopK = k
						ans, err := p.search(eng, q, opts)
						if err != nil {
							t.Fatalf("%s %s: %v", ctx, name, err)
						}
						if !reflect.DeepEqual(ans.Routes, base.Routes) {
							t.Fatalf("%s: profile %s differs from plain\n got: %v\nwant: %v",
								ctx, name, ans.Routes, base.Routes)
						}
					}
					// BSSR w/o Opt must enumerate the same band.
					noOptOpts := core.WithoutOptimizations()
					noOptOpts.TopK = k
					noOpt, err := core.NewSearcher(ds, ds.Forest.WuPalmer, noOptOpts).Query(start, seq)
					if err != nil {
						t.Fatal(err)
					}
					if pts := routePoints(noOpt.Routes); !reflect.DeepEqual(pts, want) {
						t.Fatalf("%s: BSSR w/o Opt points %v, want %v", ctx, pts, want)
					}
					for _, p := range prev {
						found := false
						for _, qpt := range got {
							if qpt == p {
								found = true
								break
							}
						}
						if !found {
							t.Fatalf("%s: point %v lost when k grew", ctx, p)
						}
					}
					prev = got
				}
			}
		}
	}
}

// TestSearchTopKDestination verifies the §6 destination variant against
// the brute-force enumerator with the final leg included, under every
// serving profile, on directed and undirected networks, with 2–3
// distinct categories.
func TestSearchTopKDestination(t *testing.T) {
	rng := rand.New(rand.NewSource(83))
	for _, directed := range []bool{false, true} {
		eng, leaves := dyadicEngine(t, rng, directed, 36, 12)
		ds := eng.internalDataset()
		for trial := 0; trial < 12; trial++ {
			var via []Requirement
			var cats []taxonomy.CategoryID
			for _, i := range rng.Perm(len(leaves))[:2+rng.Intn(2)] {
				c, _ := ds.Forest.Lookup(leaves[i])
				via = append(via, Category(leaves[i]))
				cats = append(cats, c)
			}
			start := VertexID(rng.Intn(36))
			dest := VertexID(rng.Intn(36))
			seq := route.NewCategorySequence(ds.Forest, ds.Forest.WuPalmer, cats...)
			q := Query{Start: start, Via: via, Destination: dest, HasDestination: true}
			for _, k := range []int{1, 2, 3} {
				want := scores(osr.BruteForce(ds, osr.Query{Start: start, Seq: seq, Dest: dest}, k))
				for name, p := range servingProfiles() {
					opts := p.opts
					opts.TopK = k
					ans, err := p.search(eng, q, opts)
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					if got := answerPoints(ans); !reflect.DeepEqual(got, want) {
						t.Fatalf("%s directed=%v trial %d k=%d: points %v, want %v", name, directed, trial, k, got, want)
					}
				}
			}
		}
	}
}

// TestSearchTopKUnordered verifies the unordered (trip-planning) variant:
// under every serving profile, the band must equal the brute-force band
// of every route that visits both categories, in either order.
func TestSearchTopKUnordered(t *testing.T) {
	rng := rand.New(rand.NewSource(97))
	eng, leaves := dyadicEngine(t, rng, false, 36, 12)
	ds := eng.internalDataset()
	for trial := 0; trial < 5; trial++ {
		a := leaves[rng.Intn(len(leaves))]
		b := leaves[rng.Intn(len(leaves))]
		ca, _ := ds.Forest.Lookup(a)
		cb, _ := ds.Forest.Lookup(b)
		start := VertexID(rng.Intn(36))
		q := Query{Start: start, Via: []Requirement{Category(a), Category(b)}, Unordered: true}
		seq := route.NewCategorySequence(ds.Forest, ds.Forest.WuPalmer, ca, cb)
		for _, k := range []int{1, 2, 3} {
			want := scores(osr.BruteForce(ds, osr.Query{Start: start, Seq: seq, Dest: graph.NoVertex, Unordered: true}, k))
			for name, p := range servingProfiles() {
				opts := p.opts
				opts.TopK = k
				ans, err := p.search(eng, q, opts)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if got := answerPoints(ans); !reflect.DeepEqual(got, want) {
					t.Fatalf("%s trial %d k=%d (%s,%s): points %v, want %v", name, trial, k, a, b, got, want)
				}
			}
		}
	}
}

// TestSearchTopKStats: a k > 1 run reports its k, counts the extra pops
// it performs past the k=1 threshold, and records the band's levels.
func TestSearchTopKStats(t *testing.T) {
	eng, err := Generate("tokyo", 0.05, 7)
	if err != nil {
		t.Fatal(err)
	}
	queries, err := eng.Workload(4, 3, 5)
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range queries {
		one, err := eng.SearchTopK(q, 1, SearchOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if one.Stats.TopK != 1 || one.Stats.TopKExtraPops != 0 || one.Stats.TopKLevels != 0 {
			t.Fatalf("k=1 stats polluted: %+v", one.Stats)
		}
		five, err := eng.SearchTopK(q, 5, SearchOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if five.Stats.TopK != 5 {
			t.Fatalf("k=5 run reports TopK %d", five.Stats.TopK)
		}
		if five.Stats.TopKLevels < 1 || five.Stats.TopKLevels > len(five.Routes) {
			t.Fatalf("implausible TopKLevels %d for %d routes", five.Stats.TopKLevels, len(five.Routes))
		}
		if len(five.Routes) < len(one.Routes) {
			t.Fatalf("k=5 returned fewer routes (%d) than k=1 (%d)", len(five.Routes), len(one.Routes))
		}
	}
}

// TestSearchTopKErrors covers the argument validation.
func TestSearchTopKErrors(t *testing.T) {
	eng, _, cats := PaperExample()
	q := Query{Start: 0, Via: []Requirement{Category(cats[0])}}
	if _, err := eng.SearchTopK(q, 0, SearchOptions{}); err == nil {
		t.Error("k=0 accepted")
	}
	if _, err := eng.SearchWith(q, SearchOptions{TopK: -1}); err == nil {
		t.Error("negative TopK accepted")
	}
	if _, err := eng.SearchTopK(q, MaxTopK+1, SearchOptions{}); err == nil {
		t.Error("TopK above MaxTopK accepted")
	}
	rq := q
	rq.IncludeRatings = true
	if _, err := eng.SearchTopK(rq, 2, SearchOptions{}); err == nil {
		t.Error("top-k accepted with IncludeRatings")
	}
	if _, err := eng.SearchTopK(q, 2, SearchOptions{}); err != nil {
		t.Errorf("plain top-2 rejected: %v", err)
	}
}
