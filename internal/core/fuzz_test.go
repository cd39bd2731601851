package core

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"skysr/internal/dataset"
	"skysr/internal/geo"
	"skysr/internal/graph"
	"skysr/internal/index"
	"skysr/internal/osr"
	"skysr/internal/route"
	"skysr/internal/taxonomy"
	"skysr/internal/topk"
)

// fuzzForest is the taxonomy every fuzzed query uses: two trees of
// three levels, 14 categories, 8 of them leaves.
var fuzzForest = taxonomy.Generated(2, 2, 3)

// fuzzQuery is one decoded input of FuzzSearchMatchesBruteForce.
type fuzzQuery struct {
	d           *dataset.Dataset
	cats        []taxonomy.CategoryID
	start, dest graph.VertexID
}

// fuzzBytes reads an input front to back; missing bytes read as zero.
type fuzzBytes []byte

func (b *fuzzBytes) next() int {
	if len(*b) == 0 {
		return 0
	}
	c := (*b)[0]
	*b = (*b)[1:]
	return int(c)
}

// decodeFuzzQuery reads a query from data:
//
//   - byte 0: 1 + b%12 road vertices; byte 1: b%9 PoIs, at most 12
//     vertices in all;
//   - byte 2: bit 0 directed, 1 + (b>>1)%3 sequence positions;
//   - the start and destination vertex, then one category per position
//     (any category of fuzzForest);
//   - one byte per PoI: leaf b%8, plus leaf (b>>4)%8 when bit 7 is set;
//   - edges until the input runs out, 10 bytes each: two endpoints and
//     the little-endian bits of a float64 weight. An edge is kept when
//     its endpoints differ and its weight is positive and finite, so the
//     fuzzer mutates the weights' bit patterns directly.
func decodeFuzzQuery(data []byte) fuzzQuery {
	in := fuzzBytes(data)
	roads := 1 + in.next()%12
	pois := min(in.next()%9, 12-roads)
	n := roads + pois
	shape := in.next()
	b := graph.NewBuilder(shape&1 == 1)
	q := fuzzQuery{
		start: graph.VertexID(in.next() % n),
		dest:  graph.VertexID(in.next() % n),
		cats:  make([]taxonomy.CategoryID, 1+(shape>>1)%3),
	}
	for i := range q.cats {
		q.cats[i] = taxonomy.CategoryID(in.next() % fuzzForest.NumCategories())
	}
	for range roads {
		b.AddVertex(geo.Point{})
	}
	leaves := fuzzForest.Leaves()
	for range pois {
		c := in.next()
		p := b.AddPoI(geo.Point{}, leaves[c%len(leaves)])
		if c&0x80 != 0 {
			b.AddCategory(p, leaves[(c>>4)%len(leaves)])
		}
	}
	for len(in) > 0 {
		u, v := graph.VertexID(in.next()%n), graph.VertexID(in.next()%n)
		var bits [8]byte
		for i := range bits {
			bits[i] = byte(in.next())
		}
		w := math.Float64frombits(binary.LittleEndian.Uint64(bits[:]))
		if u != v && w > 0 && !math.IsInf(w, 1) {
			b.AddEdge(u, v, w)
		}
	}
	q.d = dataset.MustNew("fuzz", b.Build(), fuzzForest)
	return q
}

// fuzzSeed encodes, in decodeFuzzQuery's layout, a random connected
// query of the given number of positions: every vertex hangs off an
// earlier one and a few extra edges close cycles. weight draws each
// weight.
func fuzzSeed(rng *rand.Rand, roads, pois, positions int, directed bool, weight func() float64) []byte {
	n := roads + pois
	shape := (positions - 1) << 1
	if directed {
		shape |= 1
	}
	out := []byte{byte(roads - 1), byte(pois), byte(shape), byte(rng.Intn(n)), byte(rng.Intn(n))}
	for range positions {
		out = append(out, byte(rng.Intn(fuzzForest.NumCategories())))
	}
	for range pois {
		out = append(out, byte(rng.Intn(256)))
	}
	edge := func(u, v int) {
		out = append(out, byte(u), byte(v))
		out = binary.LittleEndian.AppendUint64(out, math.Float64bits(weight()))
	}
	for v := 1; v < n; v++ {
		u := rng.Intn(v)
		edge(v, u)
		if directed {
			edge(u, v)
		}
	}
	for range n / 2 {
		edge(rng.Intn(n), rng.Intn(n))
	}
	return out
}

// seq is the query's sequence with its positions in the given order.
func (q fuzzQuery) seq(order ...int) route.Sequence {
	cats := make([]taxonomy.CategoryID, len(q.cats))
	for i := range cats {
		cats[i] = q.cats[i]
		if order != nil {
			cats[i] = q.cats[order[i]]
		}
	}
	return route.NewCategorySequence(fuzzForest, fuzzForest.WuPalmer, cats...)
}

// bruteForce is the oracle's k-skyband of each query shape.
func (q fuzzQuery) bruteForce(k int) map[string][]topk.Point {
	seq := q.seq()
	if k == 1 {
		return map[string][]topk.Point{
			"ordered":     routePoints(osr.BruteForceSkySR(q.d, q.start, seq, route.AggProduct).Routes()),
			"destination": routePoints(osr.BruteForceSkySRWithDestination(q.d, q.start, seq, route.AggProduct, q.dest).Routes()),
			"unordered":   routePoints(osr.BruteForceUnordered(q.d, q.start, seq, route.AggProduct).Routes()),
		}
	}
	// The unordered band is the band of every visit order's band (see
	// TestSearchTopKUnordered in the root package).
	var unordered []topk.Point
	for _, order := range permutations(len(q.cats)) {
		unordered = append(unordered, topk.BruteForce(q.d, q.start, q.seq(order...), k, route.AggProduct, graph.NoVertex)...)
	}
	return map[string][]topk.Point{
		"ordered":     topk.BruteForce(q.d, q.start, seq, k, route.AggProduct, graph.NoVertex),
		"destination": topk.BruteForce(q.d, q.start, seq, k, route.AggProduct, q.dest),
		"unordered":   topk.Band(unordered, k),
	}
}

// permutations lists every order of 0..n-1.
func permutations(n int) [][]int {
	if n == 0 {
		return [][]int{{}}
	}
	var out [][]int
	for _, p := range permutations(n - 1) {
		for i := 0; i <= len(p); i++ {
			q := append(append(append([]int(nil), p[:i]...), n-1), p[i:]...)
			out = append(out, q)
		}
	}
	return out
}

func routePoints(routes []*route.Route) []topk.Point {
	out := make([]topk.Point, len(routes))
	for i, r := range routes {
		out[i] = topk.Point{Length: r.Length(), Semantic: r.Semantic()}
	}
	return out
}

// agreeUpToRounding returns the first point on which the search's answer
// got and the oracle's want disagree, or nil. Two points are the same
// when their lengths agree to a relative 1e-9 and their semantic scores
// to 1e-9: the search and the oracle may sum the weights of different,
// equally short paths, so a length can differ by a few ULPs. Such a
// difference can also flip a comparison that decides whether a point
// belongs to the band, so a point found on one side only is excused when
// its membership rests on one:
//
//   - another point's length agrees with its own without the two points
//     being the same;
//   - two points of one side that dominate it are the same without being
//     equal, so the other side may count them as one.
//
// A missing route, a wrong length or a route that does not exist is
// none of these, unless its length ties another point's.
func agreeUpToRounding(got, want []topk.Point) error {
	closeL := func(a, b float64) bool { return math.Abs(a-b) <= 1e-9*max(math.Abs(a), math.Abs(b)) }
	same := func(a, b topk.Point) bool {
		return closeL(a.Length, b.Length) && math.Abs(a.Semantic-b.Semantic) <= 1e-9
	}
	twinDominators := func(x topk.Point, side []topk.Point) bool {
		var doms []topk.Point
		for _, y := range side {
			if !same(x, y) && y.Length <= x.Length && y.Semantic <= x.Semantic {
				doms = append(doms, y)
			}
		}
		for i, y := range doms {
			for _, z := range doms[i+1:] {
				if y != z && same(y, z) {
					return true
				}
			}
		}
		return false
	}
	fragile := func(x topk.Point) bool {
		for _, side := range [][]topk.Point{got, want} {
			for _, y := range side {
				if !same(x, y) && closeL(x.Length, y.Length) {
					return true
				}
			}
			if twinDominators(x, side) {
				return true
			}
		}
		return false
	}
	present := func(x topk.Point, side []topk.Point) bool {
		for _, y := range side {
			if same(x, y) {
				return true
			}
		}
		return false
	}
	for _, w := range want {
		if !present(w, got) && !fragile(w) {
			return fmt.Errorf("missing %v", w)
		}
	}
	for _, g := range got {
		if !present(g, want) && !fragile(g) {
			return fmt.Errorf("extra %v", g)
		}
	}
	return nil
}

// FuzzSearchMatchesBruteForce is the search core's differential target:
// ordered, unordered and destination queries at k = 1 and 2, plain, on
// the category index and, at k = 1, on the index plus a primed
// SharedCache, must return the brute-force skyline or skyband of a small
// decoded graph (see decodeFuzzQuery) up to float rounding (see
// agreeUpToRounding). Run it with
//
//	go test -run '^$' -fuzz '^FuzzSearchMatchesBruteForce$' -fuzztime 30s ./internal/core
func FuzzSearchMatchesBruteForce(f *testing.F) {
	rng := rand.New(rand.NewSource(17))
	uniform := func() float64 { return 1 + 9*rng.Float64() }
	f.Add(fuzzSeed(rng, 6, 6, 3, false, uniform))
	f.Add(fuzzSeed(rng, 5, 7, 3, true, uniform))
	f.Add(fuzzSeed(rng, 4, 8, 2, false, func() float64 { return float64(1 + rng.Intn(4)) }))
	f.Add(fuzzSeed(rng, 6, 6, 3, true, func() float64 { return math.Ldexp(1+rng.Float64(), rng.Intn(80)-40) }))
	f.Fuzz(func(t *testing.T, data []byte) {
		q := decodeFuzzQuery(data)
		seq := q.seq()
		ci := index.New(q.d, 0)
		for _, k := range []int{1, 2} {
			want := q.bruteForce(k)
			for _, profile := range []string{"plain", "index", "index+shared"} {
				opts := DefaultOptions()
				opts.TopK = k
				if profile != "plain" {
					opts.Index = ci
				}
				s := NewSearcher(q.d, fuzzForest.WuPalmer, opts)
				if profile == "index+shared" {
					if k > 1 {
						continue // top-k runs never share
					}
					// Prime a SharedCache with every proper prefix of the
					// sequence, as a batch holding them would: a prefix's
					// last position sees no later one, so its runs may stop
					// at perfect matches the full query has to traverse.
					opts.Shared = NewSharedCache(0)
					s = NewSearcher(q.d, fuzzForest.WuPalmer, opts)
					for i := 1; i < len(seq); i++ {
						if _, err := s.Query(q.start, seq[:i]); err != nil {
							t.Fatal(err)
						}
					}
				}
				for _, shape := range []string{"ordered", "destination", "unordered"} {
					var res *Result
					var err error
					switch shape {
					case "ordered":
						res, err = s.Query(q.start, seq)
					case "destination":
						res, err = s.QueryWithDestination(q.start, seq, q.dest)
					case "unordered":
						res, err = s.QueryUnordered(q.start, seq)
					}
					if err != nil {
						t.Fatalf("k=%d %s %s: %v", k, profile, shape, err)
					}
					got := routePoints(res.Routes)
					if err := agreeUpToRounding(got, want[shape]); err != nil {
						t.Fatalf("k=%d %s %s from %d (dest %d) via %v: %v\ngot:  %v\nwant: %v",
							k, profile, shape, q.start, q.dest, q.cats, err, got, want[shape])
					}
				}
			}
		}
	})
}
