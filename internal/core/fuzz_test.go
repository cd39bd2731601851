package core

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"testing"

	"skysr/internal/dataset"
	"skysr/internal/gen"
	"skysr/internal/geo"
	"skysr/internal/graph"
	"skysr/internal/index"
	"skysr/internal/osr"
	"skysr/internal/route"
	"skysr/internal/taxonomy"
)

// fuzzForest is the taxonomy every fuzzed query uses: two trees of
// three levels, 14 categories, 8 of them leaves.
var fuzzForest = taxonomy.Generated(2, 2, 3)

// fuzzQuery is one decoded input of FuzzSearchMatchesBruteForce.
type fuzzQuery struct {
	d           *dataset.Dataset
	cats        []taxonomy.CategoryID
	start, dest graph.VertexID

	// Derived from a generator seeded by the input, so they read no
	// bytes: d's ratings, a sequence of complex requirements, and td,
	// d's graph with FIFO profiles on some edges, left at depart.
	complex route.Sequence
	td      *dataset.Dataset
	depart  float64
}

// fuzzPeriod is the profiles' period: about the length of a route over
// the seeds' weights, so a route's legs meet different profile segments.
const fuzzPeriod = 60

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
//
// A generator seeded by the input's FNV-1a hash then draws a rating per
// PoI, one complex requirement per position (the position's category in
// an AnyOf, an AllOf or an Excluding with a second category), a profile
// from gen.RandomFIFOProfile for each edge with probability 0.6, and the
// departure time.
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
	var edges []int
	for len(in) > 0 {
		u, v := graph.VertexID(in.next()%n), graph.VertexID(in.next()%n)
		var bits [8]byte
		for i := range bits {
			bits[i] = byte(in.next())
		}
		w := math.Float64frombits(binary.LittleEndian.Uint64(bits[:]))
		if u != v && w > 0 && !math.IsInf(w, 1) {
			edges = append(edges, b.AddEdge(u, v, w))
		}
	}
	q.d = dataset.MustNew("fuzz", b.Build(), fuzzForest)

	h := fnv.New64a()
	h.Write(data)
	rng := rand.New(rand.NewSource(int64(h.Sum64())))
	ratings := make([]float64, n)
	for i := range ratings {
		ratings[i] = float64(rng.Intn(11)) / 2
	}
	if err := q.d.SetRatings(ratings); err != nil {
		panic(err)
	}
	sim := fuzzForest.WuPalmer
	for _, c := range q.cats {
		base := route.NewCategory(fuzzForest, c, sim)
		other := taxonomy.CategoryID(rng.Intn(fuzzForest.NumCategories()))
		var m route.Matcher
		switch rng.Intn(3) {
		case 0:
			m = route.NewAnyOf(base, route.NewCategory(fuzzForest, other, sim))
		case 1:
			m = route.NewAllOf(base, route.NewCategory(fuzzForest, other, sim))
		default:
			m = route.NewExcluding(base, fuzzForest, other)
		}
		q.complex = append(q.complex, m)
	}
	if err := b.SetTimePeriod(fuzzPeriod); err != nil {
		panic(err)
	}
	for _, e := range edges {
		if rng.Float64() < 0.6 {
			if err := b.SetEdgeProfile(e, gen.RandomFIFOProfile(rng, fuzzPeriod, 1+rng.Intn(5), 12)); err != nil {
				panic(err)
			}
		}
	}
	q.td = dataset.MustNew("fuzz-td", b.Build(), fuzzForest)
	q.depart = 2 * fuzzPeriod * rng.Float64()
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

// seq is the query's sequence of plain categories.
func (q fuzzQuery) seq() route.Sequence {
	return route.NewCategorySequence(fuzzForest, fuzzForest.WuPalmer, q.cats...)
}

// routePoints projects the search's routes onto the oracle's points.
func routePoints(routes []*route.Route) []route.Point3 {
	out := make([]route.Point3, len(routes))
	for i, r := range routes {
		out[i] = route.Point3{L: r.Length(), S: r.Semantic(), Route: r}
	}
	return out
}

// agreeUpToRounding returns the first point on which the search's answer
// got and the oracle's want disagree, or nil. Two points are the same
// when their lengths agree to a relative 1e-9 and their semantic scores
// and rating penalties to 1e-9: the search and the oracle may sum the
// weights of different, equally short paths, so a length can differ by a
// few ULPs. Such a difference can also flip a comparison that decides
// whether a point belongs to the band, so a point found on one side only
// is excused when its membership rests on one:
//
//   - another point's length agrees with its own without the two points
//     being the same;
//   - two points of one side that dominate it are the same without being
//     equal, so the other side may count them as one.
//
// A missing route, a wrong length or a route that does not exist is
// none of these, unless its length ties another point's.
func agreeUpToRounding(got, want []route.Point3) error {
	closeL := func(a, b float64) bool { return math.Abs(a-b) <= 1e-9*max(math.Abs(a), math.Abs(b)) }
	same := func(a, b route.Point3) bool {
		return closeL(a.L, b.L) && math.Abs(a.S-b.S) <= 1e-9 && math.Abs(a.R-b.R) <= 1e-9
	}
	twinDominators := func(x route.Point3, side []route.Point3) bool {
		var doms []route.Point3
		for _, y := range side {
			if !same(x, y) && y.L <= x.L && y.S <= x.S && y.R <= x.R {
				doms = append(doms, y)
			}
		}
		for i, y := range doms {
			for _, z := range doms[i+1:] {
				if (y.L != z.L || y.S != z.S || y.R != z.R) && same(y, z) {
					return true
				}
			}
		}
		return false
	}
	fragile := func(x route.Point3) bool {
		for _, side := range [][]route.Point3{got, want} {
			for _, y := range side {
				if !same(x, y) && closeL(x.L, y.L) {
					return true
				}
			}
			if twinDominators(x, side) {
				return true
			}
		}
		return false
	}
	present := func(x route.Point3, side []route.Point3) bool {
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

// FuzzSearchMatchesBruteForce is the search core's differential target.
// On a small decoded graph (see decodeFuzzQuery), ordered, destination
// and unordered queries at k = 1 and 2, plain, on the category index and
// on the index plus a primed SharedCache (whose cost-to-go rows cut
// ordered queries at both k), must return the osr.BruteForce skyline or
// skyband up to float rounding (see agreeUpToRounding). They run on the
// decoded categories, on the derived complex requirements, and on the
// time-dependent twin graph at the derived departure time. Rated queries on the decoded categories, plain
// and on the index, must return the three-criteria skyline. Run it with
//
//	go test -run '^$' -fuzz '^FuzzSearchMatchesBruteForce$' -fuzztime 30s ./internal/core
func FuzzSearchMatchesBruteForce(f *testing.F) {
	rng := rand.New(rand.NewSource(17))
	uniform := func() float64 { return 1 + 9*rng.Float64() }
	f.Add(fuzzSeed(rng, 6, 6, 3, false, uniform))
	f.Add(fuzzSeed(rng, 5, 7, 3, true, uniform))
	f.Add(fuzzSeed(rng, 4, 8, 2, false, func() float64 { return float64(1 + rng.Intn(4)) }))
	f.Add(fuzzSeed(rng, 6, 6, 3, true, func() float64 { return math.Ldexp(1+rng.Float64(), rng.Intn(80)-40) }))
	// One seed per derived shape. Rated: eight PoIs at two positions, so
	// many routes trade rating for length. Complex: every PoI carries two
	// leaves, so AllOf requirements match. Time-dependent: weights that
	// make a three-position route span about one profile period.
	f.Add(fuzzSeed(rng, 4, 8, 2, false, uniform))
	complexSeed := fuzzSeed(rng, 5, 7, 3, false, uniform)
	for i := range 7 {
		complexSeed[5+3+i] |= 0x80
	}
	f.Add(complexSeed)
	f.Add(fuzzSeed(rng, 6, 6, 3, true, func() float64 { return 4 + 12*rng.Float64() }))
	f.Fuzz(func(t *testing.T, data []byte) {
		q := decodeFuzzQuery(data)
		for _, c := range []struct {
			name   string
			d      *dataset.Dataset
			seq    route.Sequence
			depart float64
		}{
			{"categories", q.d, q.seq(), 0},
			{"complex", q.d, q.complex, 0},
			{"time-dependent", q.td, q.seq(), q.depart},
		} {
			ci := index.New(c.d, 0)
			for _, k := range []int{1, 2} {
				want := map[string][]route.Point3{
					"ordered":     osr.BruteForce(c.d, osr.Query{Start: q.start, Seq: c.seq, Dest: graph.NoVertex, DepartAt: c.depart}, k),
					"destination": osr.BruteForce(c.d, osr.Query{Start: q.start, Seq: c.seq, Dest: q.dest, DepartAt: c.depart}, k),
					"unordered":   osr.BruteForce(c.d, osr.Query{Start: q.start, Seq: c.seq, Dest: graph.NoVertex, DepartAt: c.depart, Unordered: true}, k),
				}
				for _, profile := range []string{"plain", "index", "index+shared"} {
					opts := DefaultOptions()
					opts.TopK = k
					opts.DepartAt = c.depart
					if profile != "plain" {
						opts.Index = ci
					}
					s := NewSearcher(c.d, fuzzForest.WuPalmer, opts)
					if profile == "index+shared" {
						// Prime a SharedCache with every proper prefix of the
						// sequence, as a batch holding them would: a prefix's
						// last position sees no later one, so its runs may stop
						// at perfect matches the full query has to traverse,
						// and it leaves the rows of its own suffixes. A first
						// round, the full sequence included, misses every row;
						// once they are paid for, the prefixes build theirs and
						// the ordered query below its own. Top-k runs share no
						// runs, but they do read the rows.
						opts.Shared = NewSharedCache(0)
						s = NewSearcher(c.d, fuzzForest.WuPalmer, opts)
						for _, n := range []int{len(c.seq), len(c.seq) - 1} {
							for i := 1; i <= n; i++ {
								if _, err := s.Query(q.start, c.seq[:i]); err != nil {
									t.Fatal(err)
								}
							}
							payAllRows(opts.Shared)
						}
					}
					for _, shape := range []string{"ordered", "destination", "unordered"} {
						var res *Result
						var err error
						switch shape {
						case "ordered":
							res, err = s.Query(q.start, c.seq)
						case "destination":
							res, err = s.QueryWithDestination(q.start, c.seq, q.dest)
						case "unordered":
							res, err = s.QueryUnordered(q.start, c.seq)
						}
						if err != nil {
							t.Fatalf("%s k=%d %s %s: %v", c.name, k, profile, shape, err)
						}
						got := routePoints(res.Routes)
						if err := agreeUpToRounding(got, want[shape]); err != nil {
							t.Fatalf("%s k=%d %s %s from %d (dest %d, depart %v) via %v: %v\ngot:  %v\nwant: %v",
								c.name, k, profile, shape, q.start, q.dest, c.depart, c.seq, err, got, want[shape])
						}
					}
				}
			}
		}
		want := osr.BruteForce(q.d, osr.Query{Start: q.start, Seq: q.seq(), Dest: graph.NoVertex, Rated: true}, 1)
		for _, ci := range []*index.CategoryDistances{nil, index.New(q.d, 0)} {
			opts := DefaultOptions()
			opts.Index = ci
			res, err := NewSearcher(q.d, fuzzForest.WuPalmer, opts).QueryRated(q.start, q.seq())
			if err != nil {
				t.Fatalf("rated index=%v: %v", ci != nil, err)
			}
			got := renderRated(res.Routes)
			if err := agreeUpToRounding(got, want); err != nil {
				t.Fatalf("rated index=%v from %d via %v: %v\ngot:  %v\nwant: %v", ci != nil, q.start, q.cats, err, got, want)
			}
		}
	})
}
