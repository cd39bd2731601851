package index

import (
	"math"
	"math/rand"
	"testing"

	"skysr/internal/dataset"
	"skysr/internal/geo"
	"skysr/internal/graph"
	"skysr/internal/taxonomy"
)

// TestEvolveCarriesCleanRows: after a weight increase (no rows dirtied),
// every resident row is carried over by pointer, and a from-scratch index
// over the new dataset yields rows that are still lower-bounded by the
// carried ones.
func TestEvolveCarriesCleanRows(t *testing.T) {
	rng := rand.New(rand.NewSource(81))
	f := taxonomy.Generated(3, 2, 2)
	d := randomDataset(rng, f, 30, 15, false)
	ci := New(d, 0)
	ci.EnsureRoots()
	ci.Prewarm(f.Leaves()[0])
	resident := ci.NumBuiltRows()

	// Raise one edge weight: distances can only grow, so nothing dirties.
	u := graph.VertexID(3)
	ts, ws := d.Graph.Neighbors(u)
	d2, err := d.Apply(graph.Edits{SetWeights: []graph.EdgeChange{{U: u, V: ts[0], Weight: ws[0] + 50}}})
	if err != nil {
		t.Fatal(err)
	}
	ev := ci.Evolve(d2, Dirty{})
	st := ev.Stats()
	if st.RowsCarried != resident || st.RowsBuilt != resident {
		t.Fatalf("carried %d / built %d rows, want %d", st.RowsCarried, st.RowsBuilt, resident)
	}
	fresh := New(d2, 0)
	for c := taxonomy.CategoryID(0); int(c) < f.NumCategories(); c++ {
		old := ev.RowIfBuilt(c)
		if old == nil {
			continue
		}
		now := fresh.Row(c)
		for v := range old {
			// Carried values must stay lower bounds of the new distances.
			if old[v] > now[v] {
				t.Fatalf("cat %d vertex %d: carried %v exceeds fresh %v", c, v, old[v], now[v])
			}
		}
	}
}

// TestEvolveRepairsDirtyRows: a recategorized PoI leaves its old ancestor
// rows, which Evolve rebuilds bit-identical to a fresh build, and joins
// its new ancestor rows, which Evolve repairs to lower bounds of a fresh
// build. No resident row is dropped, every one is either carried or
// repaired, and no later Row call builds anything.
func TestEvolveRepairsDirtyRows(t *testing.T) {
	rng := rand.New(rand.NewSource(82))
	f := taxonomy.Generated(3, 2, 2)
	d := randomDataset(rng, f, 30, 15, true)
	ci := New(d, 0)
	ci.EnsureRoots()
	resident := ci.NumBuiltRows()

	// Recategorize one PoI into another tree: its old root row loses it,
	// its new root row gains it.
	p := d.Graph.PoIVertices()[0]
	oldCat := d.Graph.PrimaryCategory(p)
	var newCat taxonomy.CategoryID
	for _, c := range f.Leaves() {
		if !f.SameTree(c, oldCat) {
			newCat = c
			break
		}
	}
	d2, err := d.Apply(graph.Edits{SetCategories: []graph.CategoryChange{{V: p, Categories: []taxonomy.CategoryID{newCat}}}})
	if err != nil {
		t.Fatal(err)
	}
	ev := ci.Evolve(d2, Dirty{PoIs: []graph.VertexID{p}})

	st := ev.Stats()
	if st.RowsBuilt != resident {
		t.Fatalf("%d rows resident after Evolve, want all %d", st.RowsBuilt, resident)
	}
	if st.RowsCarried+int(st.RowsRepaired) != resident || st.RowsRepaired != 2 {
		t.Fatalf("carried %d + repaired %d, want %d with 2 repaired (the old and new roots)",
			st.RowsCarried, st.RowsRepaired, resident)
	}

	fresh := New(d2, 0)
	oldRoot, newRoot := f.Root(oldCat), f.Root(newCat)
	for c := taxonomy.CategoryID(0); int(c) < f.NumCategories(); c++ {
		got := ev.RowIfBuilt(c)
		if got == nil {
			continue
		}
		want := fresh.Row(c)
		for v := range got {
			if c == oldRoot && got[v] != want[v] {
				t.Fatalf("left cat %d vertex %d: rebuilt %v != fresh %v", c, v, got[v], want[v])
			}
			if got[v] > want[v] {
				t.Fatalf("cat %d vertex %d: evolved %v exceeds fresh %v", c, v, got[v], want[v])
			}
		}
		if c == newRoot && got[p] != 0 {
			t.Fatalf("joined cat %d: entry at its new PoI is %v, want 0", c, got[p])
		}
	}

	for _, c := range f.Roots() {
		ev.Row(c)
	}
	if after := ev.Stats(); after.RowsBuilt != resident || after.RowsRepaired != st.RowsRepaired {
		t.Fatalf("Row calls after Evolve built rows: %+v, want %+v", after, st)
	}
}

// TestEvolveAllDropsEverything: a decreased edge weight, which can lower
// entries of any row, drops none: rows the shortened arc can lower are
// repaired to lower bounds of a fresh build, the rest are carried, and no
// later Row call builds anything.
func TestEvolveAllDropsEverything(t *testing.T) {
	rng := rand.New(rand.NewSource(83))
	f := taxonomy.Generated(2, 2, 2)
	d := randomDataset(rng, f, 20, 10, false)
	ci := rootIndex(d)
	resident := ci.NumBuiltRows()
	ts, ws := d.Graph.Neighbors(1)
	dec := graph.EdgeChange{U: 1, V: ts[0], Weight: ws[0] / 2}
	d2, err := d.Apply(graph.Edits{SetWeights: []graph.EdgeChange{dec}})
	if err != nil {
		t.Fatal(err)
	}
	ev := ci.Evolve(d2, Dirty{Shortened: []graph.EdgeChange{dec}})
	st := ev.Stats()
	if st.RowsBuilt != resident || st.RowsCarried+int(st.RowsRepaired) != resident {
		t.Fatalf("built %d, carried %d + repaired %d, want %d resident and accounted for",
			st.RowsBuilt, st.RowsCarried, st.RowsRepaired, resident)
	}
	if st.RowsRepaired == 0 {
		t.Fatal("halving an edge repaired no row")
	}
	fresh := New(d2, 0)
	for _, c := range f.Roots() {
		got, want := ev.RowIfBuilt(c), fresh.Row(c)
		for v := range got {
			if got[v] > want[v] {
				t.Fatalf("cat %d vertex %d: repaired %v exceeds fresh %v", c, v, got[v], want[v])
			}
		}
		ev.Row(c)
	}
	if after := ev.Stats(); after.RowsBuilt != resident {
		t.Fatalf("Row calls after Evolve built rows: %d resident, want %d", after.RowsBuilt, resident)
	}
}

// TestEvolveRepairProperty evolves one index through consecutive random
// update batches on directed and undirected float-weight networks. Each
// batch lowers and raises weights (×0.3–1.7), adds an edge, adds a PoI,
// removes one and recategorizes one. After every Evolve each resident row
// must be a lower bound of a from-scratch row at every vertex (and finite
// wherever that row is), no resident row may be lost, and the receiver's
// rows must be bit-identical to what they were before the call.
func TestEvolveRepairProperty(t *testing.T) {
	const trials, batches = 300, 6
	rng := rand.New(rand.NewSource(84))
	f := taxonomy.Generated(3, 2, 2)
	checks := 0
	for trial := 0; trial < trials; trial++ {
		directed := trial%2 == 1
		d := randomDataset(rng, f, 50, 18, directed)
		ci := New(d, 0)
		for c := taxonomy.CategoryID(0); int(c) < f.NumCategories(); c++ {
			if rng.Intn(4) > 0 {
				ci.Row(c)
			}
		}
		for b := 0; b < batches; b++ {
			edits, dirty := randomBatch(rng, d)
			d2, err := d.Apply(edits)
			if err != nil {
				t.Fatalf("trial %d batch %d: %v", trial, b, err)
			}
			before := snapshotRows(ci)
			ev := ci.Evolve(d2, dirty)

			for c, want := range before {
				got := ci.RowIfBuilt(taxonomy.CategoryID(c))
				for v := range want {
					if math.Float32bits(got[v]) != math.Float32bits(want[v]) {
						t.Fatalf("trial %d batch %d: Evolve wrote the receiver's row %d at vertex %d (%v → %v)",
							trial, b, c, v, want[v], got[v])
					}
				}
			}
			st := ev.Stats()
			if st.RowsBuilt != len(before) || st.RowsCarried+int(st.RowsRepaired) != len(before) {
				t.Fatalf("trial %d batch %d: %d rows resident, carried %d + repaired %d, want %d",
					trial, b, st.RowsBuilt, st.RowsCarried, st.RowsRepaired, len(before))
			}
			fresh := New(d2, 0)
			for c := range before {
				got, want := ev.RowIfBuilt(taxonomy.CategoryID(c)), fresh.Row(taxonomy.CategoryID(c))
				for v := range want {
					if math.IsInf(float64(got[v]), 1) && !math.IsInf(float64(want[v]), 1) {
						t.Fatalf("trial %d batch %d (directed=%v): cat %d vertex %d is +Inf, fresh %v",
							trial, b, directed, c, v, want[v])
					}
					if got[v] > want[v] {
						t.Fatalf("trial %d batch %d (directed=%v): cat %d vertex %d: evolved %v exceeds fresh %v",
							trial, b, directed, c, v, got[v], want[v])
					}
					checks++
				}
			}
			ci, d = ev, d2
		}
	}
	t.Logf("%d entry checks", checks)
}

// snapshotRows copies every resident row, keyed by category.
func snapshotRows(ci *CategoryDistances) map[int]Row {
	out := map[int]Row{}
	for c := 0; c < ci.NumCategories(); c++ {
		if r := ci.RowIfBuilt(taxonomy.CategoryID(c)); r != nil {
			out[c] = append(Row(nil), r...)
		}
	}
	return out
}

// randomBatch draws one update batch over d — three weight edits of
// ×0.3–1.7, an added edge, a PoI added, one removed and one recategorized,
// no vertex in two edits — and the Dirty the engine would derive for it.
func randomBatch(rng *rand.Rand, d *dataset.Dataset) (graph.Edits, Dirty) {
	g := d.Graph
	n := g.NumVertices()
	leaves := d.Forest.Leaves()
	var edits graph.Edits
	var dirty Dirty
	touched := map[graph.VertexID]bool{}
	free := func(v graph.VertexID) bool { return !touched[v] }

	for picked, tries := 0, 0; picked < 3 && tries < 100; tries++ {
		u := graph.VertexID(rng.Intn(n))
		ts, ws := g.Neighbors(u)
		if len(ts) == 0 {
			continue
		}
		i := rng.Intn(len(ts))
		if !free(u) || !free(ts[i]) {
			continue
		}
		touched[u], touched[ts[i]] = true, true
		old, _ := g.EdgeWeight(u, ts[i])
		e := graph.EdgeChange{U: u, V: ts[i], Weight: ws[i] * (0.3 + 1.4*rng.Float64())}
		edits.SetWeights = append(edits.SetWeights, e)
		if e.Weight < old {
			dirty.Shortened = append(dirty.Shortened, e)
		}
		picked++
	}
	for tries := 0; tries < 100; tries++ {
		u, v := graph.VertexID(rng.Intn(n)), graph.VertexID(rng.Intn(n))
		if u == v || !free(u) || !free(v) {
			continue
		}
		touched[u], touched[v] = true, true
		e := graph.EdgeChange{U: u, V: v, Weight: 0.5 + 4*rng.Float64()}
		edits.AddEdges = append(edits.AddEdges, e)
		dirty.Shortened = append(dirty.Shortened, e)
		break
	}

	pick := func(wantPoI bool) (graph.VertexID, bool) {
		for tries := 0; tries < 100; tries++ {
			v := graph.VertexID(rng.Intn(n))
			if free(v) && g.IsPoI(v) == wantPoI {
				touched[v] = true
				return v, true
			}
		}
		return 0, false
	}
	setCats := func(v graph.VertexID, cats ...taxonomy.CategoryID) {
		edits.SetCategories = append(edits.SetCategories, graph.CategoryChange{V: v, Categories: cats})
		dirty.PoIs = append(dirty.PoIs, v)
	}
	if v, ok := pick(false); ok {
		setCats(v, leaves[rng.Intn(len(leaves))])
	}
	if v, ok := pick(true); ok {
		setCats(v)
	}
	if v, ok := pick(true); ok {
		setCats(v, leaves[rng.Intn(len(leaves))])
	}
	return edits, dirty
}

// TestEvolveRepairExpandsOnTies is the hand-built case a random property
// test does not find: a vertex whose distance falls by less than one
// float32 step keeps its stored entry, yet the repair must expand through
// it, because a vertex behind it falls across a float32 boundary.
//
// Undirected path y —(1 − 2⁻²⁹)— x —(1 + 3·2⁻³⁰)— p, p the only PoI.
// Lowering x–p to 1 + 2⁻³⁰ leaves x's entry at 1.0 but moves y's exact
// distance from 2 + 2⁻³⁰ to 2 − 2⁻³⁰, whose round-down is the float32 just
// below 2. A sweep that stops at x leaves 2.0 there, above the fresh row.
func TestEvolveRepairExpandsOnTies(t *testing.T) {
	f := taxonomy.Generated(1, 1, 1)
	cat := f.Roots()[0]
	b := graph.NewBuilder(false)
	y := b.AddVertex(geo.Point{})
	x := b.AddVertex(geo.Point{Lon: 1})
	p := b.AddPoI(geo.Point{Lon: 2}, cat)
	b.AddEdge(y, x, 1-math.Ldexp(1, -29))
	b.AddEdge(x, p, 1+3*math.Ldexp(1, -30))
	d := dataset.MustNew("ties", b.Build(), f)
	ci := New(d, 0)
	if r := ci.Row(cat); r[x] != 1 || r[y] != 2 {
		t.Fatalf("setup: row[x]=%v row[y]=%v, want 1 and 2", r[x], r[y])
	}

	dec := graph.EdgeChange{U: x, V: p, Weight: 1 + math.Ldexp(1, -30)}
	d2, err := d.Apply(graph.Edits{SetWeights: []graph.EdgeChange{dec}})
	if err != nil {
		t.Fatal(err)
	}
	got := ci.Evolve(d2, Dirty{Shortened: []graph.EdgeChange{dec}}).RowIfBuilt(cat)
	want := New(d2, 0).Row(cat)
	if below2 := math.Nextafter32(2, 0); want[y] != below2 {
		t.Fatalf("setup: fresh row[y] = %v, want %v", want[y], below2)
	}
	for v := range want {
		if got[v] > want[v] {
			t.Fatalf("vertex %d: repaired %v exceeds fresh %v", v, got[v], want[v])
		}
	}
}
