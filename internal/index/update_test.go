package index

import (
	"math/rand"
	"testing"

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
	if st.Epoch != 1 {
		t.Fatalf("epoch = %d, want 1", st.Epoch)
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

// TestEvolveRepairsDirtyRows: dirtied rows are dropped, rebuilt lazily on
// the next Row call against the new dataset, bit-identical to a fresh
// build, and counted as repairs.
func TestEvolveRepairsDirtyRows(t *testing.T) {
	rng := rand.New(rand.NewSource(82))
	f := taxonomy.Generated(3, 2, 2)
	d := randomDataset(rng, f, 30, 15, true)
	ci := New(d, 0)
	ci.EnsureRoots()

	// Recategorize one PoI: its old and new ancestor rows dirty.
	p := d.Graph.PoIVertices()[0]
	oldCat := d.Graph.PrimaryCategory(p)
	newCat := f.Leaves()[0]
	if newCat == oldCat {
		newCat = f.Leaves()[1]
	}
	d2, err := d.Apply(graph.Edits{SetCategories: []graph.CategoryChange{{V: p, Categories: []taxonomy.CategoryID{newCat}}}})
	if err != nil {
		t.Fatal(err)
	}
	dirty := Dirty{Cats: append(f.Ancestors(oldCat), f.Ancestors(newCat)...)}
	ev := ci.Evolve(d2, dirty)

	dirtySet := map[taxonomy.CategoryID]bool{}
	for _, c := range dirty.Cats {
		dirtySet[c] = true
	}
	wantPending := 0
	for c := taxonomy.CategoryID(0); int(c) < f.NumCategories(); c++ {
		if ci.RowIfBuilt(c) != nil && dirtySet[c] {
			if ev.RowIfBuilt(c) != nil {
				t.Fatalf("dirty cat %d carried over", c)
			}
			wantPending++
		}
	}
	if wantPending == 0 {
		t.Fatal("scenario produced no dirty resident rows")
	}
	if got := ev.PendingRepairs(); got != wantPending {
		t.Fatalf("PendingRepairs = %d, want %d", got, wantPending)
	}

	fresh := New(d2, 0)
	for c := range dirtySet {
		rebuilt := ev.Row(c)
		want := fresh.Row(c)
		for v := range rebuilt {
			same := rebuilt[v] == want[v] || (rebuilt[v] != rebuilt[v] && want[v] != want[v])
			if !same {
				t.Fatalf("cat %d vertex %d: repaired %v != fresh %v", c, v, rebuilt[v], want[v])
			}
		}
	}
	if got := ev.Stats().RowsRepaired; int(got) != wantPending {
		t.Fatalf("RowsRepaired = %d, want %d", got, wantPending)
	}
	if ev.PendingRepairs() != 0 {
		t.Fatalf("PendingRepairs = %d after repairs, want 0", ev.PendingRepairs())
	}
}

// TestEvolveAllDropsEverything: Dirty{All: true} (a decreased edge weight)
// carries nothing.
func TestEvolveAllDropsEverything(t *testing.T) {
	rng := rand.New(rand.NewSource(83))
	f := taxonomy.Generated(2, 2, 2)
	d := randomDataset(rng, f, 20, 10, false)
	ci := rootIndex(d)
	ts, ws := d.Graph.Neighbors(1)
	d2, err := d.Apply(graph.Edits{SetWeights: []graph.EdgeChange{{U: 1, V: ts[0], Weight: ws[0] / 2}}})
	if err != nil {
		t.Fatal(err)
	}
	ev := ci.Evolve(d2, Dirty{All: true})
	if st := ev.Stats(); st.RowsCarried != 0 || st.RowsBuilt != 0 {
		t.Fatalf("carried %d / built %d, want 0 / 0", st.RowsCarried, st.RowsBuilt)
	}
	if ev.PendingRepairs() != ci.NumBuiltRows() {
		t.Fatalf("PendingRepairs = %d, want %d", ev.PendingRepairs(), ci.NumBuiltRows())
	}
}
