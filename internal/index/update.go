package index

import (
	"math"
	"slices"

	"skysr/internal/dataset"
	"skysr/internal/graph"
	"skysr/internal/taxonomy"
)

// Dirty lists the changes of an update batch that Evolve must look at:
// shortened arcs and PoIs joining a category can lower row entries, which
// would break a carried row's lower-bound guarantee, and PoIs leaving a
// category leave its row loose. The engine derives it from the batch.
// Edits it leaves out (weight increases, edge removals, cleared profiles)
// only lengthen distances, and a rounded-down row stays a lower bound
// when distances grow.
type Dirty struct {
	// Shortened lists the arcs u→v (on undirected networks, the edges u–v)
	// whose lower-bound weight the batch lowered, each with its new
	// weight: decreased weights, profiles with a lower minimum, and added
	// edges.
	Shortened []graph.EdgeChange
	// PoIs lists the vertices whose category list the batch changed
	// (PoIs added, removed or recategorized). Evolve compares their
	// category associations before and after the batch.
	PoIs []graph.VertexID
}

// Evolve derives an index over the next version of the dataset from the
// receiver, with every resident row brought up to date before it returns,
// so no query ever rebuilds a row because of an update:
//
//   - a row that some PoI left (the PoI is no longer associated with its
//     category) is rebuilt from scratch over next. Carrying it would stay
//     admissible, but loose around the vacated PoI for good;
//   - a row that shortened arcs or joining PoIs may lower is repaired on a
//     copy by one decrease-only sweep (see repair);
//   - every other row is carried by pointer (rows are immutable).
//
// The rebuilds and repairs run as one build round on parallel workers
// (see sweepLocked), and the rows are published in category order. The
// receiver is left untouched for searchers still pinned to the old
// snapshot. The hop-minimum cache starts empty (its minima range over PoI
// sets that may have changed) and the budget is inherited. Stats of the
// result count the rows carried and the rows repaired or rebuilt.
//
// next must have the same vertex count and category forest as the dataset
// the receiver was built over; the engine guarantees this (live updates
// never grow the vertex set or alter the taxonomy).
func (ci *CategoryDistances) Evolve(next *dataset.Dataset, dirty Dirty) *CategoryDistances {
	out := New(next, ci.maxBytes.Load())
	left, joined := ci.membershipChanges(next, dirty.PoIs)

	out.buildMu.Lock()
	defer out.buildMu.Unlock()
	rows := make([]Row, len(ci.rows)) // by category: carried now, swept below
	var sweeps []sweep
	for c := range ci.rows {
		p := ci.rows[c].Load()
		if p == nil {
			continue
		}
		cat := taxonomy.CategoryID(c)
		if left[c] {
			sweeps = append(sweeps, sweep{cat: cat, sources: next.PoIsAssociated(cat)})
		} else if s := out.repair(cat, *p, dirty.Shortened, joined[c]); s.sources != nil {
			sweeps = append(sweeps, s)
		} else {
			rows[c] = *p
		}
	}
	for i, row := range out.sweepLocked(sweeps) {
		rows[sweeps[i].cat] = row
	}
	for c, row := range rows {
		if row != nil {
			out.publishLocked(taxonomy.CategoryID(c), row)
		}
	}
	out.carried.Store(out.built.Load() - int64(len(sweeps)))
	out.repaired.Store(int64(len(sweeps)))
	return out
}

// membershipChanges compares the categories each edited vertex is
// associated with (its own and their ancestors) on the receiver's dataset
// and on next. It returns, by category, whether some PoI left it and the
// PoIs that joined it. A category a recategorized PoI keeps is neither:
// its entry is already 0, and a seed there would flood the PoI's cell.
func (ci *CategoryDistances) membershipChanges(next *dataset.Dataset, pois []graph.VertexID) (left []bool, joined [][]graph.VertexID) {
	left = make([]bool, len(ci.rows))
	joined = make([][]graph.VertexID, len(ci.rows))
	for _, v := range pois {
		before, after := associations(ci.d, v), associations(next, v)
		for _, c := range before {
			if !slices.Contains(after, c) {
				left[c] = true
			}
		}
		for _, c := range after {
			if !slices.Contains(before, c) {
				joined[c] = append(joined[c], v)
			}
		}
	}
	return left, joined
}

// associations returns the categories v is associated with in d: each of
// its categories and their ancestors.
func associations(d *dataset.Dataset, v graph.VertexID) []taxonomy.CategoryID {
	var out []taxonomy.CategoryID
	for _, c := range d.Graph.Categories(v) {
		for _, a := range d.Forest.Ancestors(c) {
			if !slices.Contains(out, a) {
				out = append(out, a)
			}
		}
	}
	return out
}

// repair returns the sweep that lowers a copy of cat's row to a lower
// bound of the distances on the receiver's dataset, with no sources when
// no seed can lower an entry and row is still one. shortened lists the
// arcs the batch shortened, and joined the PoIs that joined the category.
//
// An arc u→v shortened to weight w seeds u at w + row[v], and an undirected
// edge also seeds v at w + row[u]; a joined PoI seeds itself at 0. A seed
// is dropped when it is +Inf or rounds down above its entry. The sweep
// (see run) stores RoundDown32(d) where that is lower than the entry. It
// expands a vertex whose rounded value is lower than or equal to its
// entry, and stops at one whose entry is lower by at least a full float32
// step. Expanding on equality is what keeps the result a lower bound: a
// vertex whose distance fell by less than a float32 step keeps its entry,
// yet vertices behind it may still have to fall. Stopping is safe because
// an entry a full step below the rounded candidate rounds down from a
// value below the candidate itself, and the row already bounds every
// vertex behind it from that value.
func (ci *CategoryDistances) repair(cat taxonomy.CategoryID, row Row, shortened []graph.EdgeChange, joined []graph.VertexID) sweep {
	s := sweep{cat: cat, from: row}
	seed := func(v graph.VertexID, d float64) {
		if !math.IsInf(d, 1) && RoundDown32(d) <= row[v] {
			s.sources = append(s.sources, v)
			s.dist = append(s.dist, d)
		}
	}
	undirected := !ci.d.Graph.Directed()
	for _, a := range shortened {
		seed(a.U, a.Weight+float64(row[a.V]))
		if undirected {
			seed(a.V, a.Weight+float64(row[a.U]))
		}
	}
	for _, p := range joined {
		seed(p, 0)
	}
	return s
}
