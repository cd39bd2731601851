package skysr

import (
	"fmt"

	"skysr/internal/core"
	"skysr/internal/dataset"
	"skysr/internal/graph"
	"skysr/internal/index"
	"skysr/internal/taxonomy"
)

// UpdateBatch collects dataset mutations to apply atomically with
// Engine.ApplyUpdates: edge-weight changes (congestion), edge additions
// and removals (new roads, closures), and PoI lifecycle events (a shop
// opens, closes, or changes category). The zero value is an empty batch;
// the mutating methods return the receiver so batches chain:
//
//	batch := new(skysr.UpdateBatch).
//		SetEdgeWeight(u, v, 9.5).
//		RemovePoI(closedShop)
//	res, err := eng.ApplyUpdates(batch)
//
// Vertices are named by id and categories by name. The vertex set itself
// is fixed — PoIs appear and disappear by converting existing vertices —
// and the taxonomy never changes; growing either means building a new
// dataset, not live-updating one.
//
// A batch is validated as a whole against the engine's current dataset
// before anything is applied, so a failed ApplyUpdates leaves the engine
// exactly as it was. Each edge and each vertex may appear in at most one
// edit per batch.
type UpdateBatch struct {
	setWeights  []graph.EdgeChange
	addEdges    []graph.EdgeChange
	removeEdges []graph.EdgeChange
	setProfiles []graph.ProfileChange
	poiOps      []poiOp
}

// poiOpKind distinguishes the PoI lifecycle edits.
type poiOpKind int

const (
	poiAdd poiOpKind = iota
	poiRemove
	poiRecategorize
)

type poiOp struct {
	kind       poiOpKind
	v          VertexID
	categories []string
}

// SetEdgeWeight changes the weight of the existing edge u–v (the arc u→v
// on directed networks). Increases carry every index row; a decrease
// shortens the arc, and ApplyUpdates repairs the rows it can lower (see
// UpdateResult.IndexInvalidated).
func (b *UpdateBatch) SetEdgeWeight(u, v VertexID, weight float64) *UpdateBatch {
	b.setWeights = append(b.setWeights, graph.EdgeChange{U: u, V: v, Weight: weight})
	return b
}

// AddEdge adds a new edge u–v (arc u→v on directed networks).
func (b *UpdateBatch) AddEdge(u, v VertexID, weight float64) *UpdateBatch {
	b.addEdges = append(b.addEdges, graph.EdgeChange{U: u, V: v, Weight: weight})
	return b
}

// RemoveEdge removes the existing edge u–v (arc u→v on directed networks);
// parallel edges between the endpoints are all removed.
func (b *UpdateBatch) RemoveEdge(u, v VertexID) *UpdateBatch {
	b.removeEdges = append(b.removeEdges, graph.EdgeChange{U: u, V: v})
	return b
}

// SetEdgeProfile attaches a time-dependent travel-time profile to the
// existing edge u–v (the arc u→v on directed networks): a periodic
// piecewise-linear FIFO function given as parallel breakpoint times (in
// [0, Engine.TimePeriod()), strictly ascending) and costs. The edge's
// static weight is superseded — its weight column becomes the profile
// minimum, the lower-bound cost every pruning structure reads. Profiles
// are validated when the batch is applied; invalid ones (non-FIFO,
// unsorted breakpoints, negative costs) reject the whole batch with an
// error wrapping graph.ErrBadProfile.
//
// Index repair follows the min-weight row carry rule: a profile whose
// minimum is at least the edge's previous lower-bound weight cannot
// shorten any lower-bound distance, so every resident row is carried;
// one that lowers the minimum shortens the arc to that minimum, and
// ApplyUpdates repairs the rows it can lower.
func (b *UpdateBatch) SetEdgeProfile(u, v VertexID, times, costs []float64) *UpdateBatch {
	b.setProfiles = append(b.setProfiles, graph.ProfileChange{
		U: u, V: v,
		Profile: graph.Profile{
			Times: append([]float64(nil), times...),
			Costs: append([]float64(nil), costs...),
		},
	})
	return b
}

// ClearEdgeProfile detaches the time-dependent profile of the existing
// edge u–v, turning it back into a static edge at its current
// lower-bound weight (use SetEdgeWeight to change it). Distances are
// unchanged, so every resident index row is carried.
func (b *UpdateBatch) ClearEdgeProfile(u, v VertexID) *UpdateBatch {
	b.setProfiles = append(b.setProfiles, graph.ProfileChange{U: u, V: v, Clear: true})
	return b
}

// AddPoI turns the existing road vertex v into a PoI carrying the named
// categories (at least one; the first becomes the primary category).
func (b *UpdateBatch) AddPoI(v VertexID, categories ...string) *UpdateBatch {
	b.poiOps = append(b.poiOps, poiOp{kind: poiAdd, v: v, categories: categories})
	return b
}

// RemovePoI turns the PoI vertex v back into a plain road vertex.
func (b *UpdateBatch) RemovePoI(v VertexID) *UpdateBatch {
	b.poiOps = append(b.poiOps, poiOp{kind: poiRemove, v: v})
	return b
}

// Recategorize replaces the category list of the PoI vertex v (at least
// one category; the first becomes the primary category).
func (b *UpdateBatch) Recategorize(v VertexID, categories ...string) *UpdateBatch {
	b.poiOps = append(b.poiOps, poiOp{kind: poiRecategorize, v: v, categories: categories})
	return b
}

// Len returns the number of edits in the batch.
func (b *UpdateBatch) Len() int {
	return len(b.setWeights) + len(b.addEdges) + len(b.removeEdges) +
		len(b.setProfiles) + len(b.poiOps)
}

// UpdateResult reports what one ApplyUpdates batch did.
type UpdateResult struct {
	// Epoch is the dataset version the batch produced; queries started
	// after ApplyUpdates returned see this version.
	Epoch int64
	// Edit counts, echoing the applied batch.
	WeightsChanged, EdgesAdded, EdgesRemoved  int
	ProfilesSet, ProfilesCleared              int
	PoIsAdded, PoIsRemoved, PoIsRecategorized int
	// GraphRebuilt reports that the batch changed the arc structure, so the
	// adjacency arrays were rebuilt; weight- and category-only batches
	// share them copy-on-write instead.
	GraphRebuilt bool
	// IndexInvalidated reports that the batch shortened an arc's
	// lower-bound weight (a decreased weight, a profile with a lower
	// minimum, or an added edge), so any category-index row may have had
	// entries to lower. Such rows are repaired before the new epoch is
	// published, never dropped.
	IndexInvalidated bool
	// RowsCarried counts resident index rows carried unchanged into the new
	// epoch; RowsDirtied counts the resident rows ApplyUpdates repaired
	// (the batch could lower an entry) or rebuilt (a PoI left the row's
	// category) before publishing it. Together they are every resident
	// row: an update never drops one.
	RowsCarried, RowsDirtied int
}

// compile validates the batch against ds and lowers it to graph edits plus
// the changes index rows must be repaired for: the arcs whose lower-bound
// weight drops and the vertices whose categories change.
func (b *UpdateBatch) compile(ds *dataset.Dataset) (graph.Edits, index.Dirty, *UpdateResult, error) {
	var edits graph.Edits
	var dirty index.Dirty
	res := &UpdateResult{
		WeightsChanged: len(b.setWeights),
		EdgesAdded:     len(b.addEdges),
		EdgesRemoved:   len(b.removeEdges),
	}
	g, f := ds.Graph, ds.Forest

	edits.SetWeights = b.setWeights
	edits.AddEdges = b.addEdges
	edits.RemoveEdges = b.removeEdges
	edits.SetProfiles = b.setProfiles

	// A decreased weight or a new edge shortens an arc, which can shorten
	// paths through it. Increases and removals only grow distances, which
	// rounded-down rows tolerate by construction.
	dirty.Shortened = append(dirty.Shortened, b.addEdges...)
	for _, c := range b.setWeights {
		old, ok := g.EdgeWeight(c.U, c.V)
		if !ok {
			return edits, dirty, nil, fmt.Errorf("skysr: weight edit names missing edge (%d,%d)", c.U, c.V)
		}
		if c.Weight < old {
			dirty.Shortened = append(dirty.Shortened, c)
		}
	}
	// The min-weight row carry rule for profile edits: the edge's
	// lower-bound weight becomes the profile minimum, so the arc shortens
	// iff the minimum drops. Clearing keeps the lower-bound weight, so
	// distances cannot shrink either way.
	for _, c := range b.setProfiles {
		old, ok := g.EdgeWeight(c.U, c.V)
		if !ok {
			return edits, dirty, nil, fmt.Errorf("skysr: profile edit names missing edge (%d,%d)", c.U, c.V)
		}
		if c.Clear {
			res.ProfilesCleared++
			continue
		}
		if err := c.Profile.Validate(g.TimePeriod()); err != nil {
			return edits, dirty, nil, fmt.Errorf("skysr: profile edit (%d,%d): %w", c.U, c.V, err)
		}
		res.ProfilesSet++
		if m := c.Profile.Min(); m < old {
			dirty.Shortened = append(dirty.Shortened, graph.EdgeChange{U: c.U, V: c.V, Weight: m})
		}
	}

	lookupAll := func(names []string) ([]taxonomy.CategoryID, error) {
		out := make([]taxonomy.CategoryID, len(names))
		for i, name := range names {
			c, ok := f.Lookup(name)
			if !ok {
				return nil, fmt.Errorf("skysr: unknown category %.64q", name)
			}
			out[i] = c
		}
		return out, nil
	}

	for _, op := range b.poiOps {
		if op.v < 0 || int(op.v) >= g.NumVertices() {
			return edits, dirty, nil, fmt.Errorf("skysr: PoI edit names unknown vertex %d", op.v)
		}
		switch op.kind {
		case poiAdd:
			if g.IsPoI(op.v) {
				return edits, dirty, nil, fmt.Errorf("skysr: AddPoI: vertex %d is already a PoI (use Recategorize)", op.v)
			}
			if len(op.categories) == 0 {
				return edits, dirty, nil, fmt.Errorf("skysr: AddPoI: vertex %d needs at least one category", op.v)
			}
			cats, err := lookupAll(op.categories)
			if err != nil {
				return edits, dirty, nil, err
			}
			edits.SetCategories = append(edits.SetCategories, graph.CategoryChange{V: op.v, Categories: cats})
			res.PoIsAdded++
		case poiRemove:
			if !g.IsPoI(op.v) {
				return edits, dirty, nil, fmt.Errorf("skysr: RemovePoI: vertex %d is not a PoI", op.v)
			}
			edits.SetCategories = append(edits.SetCategories, graph.CategoryChange{V: op.v})
			res.PoIsRemoved++
		case poiRecategorize:
			if !g.IsPoI(op.v) {
				return edits, dirty, nil, fmt.Errorf("skysr: Recategorize: vertex %d is not a PoI", op.v)
			}
			if len(op.categories) == 0 {
				return edits, dirty, nil, fmt.Errorf("skysr: Recategorize: vertex %d needs at least one category", op.v)
			}
			cats, err := lookupAll(op.categories)
			if err != nil {
				return edits, dirty, nil, err
			}
			edits.SetCategories = append(edits.SetCategories, graph.CategoryChange{V: op.v, Categories: cats})
			res.PoIsRecategorized++
		}
	}
	for _, c := range edits.SetCategories {
		dirty.PoIs = append(dirty.PoIs, c.V)
	}
	res.GraphRebuilt = edits.Structural()
	res.IndexInvalidated = len(dirty.Shortened) > 0
	return edits, dirty, res, nil
}

// ApplyUpdates applies the batch atomically and publishes the result as a
// new dataset epoch. The mutation is copy-on-write: queries in flight keep
// the snapshot they started on (Search and SearchBatch pin it), queries
// started after ApplyUpdates returns see the new epoch, and a superseded
// snapshot is released when its last searcher checks in.
//
// Every resident row of the category-level distance index is brought up to
// date before the new epoch is published, so no query rebuilds a row
// because of an update: rows the batch cannot lower are carried into the
// new epoch, rows that shortened arcs or joining PoIs can lower are
// repaired by one decrease-only sweep, and rows a PoI left are rebuilt
// (see UpdateResult). The new epoch starts on empty cross-query
// m-Dijkstra caches, which keep counting into the old caches' hit, miss
// and flush counters.
//
// Updates serialize with each other but never block searches. A validation
// error leaves the engine untouched. An empty batch is a no-op that keeps
// the current epoch.
func (e *Engine) ApplyUpdates(b *UpdateBatch) (*UpdateResult, error) {
	e.updateMu.Lock()
	defer e.updateMu.Unlock()

	sn := e.cur.Load()
	if b == nil || b.Len() == 0 {
		return &UpdateResult{Epoch: sn.epoch}, nil
	}
	edits, dirty, res, err := b.compile(sn.ds)
	if err != nil {
		return nil, err
	}
	ds, err := sn.ds.Apply(edits)
	if err != nil {
		return nil, err
	}

	var shared [2]*core.SharedCache
	for i, c := range sn.shared {
		shared[i] = c.Next()
	}
	next := e.newSnapshot(sn.epoch+1, ds, shared)
	sn.idxMu.Lock()
	oldIdx := sn.idx
	sn.idxMu.Unlock()
	if oldIdx != nil {
		evolved := oldIdx.Evolve(ds, dirty)
		st := evolved.Stats()
		res.RowsCarried = st.RowsCarried
		res.RowsDirtied = int(st.RowsRepaired)
		next.idx = evolved
	}
	res.Epoch = next.epoch

	e.cur.Store(next)
	sn.release() // drop the superseded snapshot's "current" reference
	return res, nil
}
