package core

import (
	"math"
	"time"

	"skysr/internal/dijkstra"
	"skysr/internal/graph"
	"skysr/internal/route"
	"skysr/internal/taxonomy"
)

// bounds holds the possible-minimum-distance lower bounds of §5.3.3.
//
// Hop h (0-based, h in [0, k-2]) connects the PoI of position h to the PoI
// of position h+1. ls[h] is the semantic-match minimum distance of that
// hop (Definition 5.7, Eq. 4): the smallest network distance from any
// semantically matching PoI of position h to any semantically matching PoI
// of position h+1. lp[h] is the perfect-match minimum distance (Eq. 5):
// destination restricted to perfectly matching PoIs.
//
// Two computations produce the same structure. The classic path (Algorithm
// 4) restricts all PoI sets to the vertices within distance l̄(∅) of the
// start (lines 3–4) and runs one multi-source Dijkstra per hop; every
// route that could still enter S keeps all its PoIs within that radius, so
// the restriction preserves exactness while tightening the bounds. The
// index path (computeBoundsFromIndex) instead reads the category-level
// distance index: its values are unrestricted minima over the whole
// dataset — lower bounds of the classic values — so pruning stays exact
// while the computation does no graph traversal at all.
type bounds struct {
	k            int
	lsSuffix     []float64 // lsSuffix[h] = Σ_{j≥h} ls[j]
	lpSuffix     []float64 // lpSuffix[h] = Σ_{j≥h} lp[j]
	maxImpSuffix []float64 // maxImpSuffix[m] = max achievable sim < 1 over positions ≥ m
	// fromIndex marks index-derived bounds. Only those tighten the
	// modified-Dijkstra radii in nextPoIs: the cut is exactness-preserving
	// either way, but keeping it off the classic path leaves the paper's
	// Algorithm 1 trace (Table 4) byte-for-byte reproducible.
	fromIndex bool
}

// boundsScratch holds the epoch-stamped per-vertex state of the classic
// §5.3.3 computation, owned by the pooled Searcher so computeBounds
// allocates no graph-sized structures per query. Resetting is O(1): the
// epoch advances, and stale entries are recognized by their stamp.
type boundsScratch struct {
	epoch     uint32                    // current generation, advanced by scratch()
	reach     []uint32                  // reach[v] == epoch → v within l̄(∅) of the start
	perfStamp []uint32                  // perfStamp[v] == epoch → perfMask[v] is current
	perfMask  []uint64                  // bit i set → v perfectly matches position i (i < 64)
	sem       [][]graph.VertexID        // per-position semantic candidate sets, storage reused
	overflow  []map[graph.VertexID]bool // perfect sets for positions ≥ 64 (practically unused)
}

// scratch returns the searcher's bounds scratch, advanced to a fresh epoch.
func (s *Searcher) scratch() *boundsScratch {
	if s.scr == nil {
		n := s.d.Graph.NumVertices()
		s.scr = &boundsScratch{
			reach:     make([]uint32, n),
			perfStamp: make([]uint32, n),
			perfMask:  make([]uint64, n),
		}
	}
	scr := s.scr
	scr.epoch++
	if scr.epoch == 0 {
		// The epoch wrapped: stamps written 2^32 queries ago could collide
		// with the new one. Pooled searchers live for the process, so a
		// long-running server does reach this.
		clear(scr.reach)
		clear(scr.perfStamp)
		scr.epoch = 1
	}
	scr.overflow = nil
	return scr
}

// markPerfect records that v perfectly matches position pos this epoch.
func (scr *boundsScratch) markPerfect(v graph.VertexID, pos int) {
	if pos < 64 {
		if scr.perfStamp[v] != scr.epoch {
			scr.perfStamp[v] = scr.epoch
			scr.perfMask[v] = 0
		}
		scr.perfMask[v] |= 1 << uint(pos)
		return
	}
	for len(scr.overflow) <= pos-64 {
		scr.overflow = append(scr.overflow, nil)
	}
	if scr.overflow[pos-64] == nil {
		scr.overflow[pos-64] = make(map[graph.VertexID]bool)
	}
	scr.overflow[pos-64][v] = true
}

// isPerfect reports whether v was marked perfect for pos this epoch.
func (scr *boundsScratch) isPerfect(v graph.VertexID, pos int) bool {
	if pos < 64 {
		return scr.perfStamp[v] == scr.epoch && scr.perfMask[v]&(1<<uint(pos)) != 0
	}
	return pos-64 < len(scr.overflow) && scr.overflow[pos-64] != nil && scr.overflow[pos-64][v]
}

// computeBounds runs Algorithm 4 plus the δ precomputation of Lemma 5.8,
// restricting the PoI sets to the vertices within radius of the start
// (+Inf for none), or — when the category index covers every position —
// derives the same structure from index lookups without any per-query
// Dijkstra.
func (s *Searcher) computeBounds(start graph.VertexID, radius float64) {
	began := time.Now()
	defer func() { s.stats.BoundsTime += time.Since(began) }()

	k := len(s.seq)
	if k < 2 {
		return // no intermediate hops to bound
	}
	if s.idxRows.covered {
		s.computeBoundsFromIndex()
		return
	}
	g := s.d.Graph
	scr := s.scratch()

	// Reachability snapshot: vertices within the l̄(∅) radius of the start,
	// marked in the epoch-stamped scratch array.
	reachAll := math.IsInf(radius, 1)
	if !reachAll {
		s.stats.SettledVertices += int64(s.ws.Run(dijkstra.Options{
			Sources: []graph.VertexID{start},
			Bound:   radius,
			Halt:    s.cc.halt(),
			OnSettle: func(v graph.VertexID, d float64) dijkstra.Control {
				scr.reach[v] = scr.epoch
				return dijkstra.Continue
			},
		}))
	}
	inReach := func(v graph.VertexID) bool { return reachAll || scr.reach[v] == scr.epoch }

	// Per-position candidate sets within reach, and the largest imperfect
	// similarity actually achievable (for δ; dataset-restricted so the
	// Lemma 5.8 increment is never overestimated).
	for len(scr.sem) < k {
		scr.sem = append(scr.sem, nil)
	}
	semSets := scr.sem[:k]
	for i := range semSets {
		semSets[i] = semSets[i][:0]
	}
	maxImp := make([]float64, k)
	for i, m := range s.seq {
		for _, p := range g.PoIVertices() {
			if !inReach(p) {
				continue
			}
			cats := g.Categories(p)
			sim := m.Sim(cats)
			if sim <= 0 {
				continue
			}
			semSets[i] = append(semSets[i], p)
			if m.Perfect(cats) {
				scr.markPerfect(p, i)
			} else if sim > maxImp[i] {
				maxImp[i] = sim
			}
		}
	}

	ls := make([]float64, k-1)
	lp := make([]float64, k-1)
	for h := 0; h < k-1; h++ {
		ls[h] = s.hopMinDistance(semSets[h], func(v graph.VertexID) bool {
			return s.isSemMember(h+1, v)
		}, radius)
		lp[h] = s.hopMinDistance(semSets[h], func(v graph.VertexID) bool {
			return scr.isPerfect(v, h+1)
		}, radius)
	}
	s.setBounds(ls, lp, maxImp)
}

// computeBoundsFromIndex derives the §5.3.3 structure from the category
// index: each hop minimum is a cached min-over-PoIs of row lookups
// (Eq. 4 with the tree row, Eq. 5 with the category's own row — the
// latter covers a superset of the perfect matches, so the value is a
// valid, possibly looser, lower bound), and δ's maximum imperfect
// similarity comes from a category-level scan. No graph is traversed.
func (s *Searcher) computeBoundsFromIndex() {
	k := len(s.seq)
	ci := s.opts.Index
	ir := &s.idxRows
	ls := make([]float64, k-1)
	lp := make([]float64, k-1)
	for h := 0; h < k-1; h++ {
		if v, ok := ci.MinOverAssociated(ir.roots[h], ir.roots[h+1]); ok {
			ls[h] = v
		}
		if v, ok := ci.MinOverAssociated(ir.roots[h], ir.cats[h+1]); ok {
			lp[h] = v
		}
	}
	maxImp := make([]float64, k)
	for i := range s.seq {
		maxImp[i] = s.categoryMaxImp(i)
	}
	s.setBounds(ls, lp, maxImp)
	s.bounds.fromIndex = true
}

// categoryMaxImp upper-bounds the largest imperfect similarity achievable
// at position pos by scanning the categories of the position's tree that
// have at least one exactly-matching PoI. Overestimating the classic
// (reach-restricted) maximum only shrinks the Lemma 5.8 increment δ, so
// pruning stays exact.
func (s *Searcher) categoryMaxImp(pos int) float64 {
	m := s.seq[pos]
	cat := s.idxRows.cats[pos]
	one := make([]taxonomy.CategoryID, 1)
	best := 0.0
	for _, c := range s.d.Forest.Subtree(s.idxRows.roots[pos]) {
		if c == cat || len(s.d.PoIsExact(c)) == 0 {
			continue
		}
		one[0] = c
		if sim := m.Sim(one); sim > best && sim < 1 {
			best = sim
		}
	}
	return best
}

// setBounds assembles the suffix structure and records the Figure 4 stats.
func (s *Searcher) setBounds(ls, lp, maxImp []float64) {
	b := &bounds{
		k:            len(s.seq),
		lsSuffix:     suffixSums(ls),
		lpSuffix:     suffixSums(lp),
		maxImpSuffix: suffixMax(maxImp),
	}
	s.bounds = b
	s.stats.SemanticBound = b.lsSuffix[0]
	s.stats.PerfectBound = b.lpSuffix[0]
}

// isSemMember tests semantic membership directly against the matcher; the
// destination side of a hop needs no reach restriction beyond what the
// source restriction already guarantees, but applying the matcher alone
// keeps this a pure function of the PoI.
func (s *Searcher) isSemMember(pos int, v graph.VertexID) bool {
	if !s.d.Graph.IsPoI(v) {
		return false
	}
	return s.seq[pos].Sim(s.d.Graph.Categories(v)) > 0
}

// hopMinDistance runs the multi-source multi-destination Dijkstra of
// Lemma 5.9 (the Workspace.MinDistance pattern, inlined so the run also
// observes query cancellation). An empty source set, or no destination
// within the radius, yields +Inf (which correctly prunes every route
// needing that hop); so does a cancelled run, which is fine — the query
// unwinds before the bound is ever used to prune.
func (s *Searcher) hopMinDistance(sources []graph.VertexID, isDest func(graph.VertexID) bool, radius float64) float64 {
	if len(sources) == 0 {
		return math.Inf(1)
	}
	bound := 0.0
	if !math.IsInf(radius, 1) {
		bound = radius
	}
	found := math.Inf(1)
	s.stats.SettledVertices += int64(s.ws.Run(dijkstra.Options{
		Sources: sources,
		Bound:   bound,
		Halt:    s.cc.halt(),
		OnSettle: func(v graph.VertexID, d float64) dijkstra.Control {
			if isDest(v) {
				found = d
				return dijkstra.Stop
			}
			return dijkstra.Continue
		},
	}))
	return found
}

func suffixSums(xs []float64) []float64 {
	out := make([]float64, len(xs)+1)
	for i := len(xs) - 1; i >= 0; i-- {
		out[i] = out[i+1] + xs[i]
	}
	return out
}

func suffixMax(xs []float64) []float64 {
	out := make([]float64, len(xs)+1)
	for i := len(xs) - 1; i >= 0; i-- {
		out[i] = math.Max(out[i+1], xs[i])
	}
	return out
}

// prune applies the §5.3.3 lower-bound rules to a popped partial route
// whose Eq. 3 threshold is threshold:
//
//  1. Semantic rule: every completion of r adds at least the semantic-match
//     minimum distance of the remaining hops, so r is dead if even that
//     cannot beat the threshold.
//  2. Perfect rule (Lemma 5.8): if any imperfect continuation is already
//     dominated via the minimum semantic increment δ (witness R'), and the
//     all-perfect continuation is dominated via the perfect-match minimum
//     distance (witness R”), r is dead. Its witnesses come from the
//     two-criteria result set sky; a rated query passes nil and runs the
//     semantic rule alone.
//
// The perfect rule is written against the resultSet witness test, so it
// generalizes unchanged to top-k runs: CoversPoint then demands k
// witnesses instead of one, i.e. every cut happens against the current
// k-th-best length of the route's similarity level.
func (b *bounds) prune(r *route.Route, threshold float64, sky resultSet, scorer route.Scorer) bool {
	m := r.Size()
	if m == 0 || m >= b.k {
		return false
	}
	// Remaining hops start at hop index m-1 (from r's last PoI at
	// position m-1 to position m).
	lsRem := b.lsSuffix[m-1]
	if r.Length()+lsRem >= threshold {
		return true
	}
	if sky == nil {
		return false
	}
	delta := scorer.MinIncrement(r.AggState(), m, b.maxImpSuffix[m])
	if delta <= 0 {
		return false
	}
	lpRem := b.lpSuffix[m-1]
	return sky.CoversPoint(r.Length(), r.Semantic()+delta) &&
		sky.CoversPoint(r.Length()+lpRem, r.Semantic())
}
