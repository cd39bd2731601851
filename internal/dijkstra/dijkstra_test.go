package dijkstra

import (
	"math"
	"math/rand"
	"testing"

	"skysr/internal/gen"
	"skysr/internal/geo"
	"skysr/internal/graph"
)

// randomConnectedGraph builds an undirected graph with n vertices: a random
// spanning tree plus extra random edges, ensuring connectivity.
func randomConnectedGraph(rng *rand.Rand, n, extraEdges int) *graph.Graph {
	b := graph.NewBuilder(false)
	for i := 0; i < n; i++ {
		b.AddVertex(geo.Point{Lon: rng.Float64(), Lat: rng.Float64()})
	}
	for i := 1; i < n; i++ {
		j := rng.Intn(i)
		b.AddEdge(graph.VertexID(i), graph.VertexID(j), 1+rng.Float64()*9)
	}
	for e := 0; e < extraEdges; e++ {
		u := rng.Intn(n)
		v := rng.Intn(n)
		if u != v {
			b.AddEdge(graph.VertexID(u), graph.VertexID(v), 1+rng.Float64()*9)
		}
	}
	return b.Build()
}

// floydWarshall computes all-pairs shortest distances by brute force.
func floydWarshall(g *graph.Graph) [][]float64 {
	n := g.NumVertices()
	d := make([][]float64, n)
	for i := range d {
		d[i] = make([]float64, n)
		for j := range d[i] {
			if i != j {
				d[i][j] = math.Inf(1)
			}
		}
	}
	for v := 0; v < n; v++ {
		ts, ws := g.Neighbors(graph.VertexID(v))
		for i, t := range ts {
			if ws[i] < d[v][t] {
				d[v][t] = ws[i]
			}
		}
	}
	for k := 0; k < n; k++ {
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if nd := d[i][k] + d[k][j]; nd < d[i][j] {
					d[i][j] = nd
				}
			}
		}
	}
	return d
}

func TestDijkstraMatchesFloydWarshall(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 25; trial++ {
		n := 5 + rng.Intn(30)
		g := randomConnectedGraph(rng, n, n)
		want := floydWarshall(g)
		w := New(g)
		for src := 0; src < n; src++ {
			w.Run(Options{Sources: []graph.VertexID{graph.VertexID(src)}})
			for v := 0; v < n; v++ {
				got, ok := w.Dist(graph.VertexID(v))
				if !ok {
					t.Fatalf("vertex %d unreachable from %d in connected graph", v, src)
				}
				if math.Abs(got-want[src][v]) > 1e-9 {
					t.Fatalf("dist(%d,%d) = %v, want %v", src, v, got, want[src][v])
				}
			}
		}
	}
}

func TestSettleOrderIsAscending(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	g := randomConnectedGraph(rng, 50, 80)
	w := New(g)
	last := -1.0
	w.Run(Options{
		Sources: []graph.VertexID{0},
		OnSettle: func(v graph.VertexID, d float64) Control {
			if d < last {
				t.Fatalf("settle order regressed: %v after %v", d, last)
			}
			last = d
			return Continue
		},
	})
}

func TestBoundCutsSearch(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g := randomConnectedGraph(rng, 60, 90)
	w := New(g)
	full := w.Run(Options{Sources: []graph.VertexID{0}})
	// Find the median settled distance to use as a bound.
	var dists []float64
	for v := 0; v < g.NumVertices(); v++ {
		if d, ok := w.Dist(graph.VertexID(v)); ok && w.WasSettled(graph.VertexID(v)) {
			dists = append(dists, d)
		}
	}
	bound := dists[len(dists)/2]
	if bound <= 0 {
		t.Skip("degenerate bound")
	}
	cut := w.Run(Options{Sources: []graph.VertexID{0}, Bound: bound})
	if cut >= full {
		t.Errorf("bounded run settled %d, unbounded %d", cut, full)
	}
	// Every settled vertex must be strictly within the bound.
	for v := 0; v < g.NumVertices(); v++ {
		if w.WasSettled(graph.VertexID(v)) {
			d, _ := w.Dist(graph.VertexID(v))
			if d >= bound {
				t.Errorf("settled vertex %d at %v ≥ bound %v", v, d, bound)
			}
		}
	}
}

func TestStopControl(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	g := randomConnectedGraph(rng, 40, 40)
	w := New(g)
	settles := 0
	w.Run(Options{
		Sources: []graph.VertexID{0},
		OnSettle: func(v graph.VertexID, d float64) Control {
			settles++
			if settles == 5 {
				return Stop
			}
			return Continue
		},
	})
	if settles != 5 {
		t.Errorf("settled %d, want stop at 5", settles)
	}
}

func TestSkipExpandBlocksTraversal(t *testing.T) {
	// Line 0-1-2: skipping expansion at 1 must leave 2 unreached.
	b := graph.NewBuilder(false)
	for i := 0; i < 3; i++ {
		b.AddVertex(geo.Point{Lon: float64(i)})
	}
	b.AddEdge(0, 1, 1)
	b.AddEdge(1, 2, 1)
	g := b.Build()
	w := New(g)
	w.Run(Options{
		Sources: []graph.VertexID{0},
		OnSettle: func(v graph.VertexID, d float64) Control {
			if v == 1 {
				return SkipExpand
			}
			return Continue
		},
	})
	if _, ok := w.Dist(2); ok {
		t.Error("vertex 2 should be unreached when expansion through 1 is skipped")
	}
}

func TestDistanceHelper(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	g := randomConnectedGraph(rng, 30, 30)
	want := floydWarshall(g)
	w := New(g)
	for trial := 0; trial < 50; trial++ {
		u := graph.VertexID(rng.Intn(30))
		v := graph.VertexID(rng.Intn(30))
		got := w.Distance(u, v)
		if math.Abs(got-want[u][v]) > 1e-9 {
			t.Fatalf("Distance(%d,%d) = %v, want %v", u, v, got, want[u][v])
		}
	}
	if d := w.Distance(3, 3); d != 0 {
		t.Errorf("Distance(v,v) = %v, want 0", d)
	}
}

func TestDistanceUnreachable(t *testing.T) {
	b := graph.NewBuilder(false)
	b.AddVertex(geo.Point{})
	b.AddVertex(geo.Point{Lon: 1})
	b.AddVertex(geo.Point{Lon: 2})
	b.AddVertex(geo.Point{Lon: 3})
	b.AddEdge(0, 1, 1)
	b.AddEdge(2, 3, 1)
	g := b.Build()
	w := New(g)
	if d := w.Distance(0, 3); !math.IsInf(d, 1) {
		t.Errorf("unreachable Distance = %v, want +Inf", d)
	}
}

func TestMinDistanceMultiSource(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	g := randomConnectedGraph(rng, 40, 60)
	want := floydWarshall(g)
	w := New(g)
	sources := []graph.VertexID{0, 7, 13}
	dests := map[graph.VertexID]bool{22: true, 31: true, 5: true}
	gotD, gotAt, ok := w.MinDistance(sources, func(v graph.VertexID) bool { return dests[v] }, 0)
	if !ok {
		t.Fatal("expected a destination")
	}
	best := math.Inf(1)
	for _, s := range sources {
		for d := range dests {
			if want[s][d] < best {
				best = want[s][d]
			}
		}
	}
	if math.Abs(gotD-best) > 1e-9 {
		t.Fatalf("MinDistance = %v at %d, brute force %v", gotD, gotAt, best)
	}
	if !dests[gotAt] {
		t.Errorf("MinDistance settled at non-destination %d", gotAt)
	}
}

// TestSeededSourcesMatchFloydWarshall: with SourceDist every vertex
// settles at the smallest start distance plus path length over the
// sources, a source listed twice starts at its smaller value, and the
// sources need not be settled in list order.
func TestSeededSourcesMatchFloydWarshall(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	g := randomConnectedGraph(rng, 40, 60)
	all := floydWarshall(g)
	w := New(g)
	for trial := 0; trial < 20; trial++ {
		var sources []graph.VertexID
		var start []float64
		for i := 0; i < 1+rng.Intn(5); i++ {
			sources = append(sources, graph.VertexID(rng.Intn(40)))
			start = append(start, rng.Float64()*20)
		}
		sources = append(sources, sources[0])
		start = append(start, rng.Float64()*20)
		w.Run(Options{Sources: sources, SourceDist: start})
		for v := 0; v < 40; v++ {
			want := math.Inf(1)
			for i, s := range sources {
				want = math.Min(want, start[i]+all[s][v])
			}
			got, ok := w.Dist(graph.VertexID(v))
			if !ok || math.Abs(got-want) > 1e-9 {
				t.Fatalf("trial %d: dist(%d) = %v (reached %v), want %v", trial, v, got, ok, want)
			}
		}
	}
}

func TestMinDistanceBounded(t *testing.T) {
	b := graph.NewBuilder(false)
	for i := 0; i < 3; i++ {
		b.AddVertex(geo.Point{Lon: float64(i)})
	}
	b.AddEdge(0, 1, 5)
	b.AddEdge(1, 2, 5)
	g := b.Build()
	w := New(g)
	_, _, ok := w.MinDistance([]graph.VertexID{0}, func(v graph.VertexID) bool { return v == 2 }, 6)
	if ok {
		t.Error("destination at distance 10 must not be found within bound 6")
	}
	d, at, ok := w.MinDistance([]graph.VertexID{0}, func(v graph.VertexID) bool { return v == 2 }, 11)
	if !ok || at != 2 || math.Abs(d-10) > 1e-9 {
		t.Errorf("bounded MinDistance = (%v, %d, %v), want (10, 2, true)", d, at, ok)
	}
}

func TestPathTo(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	g := randomConnectedGraph(rng, 30, 40)
	w := New(g)
	w.Run(Options{Sources: []graph.VertexID{0}})
	for v := graph.VertexID(0); int(v) < g.NumVertices(); v++ {
		path := w.PathTo(v)
		if len(path) == 0 {
			t.Fatalf("no path to %d", v)
		}
		if path[0] != 0 || path[len(path)-1] != v {
			t.Fatalf("path endpoints wrong: %v", path)
		}
		// The path's edge weights must sum to the reported distance.
		sum := 0.0
		for i := 0; i+1 < len(path); i++ {
			wgt, ok := g.EdgeWeight(path[i], path[i+1])
			if !ok {
				t.Fatalf("path uses missing edge %d-%d", path[i], path[i+1])
			}
			sum += wgt
		}
		d, _ := w.Dist(v)
		if math.Abs(sum-d) > 1e-9 {
			t.Fatalf("path length %v != dist %v", sum, d)
		}
	}
}

func TestPathToUnreached(t *testing.T) {
	b := graph.NewBuilder(false)
	b.AddVertex(geo.Point{})
	b.AddVertex(geo.Point{Lon: 1})
	b.AddVertex(geo.Point{Lon: 2})
	b.AddEdge(0, 1, 1)
	g := b.Build()
	w := New(g)
	w.Run(Options{Sources: []graph.VertexID{0}})
	if p := w.PathTo(2); p != nil {
		t.Errorf("PathTo(unreached) = %v, want nil", p)
	}
}

func TestDirectedGraphSearch(t *testing.T) {
	b := graph.NewBuilder(true)
	for i := 0; i < 3; i++ {
		b.AddVertex(geo.Point{Lon: float64(i)})
	}
	b.AddEdge(0, 1, 1)
	b.AddEdge(1, 2, 1)
	b.AddEdge(2, 0, 10)
	g := b.Build()
	w := New(g)
	if d := w.Distance(0, 2); math.Abs(d-2) > 1e-9 {
		t.Errorf("directed 0->2 = %v, want 2", d)
	}
	if d := w.Distance(2, 1); math.Abs(d-11) > 1e-9 {
		t.Errorf("directed 2->1 = %v, want 11 (via the back arc)", d)
	}
}

// TestStatsCounters checks Run's settle count, the Table 8 metric every
// caller charges: the whole component on a full run, the vertices below
// the bound on a bounded one, one on a run stopped at its first settle.
func TestStatsCounters(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	g := randomConnectedGraph(rng, 30, 30)
	w := New(g)
	if got := w.Run(Options{Sources: []graph.VertexID{0}}); got != 30 {
		t.Errorf("full run settled %d, want 30", got)
	}
	fw := floydWarshall(g)
	bound := 8.0
	want := 0
	for v := range fw[0] {
		if fw[0][v] < bound {
			want++
		}
	}
	if got := w.Run(Options{Sources: []graph.VertexID{0}, Bound: bound}); got != want {
		t.Errorf("run bounded at %v settled %d, want %d", bound, got, want)
	}
	stop := func(graph.VertexID, float64) Control { return Stop }
	if got := w.Run(Options{Sources: []graph.VertexID{0}, OnSettle: stop}); got != 1 {
		t.Errorf("run stopped at its first settle settled %d, want 1", got)
	}
}

// roundDown32 is the largest float32 not above x, the rounding that keeps
// a goal row a lower bound.
func roundDown32(x float64) float32 {
	f := float32(x)
	if float64(f) > x {
		f = math.Nextafter32(f, float32(math.Inf(-1)))
	}
	return f
}

// goalRow is the row of distances to the nearest goal, each entry scaled
// by a random factor in [0.5, 1] and rounded down, so it stays a lower
// bound without being exact.
func goalRow(rng *rand.Rand, fw [][]float64, goals []graph.VertexID) []float32 {
	row := make([]float32, len(fw))
	for v := range row {
		d := math.Inf(1)
		for _, x := range goals {
			d = min(d, fw[v][x])
		}
		row[v] = roundDown32(d * (0.5 + rng.Float64()/2))
	}
	return row
}

// TestGoalCutKeepsShortestPathsToGoals checks the goal-row cut on random
// graphs and admissible rows: it settles a subset of the plain bounded
// run, and every vertex on a shortest path to a goal within Bound is
// settled with its exact distance.
func TestGoalCutKeepsShortestPathsToGoals(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for trial := 0; trial < 40; trial++ {
		g := randomConnectedGraph(rng, 40, 40)
		fw := floydWarshall(g)
		n := g.NumVertices()
		goals := []graph.VertexID{graph.VertexID(rng.Intn(n)), graph.VertexID(rng.Intn(n))}
		goal := [][]float32{goalRow(rng, fw, goals)}
		if trial%2 == 1 {
			// A second row bounds the way to the first goal alone, so the
			// largest entry is a lower bound for that goal only.
			goal = append(goal, goalRow(rng, fw, goals[:1]))
			goals = goals[:1]
		}
		src := graph.VertexID(rng.Intn(n))
		bound := 5 + 20*rng.Float64()

		w := New(g)
		w.Run(Options{Sources: []graph.VertexID{src}, Bound: bound})
		plain := make([]bool, n)
		for v := range plain {
			plain[v] = w.WasSettled(graph.VertexID(v))
		}
		w.Run(Options{Sources: []graph.VertexID{src}, Bound: bound, Goal: goal})
		for v := 0; v < n; v++ {
			if w.WasSettled(graph.VertexID(v)) && !plain[v] {
				t.Fatalf("trial %d: goal run settled %d, which the plain run did not", trial, v)
			}
		}
		for _, x := range goals {
			if fw[src][x] >= bound-1e-6 {
				continue
			}
			for u := 0; u < n; u++ {
				if math.Abs(fw[src][u]+fw[u][x]-fw[src][x]) > 1e-9 {
					continue // u is on no shortest path to x
				}
				d, ok := w.Dist(graph.VertexID(u))
				if !w.WasSettled(graph.VertexID(u)) || !ok || math.Abs(d-fw[src][u]) > 1e-9 {
					t.Fatalf("trial %d: vertex %d on a shortest path %d→%d: settled %v at %v, want %v",
						trial, u, src, x, w.WasSettled(graph.VertexID(u)), d, fw[src][u])
				}
			}
		}
	}
}

// TestCut checks when a run reports itself cut: never when everything
// reachable lies inside Bound and no finite goal entry fires, including
// when +Inf goal entries cut; always when Bound or a finite goal entry
// suppresses a vertex or an arc.
func TestCut(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	g := randomConnectedGraph(rng, 30, 30)
	fw := floydWarshall(g)
	ecc := 0.0
	for _, d := range fw[0] {
		ecc = max(ecc, d)
	}
	w := New(g)
	src := []graph.VertexID{0}
	inf := float32(math.Inf(1))

	if w.Run(Options{Sources: src}); w.Cut() {
		t.Error("unbounded run reported cut")
	}
	if w.Run(Options{Sources: src, Bound: ecc + 1}); w.Cut() {
		t.Error("run whose component fits inside Bound reported cut")
	}
	if w.Run(Options{Sources: src, Bound: ecc / 2}); !w.Cut() {
		t.Error("run that Bound suppressed did not report cut")
	}

	// +Inf entries on half the vertices cut them without marking the run.
	// The detours around them may run past ecc, so Bound sits far out.
	row := make([]float32, g.NumVertices())
	for v := 1; v < len(row); v += 2 {
		row[v] = inf
	}
	settled := w.Run(Options{Sources: src, Bound: 1e9, Goal: [][]float32{row}})
	if w.Cut() {
		t.Error("run cut only by +Inf goal entries reported cut")
	}
	if settled == g.NumVertices() {
		t.Error("+Inf goal entries cut nothing")
	}
	if w.Run(Options{Sources: src, Goal: [][]float32{row}}); w.Cut() {
		t.Error("unbounded run cut only by +Inf goal entries reported cut")
	}

	// One finite entry large enough to reach Bound marks the run.
	far := make([]float32, g.NumVertices())
	far[len(far)-1] = float32(ecc + 2)
	if w.Run(Options{Sources: src, Bound: ecc + 1, Goal: [][]float32{far}}); !w.Cut() {
		t.Error("run that a finite goal entry suppressed did not report cut")
	}
	if w.WasSettled(graph.VertexID(len(far) - 1)) {
		t.Error("vertex whose goal entry reaches Bound was settled")
	}
	// A source the goal rows cut is never queued: it settles nothing and
	// marks the run too.
	far[0] = float32(ecc + 2)
	if settled := w.Run(Options{Sources: src, Bound: ecc + 1, Goal: [][]float32{far}}); settled != 0 || !w.Cut() {
		t.Errorf("source cut by the goal rows: settled %d, cut %v; want 0, true", settled, w.Cut())
	}
	// A +Inf entry drops the source without marking the run.
	far[0] = inf
	if settled := w.Run(Options{Sources: src, Goal: [][]float32{far}}); settled != 0 || w.Cut() {
		t.Errorf("source with a +Inf goal entry: settled %d, cut %v; want 0, false", settled, w.Cut())
	}
}

// TestParentChainMatchesPathTo checks that following Parent from every
// settled vertex walks PathTo backwards to the source.
func TestParentChainMatchesPathTo(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	g := randomConnectedGraph(rng, 40, 50)
	w := New(g)
	w.Run(Options{Sources: []graph.VertexID{3}, Bound: 20})
	for v := graph.VertexID(0); int(v) < g.NumVertices(); v++ {
		if !w.WasSettled(v) {
			continue
		}
		path := w.PathTo(v)
		for i := len(path) - 1; i >= 0; i-- {
			want := graph.NoVertex
			if i > 0 {
				want = path[i-1]
			}
			if got := w.Parent(path[i]); got != want {
				t.Fatalf("Parent(%d) = %d on the path to %d, want %d", path[i], got, v, want)
			}
		}
		if path[0] != 3 {
			t.Fatalf("path to %d starts at %d, want the source 3", v, path[0])
		}
	}
}

func TestIteratorMatchesWorkspaceOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	g := randomConnectedGraph(rng, 40, 60)
	w := New(g)
	var wsOrder []Settled
	w.Run(Options{
		Sources: []graph.VertexID{0},
		OnSettle: func(v graph.VertexID, d float64) Control {
			wsOrder = append(wsOrder, Settled{V: v, Dist: d})
			return Continue
		},
	})
	it := NewIterator(g, 0)
	for i := 0; ; i++ {
		s, ok := it.Next()
		if !ok {
			if i != len(wsOrder) {
				t.Fatalf("iterator exhausted after %d, workspace settled %d", i, len(wsOrder))
			}
			break
		}
		if i >= len(wsOrder) {
			t.Fatalf("iterator produced extra vertex %v", s)
		}
		if math.Abs(s.Dist-wsOrder[i].Dist) > 1e-9 {
			t.Fatalf("iterator settle %d dist %v, workspace %v", i, s.Dist, wsOrder[i].Dist)
		}
	}
}

func TestIteratorResumable(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	g := randomConnectedGraph(rng, 30, 30)
	it := NewIterator(g, 5)
	var first []Settled
	for i := 0; i < 10; i++ {
		s, ok := it.Next()
		if !ok {
			break
		}
		first = append(first, s)
	}
	// Resume: distances must keep ascending from where we stopped.
	last := first[len(first)-1].Dist
	for {
		s, ok := it.Next()
		if !ok {
			break
		}
		if s.Dist < last {
			t.Fatalf("resumed iterator regressed: %v < %v", s.Dist, last)
		}
		last = s.Dist
	}
	if it.ExploredBytes() <= 0 {
		t.Error("ExploredBytes should be positive")
	}
}

func BenchmarkDijkstraFullGraph(b *testing.B) {
	rng := rand.New(rand.NewSource(11))
	g := randomConnectedGraph(rng, 5000, 10000)
	w := New(g)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.Run(Options{Sources: []graph.VertexID{graph.VertexID(i % 5000)}})
	}
}

// TestPotentialReopensSettledVertex is the smallest case where an
// admissible but inconsistent potential settles a vertex too early: the
// potential at a (2.5) exceeds the arc a→b (1) plus the potential at b
// (0), so b settles at 3 over its direct arc before a, on the shorter
// path through which b sits at 2. Without reopening b, the goal would
// settle at 6 instead of 5.
func TestPotentialReopensSettledVertex(t *testing.T) {
	b := graph.NewBuilder(true)
	for i := 0; i < 4; i++ {
		b.AddVertex(geo.Point{Lon: float64(i)})
	}
	const s, a, mid, goal = 0, 1, 2, 3
	b.AddEdge(s, a, 1)
	b.AddEdge(s, mid, 3)
	b.AddEdge(a, mid, 1)
	b.AddEdge(mid, goal, 3)
	g := b.Build()
	pot := [][]float32{{0, 2.5, 0, 0}}
	w := New(g)
	found := math.Inf(1)
	w.Run(Options{
		Sources:   []graph.VertexID{s},
		Potential: pot,
		OnSettle: func(v graph.VertexID, d float64) Control {
			if v == goal {
				found = d
				return Stop
			}
			return Continue
		},
	})
	if found != 5 {
		t.Fatalf("goal settled at %v, want 5", found)
	}
	if p := w.PathTo(goal); len(p) != 4 || p[1] != a {
		t.Errorf("path to the goal %v, want it through %d", p, a)
	}
}

// nearestGoal runs w under opts and returns the goal with the least
// (distance, vertex id), the rule NNinit's greedy stages keep, its
// distance (NoVertex and +Inf when none is reachable) and the number of
// vertices the run settled.
func nearestGoal(w *Workspace, opts Options, isGoal []bool) (graph.VertexID, float64, int) {
	best, dist := graph.NoVertex, math.Inf(1)
	opts.OnSettle = func(v graph.VertexID, d float64) Control {
		if !isGoal[v] {
			return Continue
		}
		if d < dist || d == dist && v < best {
			best, dist = v, d
		}
		return StopAfterTies
	}
	settled := w.Run(opts)
	return best, dist, settled
}

// potentialRows returns, for each goal set, the row of lower-bound
// distances from every vertex to the set's nearest goal, from a reverse
// sweep over the weight column (the lower-bound graph on time-dependent
// networks), rounded down to float32 as the category index stores them.
// With shrink set, every entry is further scaled by a random factor in
// [0.5, 1].
func potentialRows(rng *rand.Rand, g *graph.Graph, sets [][]graph.VertexID, shrink bool) [][]float32 {
	rev := New(g.Reversed())
	var rows [][]float32
	for _, set := range sets {
		row := make([]float32, g.NumVertices())
		for v := range row {
			row[v] = float32(math.Inf(1))
		}
		rev.Run(Options{Sources: set, OnSettle: func(v graph.VertexID, d float64) Control {
			if shrink {
				d *= 0.5 + rng.Float64()/2
			}
			row[v] = roundDown32(d)
			return Continue
		}})
		rows = append(rows, row)
	}
	return rows
}

// TestPotentialRunsMatchPlain checks A* runs against plain runs on random
// graphs: the least (distance, vertex id) goal and its distance must be
// bit-identical, and a run left to exhaust its queue must settle every
// vertex that can reach a goal at its plain distance, which only
// reopening achieves under an inconsistent potential. The trials cover
// exact rows rounded down to float32 and rows shrunk further, one row per
// goal (the potential is their minimum) and one row for all, zero-weight
// arcs, directed graphs and time-dependent profiles with a departure
// time.
func TestPotentialRunsMatchPlain(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	settledPlain, settledAStar := 0, 0
	for trial := 0; trial < 400; trial++ {
		directed, zero, td := trial%2 == 1, trial%4 >= 2, trial%8 >= 4
		n := 10 + rng.Intn(40)
		b := graph.NewBuilder(directed)
		if td {
			if err := b.SetTimePeriod(60); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < n; i++ {
			b.AddVertex(geo.Point{Lon: rng.Float64(), Lat: rng.Float64()})
		}
		weight := func() float64 {
			if zero {
				return float64(rng.Intn(3)) // 0, 1 or 2: zero arcs and exact ties
			}
			return 1 + rng.Float64()*9
		}
		edge := func(u, v int) {
			idx := b.AddEdge(graph.VertexID(u), graph.VertexID(v), weight())
			if td && rng.Intn(2) == 0 {
				if err := b.SetEdgeProfile(idx, gen.RandomFIFOProfile(rng, 60, 1+rng.Intn(4), 12)); err != nil {
					t.Fatal(err)
				}
			}
		}
		for i := 1; i < n; i++ {
			edge(i, rng.Intn(i))
			if directed {
				edge(rng.Intn(i), i)
			}
		}
		for e := 0; e < n; e++ {
			if u, v := rng.Intn(n), rng.Intn(n); u != v {
				edge(u, v)
			}
		}
		g := b.Build()

		isGoal := make([]bool, n)
		var goals []graph.VertexID
		for len(goals) < 1+rng.Intn(4) {
			v := graph.VertexID(rng.Intn(n))
			if !isGoal[v] {
				isGoal[v] = true
				goals = append(goals, v)
			}
		}
		sets := [][]graph.VertexID{goals}
		if trial%3 == 0 {
			sets = sets[:0]
			for _, x := range goals {
				sets = append(sets, []graph.VertexID{x})
			}
		}
		pot := potentialRows(rng, g, sets, trial%5 >= 3)
		src := graph.VertexID(rng.Intn(n))
		opts := Options{Sources: []graph.VertexID{src}, TimeDependent: td}
		if td {
			opts.DepartAt = rng.Float64() * 60
		}

		w := New(g)
		wantV, wantD, plain := nearestGoal(w, opts, isGoal)
		opts.Potential = pot
		gotV, gotD, astar := nearestGoal(w, opts, isGoal)
		if gotV != wantV || math.Float64bits(gotD) != math.Float64bits(wantD) {
			t.Fatalf("trial %d (directed %v, zero %v, td %v): A* reached goal %d at %v, plain %d at %v",
				trial, directed, zero, td, gotV, gotD, wantV, wantD)
		}
		settledPlain += plain
		settledAStar += astar

		opts.Potential = nil
		w.Run(opts)
		want := make([]float64, n)
		for v := range want {
			want[v], _ = w.Dist(graph.VertexID(v))
		}
		opts.Potential = pot
		w.Run(opts)
		for v := range want {
			if math.IsInf(potentialBound(pot, graph.VertexID(v)), 1) {
				continue
			}
			if got, ok := w.Dist(graph.VertexID(v)); !ok || !w.WasSettled(graph.VertexID(v)) || math.Float64bits(got) != math.Float64bits(want[v]) {
				t.Fatalf("trial %d (directed %v, zero %v, td %v): exhaustive A* settled %d at %v (reached %v), plain at %v",
					trial, directed, zero, td, v, got, ok, want[v])
			}
		}
	}
	if settledAStar >= settledPlain {
		t.Errorf("potential runs settled %d vertices, plain runs %d: the potential never pruned", settledAStar, settledPlain)
	}
}

// TestPotentialInfDropsSource checks that a +Inf potential at the source
// proves no goal reachable: the run settles nothing.
func TestPotentialInfDropsSource(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	g := randomConnectedGraph(rng, 20, 20)
	row := make([]float32, g.NumVertices())
	row[4] = float32(math.Inf(1))
	w := New(g)
	if settled := w.Run(Options{Sources: []graph.VertexID{4}, Potential: [][]float32{row}}); settled != 0 {
		t.Errorf("run from a source with a +Inf potential settled %d vertices, want 0", settled)
	}
	if _, ok := w.Dist(4); ok {
		t.Error("source with a +Inf potential was reached")
	}
	// A second row, zero everywhere, keeps the source: the potential is
	// the smallest entry.
	if settled := w.Run(Options{Sources: []graph.VertexID{4}, Potential: [][]float32{row, make([]float32, g.NumVertices())}}); settled != g.NumVertices() {
		t.Errorf("run under a zero smallest entry settled %d vertices, want all %d", settled, g.NumVertices())
	}
}

// TestStopAfterTies checks the least-(distance, id) rule on a zero-weight
// tie: the first goal settled (1) is not the least one (0), which sits at
// the same distance behind a zero-weight arc from a vertex settled after
// it. StopAfterTies settles that vertex and goal 0, but not vertex 4,
// queued beyond the tie, which a plain Stop would not settle either.
func TestStopAfterTies(t *testing.T) {
	b := graph.NewBuilder(true)
	for i := 0; i < 5; i++ {
		b.AddVertex(geo.Point{Lon: float64(i)})
	}
	const src = 3
	b.AddEdge(src, 1, 1)
	b.AddEdge(src, 2, 1)
	b.AddEdge(2, 0, 0)
	b.AddEdge(src, 4, 2)
	g := b.Build()
	isGoal := []bool{true, true, false, false, false}
	w := New(g)
	opts := Options{Sources: []graph.VertexID{src}}
	if v, d, _ := nearestGoal(w, opts, isGoal); v != 0 || d != 1 {
		t.Errorf("least goal %d at %v, want 0 at 1", v, d)
	}
	order := []graph.VertexID{}
	opts.OnSettle = func(v graph.VertexID, d float64) Control {
		order = append(order, v)
		if isGoal[v] {
			return StopAfterTies
		}
		return Continue
	}
	if settled := w.Run(opts); settled != 4 || len(order) != 4 || order[1] != 1 || order[3] != 0 {
		t.Errorf("settled %d in order %v, want 4: 3, 1, 2, 0", settled, order)
	}
	if w.WasSettled(4) {
		t.Error("vertex 4, queued beyond the tie, was settled")
	}
}
