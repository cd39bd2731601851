package graph

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"skysr/internal/geo"
)

func pt(x, y float64) geo.Point { return geo.Point{Lon: x, Lat: y} }

// buildProfiled returns a small undirected graph with a profile on edge
// 0–1 and a static edge 1–2.
func buildProfiled(t *testing.T, p Profile) *Graph {
	t.Helper()
	b := NewBuilder(false)
	if err := b.SetTimePeriod(100); err != nil {
		t.Fatal(err)
	}
	b.AddVertex(pt(0, 0))
	b.AddVertex(pt(1, 0))
	b.AddVertex(pt(2, 0))
	e01 := b.AddEdge(0, 1, 7)
	b.AddEdge(1, 2, 3)
	if err := b.SetEdgeProfile(e01, p); err != nil {
		t.Fatal(err)
	}
	return b.Build()
}

func TestProfileValidate(t *testing.T) {
	period := 100.0
	cases := []struct {
		name string
		p    Profile
		ok   bool
	}{
		{"constant", ConstantProfile(5), true},
		{"rush hour", Profile{Times: []float64{0, 20, 30, 50}, Costs: []float64{5, 5, 9, 5}}, true},
		{"empty", Profile{}, false},
		{"length mismatch", Profile{Times: []float64{0, 10}, Costs: []float64{1}}, false},
		{"unsorted", Profile{Times: []float64{10, 5}, Costs: []float64{1, 1}}, false},
		{"duplicate time", Profile{Times: []float64{10, 10}, Costs: []float64{1, 1}}, false},
		{"time past period", Profile{Times: []float64{0, 100}, Costs: []float64{1, 1}}, false},
		{"negative time", Profile{Times: []float64{-1}, Costs: []float64{1}}, false},
		{"negative cost", Profile{Times: []float64{0}, Costs: []float64{-1}}, false},
		{"nan cost", Profile{Times: []float64{0}, Costs: []float64{math.NaN()}}, false},
		{"inf cost", Profile{Times: []float64{0}, Costs: []float64{math.Inf(1)}}, false},
		// Drops 10 cost over 2 time: slope -5 < -1 (a later departure
		// would overtake an earlier one).
		{"non-FIFO segment", Profile{Times: []float64{0, 2}, Costs: []float64{10, 0}}, false},
		// The wrap segment from (99, 0) back to (0+100, 50) rises; the
		// forward segment 0→99 falls 50 over 99 (slope ≈ −0.5): FIFO.
		{"gentle decline", Profile{Times: []float64{0, 99}, Costs: []float64{50, 0}}, true},
		// Wrap segment falls 50 over 1: slope −50, non-FIFO.
		{"non-FIFO wrap", Profile{Times: []float64{0, 99}, Costs: []float64{0, 50}}, false},
	}
	for _, c := range cases {
		err := c.p.Validate(period)
		if c.ok && err != nil {
			t.Errorf("%s: unexpected error %v", c.name, err)
		}
		if !c.ok {
			if err == nil {
				t.Errorf("%s: validation passed, want error", c.name)
			} else if !errors.Is(err, ErrBadProfile) {
				t.Errorf("%s: error %v does not wrap ErrBadProfile", c.name, err)
			}
		}
	}
	if err := ConstantProfile(1).Validate(0); !errors.Is(err, ErrBadProfile) {
		t.Errorf("zero period accepted: %v", err)
	}
}

func TestProfileEval(t *testing.T) {
	p := Profile{Times: []float64{10, 20, 40}, Costs: []float64{2, 6, 4}}
	if err := p.Validate(100); err != nil {
		t.Fatal(err)
	}
	cases := []struct{ t, want float64 }{
		{10, 2}, {20, 6}, {40, 4},
		{15, 4},                         // midway 2→6
		{30, 5},                         // midway 6→4
		{110, 2},                        // periodic wrap of t=10
		{70, 4.0 + (2.0-4.0)*30.0/70.0}, // wrap segment (40,4)→(110,2)
		{0, 4.0 + (2.0-4.0)*60.0/70.0},  // wrap segment, before first breakpoint
		{-90, 2},                        // negative time wraps to 10
	}
	for _, c := range cases {
		if got := p.Eval(c.t, 100); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("Eval(%v) = %v, want %v", c.t, got, c.want)
		}
	}
	if got := ConstantProfile(3.5).Eval(77, 100); got != 3.5 {
		t.Errorf("constant Eval = %v", got)
	}
	if p.Min() != 2 {
		t.Errorf("Min = %v, want 2", p.Min())
	}
	if p.Constant() || !ConstantProfile(1).Constant() {
		t.Error("Constant() misreports")
	}
}

// TestProfileFIFO checks the arc-level FIFO property on random valid
// profiles: departing later never arrives earlier.
func TestProfileFIFO(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const period = 100.0
	for trial := 0; trial < 200; trial++ {
		p := randomFIFOProfile(rng, period, 1+rng.Intn(6))
		if err := p.Validate(period); err != nil {
			t.Fatalf("trial %d: generated profile invalid: %v", trial, err)
		}
		prev := math.Inf(-1)
		for step := 0; step <= 400; step++ {
			tm := float64(step) * period / 200 // two periods
			arr := tm + p.Eval(tm, period)
			if arr < prev-1e-9 {
				t.Fatalf("trial %d: FIFO violated at t=%v: arrival %v after %v", trial, tm, arr, prev)
			}
			if arr > prev {
				prev = arr
			}
		}
	}
}

// randomFIFOProfile builds a random profile that satisfies the FIFO slope
// bound by construction: each segment's cost delta is capped at the
// segment length.
func randomFIFOProfile(rng *rand.Rand, period float64, n int) Profile {
	times := make([]float64, 0, n)
	seen := map[float64]bool{}
	for len(times) < n {
		tm := math.Floor(rng.Float64()*period*8) / 8
		if tm >= period || seen[tm] {
			continue
		}
		seen[tm] = true
		times = append(times, tm)
	}
	sortFloats(times)
	costs := make([]float64, n)
	costs[0] = 1 + rng.Float64()*10
	for i := 1; i < n; i++ {
		gap := times[i] - times[i-1]
		lo := math.Max(0, costs[i-1]-gap) // slope ≥ −1
		costs[i] = lo + rng.Float64()*(costs[i-1]+5-lo)
	}
	// Repair the FIFO slope bound to a fixpoint: raising a cost to fix
	// one segment can break the next, so sweep until stable (the repairs
	// only raise costs and are bounded above, so this terminates).
	for pass := 0; pass < 64; pass++ {
		changed := false
		wrapGap := times[0] + period - times[n-1]
		if costs[0] < costs[n-1]-wrapGap {
			costs[0] = costs[n-1] - wrapGap
			changed = true
		}
		for i := 1; i < n; i++ {
			gap := times[i] - times[i-1]
			if costs[i] < costs[i-1]-gap {
				costs[i] = costs[i-1] - gap
				changed = true
			}
		}
		if !changed {
			break
		}
	}
	p := Profile{Times: times, Costs: costs}
	if p.Validate(period) != nil {
		return ConstantProfile(costs[0])
	}
	return p
}

func sortFloats(xs []float64) {
	for i := 1; i < len(xs); i++ {
		for j := i; j > 0 && xs[j] < xs[j-1]; j-- {
			xs[j], xs[j-1] = xs[j-1], xs[j]
		}
	}
}

func TestBuilderProfileWiring(t *testing.T) {
	p := Profile{Times: []float64{0, 50}, Costs: []float64{4, 10}}
	g := buildProfiled(t, p)

	if !g.HasTimeProfiles() {
		t.Fatal("HasTimeProfiles = false")
	}
	if g.TimePeriod() != 100 {
		t.Fatalf("TimePeriod = %v", g.TimePeriod())
	}
	if !g.TimeVarying() {
		t.Fatal("profiled graph is not time-varying")
	}
	// The profiled edge's weight column holds the profile minimum, not
	// the declared static weight 7.
	if w, ok := g.EdgeWeight(0, 1); !ok || w != 4 {
		t.Fatalf("EdgeWeight(0,1) = %v, %v; want 4 (profile min)", w, ok)
	}
	if w, ok := g.EdgeWeight(1, 2); !ok || w != 3 {
		t.Fatalf("EdgeWeight(1,2) = %v, %v", w, ok)
	}
	// Both arcs of the undirected profiled edge evaluate the profile,
	// and both weigh its minimum.
	for _, uv := range [][2]VertexID{{0, 1}, {1, 0}} {
		arc := findArc(t, g, uv[0], uv[1])
		if got := g.CostAt(arc, 0); got != 4 {
			t.Errorf("CostAt(%v→%v, 0) = %v, want 4", uv[0], uv[1], got)
		}
		if got := g.CostAt(arc, 50); got != 10 {
			t.Errorf("CostAt(%v→%v, 50) = %v, want 10", uv[0], uv[1], got)
		}
		if got, ok := g.EdgeWeight(uv[0], uv[1]); !ok || got != 4 {
			t.Errorf("EdgeWeight(%v→%v) = %v, %v; want 4", uv[0], uv[1], got, ok)
		}
	}
	// The static edge ignores the departure time.
	arc := findArc(t, g, 1, 2)
	if got := g.CostAt(arc, 50); got != 3 {
		t.Errorf("static arc CostAt = %v, want 3", got)
	}
	// A graph without profiles is static.
	if NewBuilder(false).Build().TimeVarying() {
		t.Error("empty graph is time-varying")
	}
}

func findArc(t *testing.T, g *Graph, u, v VertexID) int32 {
	t.Helper()
	ts, _ := g.Neighbors(u)
	for i, x := range ts {
		if x == v {
			return g.ArcBase(u) + int32(i)
		}
	}
	t.Fatalf("no arc %d→%d", u, v)
	return -1
}

func TestApplyProfileEdits(t *testing.T) {
	g := buildProfiled(t, Profile{Times: []float64{0, 50}, Costs: []float64{4, 10}})

	// Attach a profile to the static edge 1–2 and clear the one on 0–1.
	out, err := g.Apply(Edits{SetProfiles: []ProfileChange{
		{U: 1, V: 2, Profile: Profile{Times: []float64{0, 30}, Costs: []float64{2, 8}}},
		{U: 0, V: 1, Clear: true},
	}})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := out.ArcProfile(findArc(t, out, 0, 1)); ok {
		t.Error("cleared edge still profiled")
	}
	// The cleared edge keeps its lower-bound weight.
	if w, _ := out.EdgeWeight(0, 1); w != 4 {
		t.Errorf("cleared edge weight = %v, want 4", w)
	}
	if w, _ := out.EdgeWeight(1, 2); w != 2 {
		t.Errorf("newly profiled edge weight = %v, want 2 (profile min)", w)
	}
	if got := out.CostAt(findArc(t, out, 2, 1), 30); got != 8 {
		t.Errorf("reverse arc of profiled edge costs %v at t=30, want 8", got)
	}
	// The receiver is untouched.
	if _, ok := g.ArcProfile(findArc(t, g, 0, 1)); !ok {
		t.Error("Apply mutated the receiver")
	}

	// A weight edit drops the edge's profile.
	out2, err := out.Apply(Edits{SetWeights: []EdgeChange{{U: 1, V: 2, Weight: 9}}})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := out2.ArcProfile(findArc(t, out2, 1, 2)); ok {
		t.Error("weight edit kept the profile")
	}
	if out2.HasTimeProfiles() {
		t.Error("graph with no profiled edges still reports HasTimeProfiles")
	}

	// Invalid profiles reject the batch with the typed error.
	_, err = g.Apply(Edits{SetProfiles: []ProfileChange{
		{U: 0, V: 1, Profile: Profile{Times: []float64{5, 1}, Costs: []float64{1, 1}}},
	}})
	if !errors.Is(err, ErrBadProfile) {
		t.Errorf("unsorted profile accepted: %v", err)
	}
	_, err = g.Apply(Edits{SetProfiles: []ProfileChange{{U: 0, V: 2}}})
	if err == nil {
		t.Error("profile edit on missing edge accepted")
	}
}

func TestStructuralRebuildCarriesProfiles(t *testing.T) {
	g := buildProfiled(t, Profile{Times: []float64{0, 50}, Costs: []float64{4, 10}})
	out, err := g.Apply(Edits{AddEdges: []EdgeChange{{U: 0, V: 2, Weight: 1}}})
	if err != nil {
		t.Fatal(err)
	}
	if out.TimePeriod() != 100 {
		t.Errorf("period not carried: %v", out.TimePeriod())
	}
	p, ok := out.ArcProfile(findArc(t, out, 0, 1))
	if !ok {
		t.Fatal("profile lost across structural rebuild")
	}
	if p.Eval(50, out.TimePeriod()) != 10 {
		t.Errorf("carried profile evaluates wrong: %v", p)
	}
	if _, ok := out.ArcProfile(findArc(t, out, 0, 2)); ok {
		t.Error("added edge gained a profile")
	}
	// Removing the profiled edge drops its profile entirely.
	out2, err := out.Apply(Edits{RemoveEdges: []EdgeChange{{U: 0, V: 1}}})
	if err != nil {
		t.Fatal(err)
	}
	if out2.HasTimeProfiles() {
		t.Error("removed edge's profile survived")
	}
}

func TestReversedDropsTimeTable(t *testing.T) {
	b := NewBuilder(true)
	b.AddVertex(pt(0, 0))
	b.AddVertex(pt(1, 0))
	e := b.AddEdge(0, 1, 5)
	if err := b.SetEdgeProfile(e, Profile{Times: []float64{0, 40000}, Costs: []float64{2, 6}}); err != nil {
		t.Fatal(err)
	}
	g := b.Build()
	if !g.HasTimeProfiles() {
		t.Fatal("directed graph lost its profile")
	}
	rg := g.Reversed()
	if rg.HasTimeProfiles() {
		t.Error("reversed graph carries a time table; reverse searches must run on the lower-bound graph")
	}
	// The reversed arc carries the lower-bound weight.
	if w, ok := rg.EdgeWeight(1, 0); !ok || w != 2 {
		t.Errorf("reversed lower-bound weight = %v, %v; want 2", w, ok)
	}
}

func TestBuilderProfileErrors(t *testing.T) {
	b := NewBuilder(false)
	b.AddVertex(pt(0, 0))
	b.AddVertex(pt(1, 0))
	e := b.AddEdge(0, 1, 5)
	if err := b.SetEdgeProfile(e, Profile{Times: []float64{0, 2}, Costs: []float64{10, 0}}); !errors.Is(err, ErrBadProfile) {
		t.Errorf("non-FIFO profile accepted by builder: %v", err)
	}
	if err := b.SetEdgeProfile(99, ConstantProfile(1)); err == nil {
		t.Error("dead edge index accepted")
	}
	if err := b.SetTimePeriod(-1); !errors.Is(err, ErrBadProfile) {
		t.Errorf("negative period accepted: %v", err)
	}
	if err := b.SetEdgeProfile(e, ConstantProfile(1)); err != nil {
		t.Fatal(err)
	}
	if err := b.SetTimePeriod(50); err == nil {
		t.Error("period change after profiles attached accepted")
	}
	if err := b.SetTimePeriod(DefaultPeriod); err != nil {
		t.Errorf("re-declaring the effective period failed: %v", err)
	}
}

// TestPeriodStickyAfterClearing pins the declared time domain: clearing
// or removing the last profiled edge must not revert the period to the
// default.
func TestPeriodStickyAfterClearing(t *testing.T) {
	g := buildProfiled(t, Profile{Times: []float64{0, 50}, Costs: []float64{4, 10}})

	// Patch path: clear the only profile.
	out, err := g.Apply(Edits{SetProfiles: []ProfileChange{{U: 0, V: 1, Clear: true}}})
	if err != nil {
		t.Fatal(err)
	}
	if out.HasTimeProfiles() {
		t.Fatal("profile survived clearing")
	}
	if out.TimePeriod() != 100 {
		t.Fatalf("period after clear = %v, want 100", out.TimePeriod())
	}
	// A later profile must validate against the declared period, not the
	// default day.
	_, err = out.Apply(Edits{SetProfiles: []ProfileChange{
		{U: 0, V: 1, Profile: Profile{Times: []float64{0, 5000}, Costs: []float64{1, 1}}},
	}})
	if !errors.Is(err, ErrBadProfile) {
		t.Fatalf("breakpoint past declared period accepted after clear: %v", err)
	}

	// Structural path: remove the only profiled edge.
	out2, err := g.Apply(Edits{RemoveEdges: []EdgeChange{{U: 0, V: 1}}})
	if err != nil {
		t.Fatal(err)
	}
	if out2.HasTimeProfiles() {
		t.Fatal("removed edge's profile survived")
	}
	if out2.TimePeriod() != 100 {
		t.Fatalf("period after structural removal = %v, want 100", out2.TimePeriod())
	}

	// A graph that never declared a period stays table-less across edits.
	b := NewBuilder(false)
	b.AddVertex(pt(0, 0))
	b.AddVertex(pt(1, 0))
	b.AddEdge(0, 1, 5)
	sg := b.Build()
	sOut, err := sg.Apply(Edits{SetWeights: []EdgeChange{{U: 0, V: 1, Weight: 6}}})
	if err != nil {
		t.Fatal(err)
	}
	if sOut.TimeTable() != nil {
		t.Fatal("static graph grew a time table from a weight edit")
	}
	sOut2, err := sg.Apply(Edits{AddEdges: []EdgeChange{{U: 1, V: 0, Weight: 1}}})
	if err != nil {
		t.Fatal(err)
	}
	if sOut2.TimeTable() != nil {
		t.Fatal("static graph grew a time table from a structural edit")
	}
}
