package graph

// This file implements the cost metrics: what traversing an arc costs.
// A static graph's arcs cost their scalar edge weight. A time-dependent
// graph attaches piecewise-linear FIFO travel-time profiles (the setting
// of Costa et al., "Optimal Time-dependent Sequenced Route Queries in
// Road Networks") to some arcs, and two methods expose them:
//
//   - CostAt(arc, t) is the cost of traversing the arc when its tail is
//     left at absolute time t;
//   - EdgeWeight (the CSR weight column) is the minimum of that cost over
//     the whole time domain.
//
// The graph's CSR weights array always holds the per-arc lower bound, so
// every distance computed from the raw weights — index rows, the §5.3.3
// hop minima, Algorithm 4 radii, destination tables — is automatically a
// distance in the lower-bound graph and therefore an admissible
// lower bound of the true time-dependent cost. That single invariant is
// what lets the paper's pruning survive the generalization unchanged.
//
// Profiles are FIFO: departing later never arrives earlier. For a
// piecewise-linear profile that is exactly "every segment has slope
// ≥ −1" (including the wrap-around segment), which Validate enforces.
// Under FIFO, label-setting Dijkstra with cost-at-arrival evaluation
// remains exact (Dreyfus 1969), prefixes of shortest paths stay
// shortest, and the Lemma 5.5 substitution argument carries over — see
// ARCHITECTURE.md, "Cost metrics".

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// DefaultPeriod is the time-domain length applied when a dataset attaches
// profiles without declaring a period: one day in seconds.
const DefaultPeriod = 86400.0

// ErrBadProfile is the typed error wrapping every profile validation
// failure: non-FIFO slopes, unsorted or out-of-range breakpoints,
// negative or non-finite costs. Dataset loading and live updates both
// reject invalid profiles with it.
var ErrBadProfile = errors.New("graph: invalid time profile")

// Profile is a periodic piecewise-linear travel-time function. Times are
// breakpoint offsets in [0, period), strictly ascending; Costs are the
// arc costs at those offsets. Between breakpoints the cost interpolates
// linearly; between the last breakpoint and the first-plus-period it
// wraps around. A single breakpoint means a constant cost.
type Profile struct {
	Times []float64
	Costs []float64
}

// ConstantProfile returns the profile that costs w at every departure
// time. Attaching it to an edge is semantically identical to a static
// edge of weight w.
func ConstantProfile(w float64) Profile {
	return Profile{Times: []float64{0}, Costs: []float64{w}}
}

// Constant reports whether the profile's cost never varies.
func (p Profile) Constant() bool {
	for _, c := range p.Costs[1:] {
		if c != p.Costs[0] {
			return false
		}
	}
	return true
}

// Min returns the minimum cost over the whole time domain. A piecewise-
// linear function attains its minimum at a breakpoint.
func (p Profile) Min() float64 {
	min := math.Inf(1)
	for _, c := range p.Costs {
		if c < min {
			min = c
		}
	}
	return min
}

// Validate checks the profile against the FIFO travel-time contract for
// the given period. All failures wrap ErrBadProfile.
func (p Profile) Validate(period float64) error {
	if period <= 0 || math.IsNaN(period) || math.IsInf(period, 0) {
		return fmt.Errorf("%w: period %v is not positive and finite", ErrBadProfile, period)
	}
	n := len(p.Times)
	if n == 0 {
		return fmt.Errorf("%w: no breakpoints", ErrBadProfile)
	}
	if len(p.Costs) != n {
		return fmt.Errorf("%w: %d times for %d costs", ErrBadProfile, n, len(p.Costs))
	}
	for i, t := range p.Times {
		if math.IsNaN(t) || t < 0 || t >= period {
			return fmt.Errorf("%w: breakpoint time %v outside [0, %v)", ErrBadProfile, t, period)
		}
		if i > 0 && t <= p.Times[i-1] {
			return fmt.Errorf("%w: breakpoint times not strictly ascending (%v after %v)", ErrBadProfile, t, p.Times[i-1])
		}
	}
	for _, c := range p.Costs {
		if c < 0 || math.IsNaN(c) || math.IsInf(c, 0) {
			return fmt.Errorf("%w: cost %v is not finite and non-negative", ErrBadProfile, c)
		}
	}
	// FIFO: slope ≥ −1 on every segment, wrap segment included. A slope
	// below −1 would let a later departure overtake an earlier one.
	for i := 0; i < n; i++ {
		t0, c0 := p.Times[i], p.Costs[i]
		var t1, c1 float64
		if i+1 < n {
			t1, c1 = p.Times[i+1], p.Costs[i+1]
		} else {
			t1, c1 = p.Times[0]+period, p.Costs[0]
		}
		if t1 == t0 {
			continue // single breakpoint wrapping onto itself (constant)
		}
		if (c1-c0)/(t1-t0) < -1 {
			return fmt.Errorf("%w: segment [%v, %v] has slope %v < -1 (non-FIFO)",
				ErrBadProfile, t0, t1, (c1-c0)/(t1-t0))
		}
	}
	return nil
}

// Eval returns the cost at departure time t (any real; the profile is
// periodic with the given period).
func (p Profile) Eval(t, period float64) float64 {
	n := len(p.Times)
	if n == 1 {
		return p.Costs[0]
	}
	t = math.Mod(t, period)
	if t < 0 {
		t += period
	}
	// i is the last breakpoint with Times[i] <= t; t before the first
	// breakpoint falls on the wrap segment from the last one.
	i := sort.SearchFloat64s(p.Times, t)
	if i < n && p.Times[i] == t {
		return p.Costs[i]
	}
	i--
	var t0, c0, t1, c1 float64
	if i < 0 {
		t0, c0 = p.Times[n-1]-period, p.Costs[n-1]
		t1, c1 = p.Times[0], p.Costs[0]
	} else if i == n-1 {
		t0, c0 = p.Times[n-1], p.Costs[n-1]
		t1, c1 = p.Times[0]+period, p.Costs[0]
	} else {
		t0, c0 = p.Times[i], p.Costs[i]
		t1, c1 = p.Times[i+1], p.Costs[i+1]
	}
	return c0 + (c1-c0)*(t-t0)/(t1-t0)
}

// clone returns a deep copy of the profile.
func (p Profile) clone() Profile {
	return Profile{
		Times: append([]float64(nil), p.Times...),
		Costs: append([]float64(nil), p.Costs...),
	}
}

// TimeTable holds the time-dependent state of a graph: one shared period
// and, per CSR arc, an optional profile. Arcs without a profile keep
// their static weight at every departure time. A TimeTable is immutable
// once attached to a built graph.
type TimeTable struct {
	period   float64
	arcProf  []int32 // per arc: index into profiles, -1 for static arcs
	profiles []Profile

	// evalProf is the evaluation table finalize derives: arcs whose
	// profile never varies are resolved to -1 (their weight column
	// already equals the constant cost), so constant profiles cost
	// nothing at query time. varying records whether any profile
	// actually varies — when none does, the whole graph evaluates (and
	// caches, and shares) exactly like a static one.
	evalProf []int32
	varying  bool
}

// finalize derives the evaluation table from the attached profiles. It
// must be called whenever arcProf/profiles change (graph build, cost
// patching).
func (tt *TimeTable) finalize() {
	tt.evalProf = make([]int32, len(tt.arcProf))
	tt.varying = false
	for i, pid := range tt.arcProf {
		if pid >= 0 && !tt.profiles[pid].Constant() {
			tt.evalProf[i] = pid
			tt.varying = true
		} else {
			tt.evalProf[i] = -1
		}
	}
}

// Period returns the time-domain length profiles repeat over.
func (tt *TimeTable) Period() float64 { return tt.period }

// NumProfiles returns the number of distinct edge profiles.
func (tt *TimeTable) NumProfiles() int { return len(tt.profiles) }

// memoryFootprintBytes estimates the heap bytes of the table.
func (tt *TimeTable) memoryFootprintBytes() int64 {
	b := int64(len(tt.arcProf)) * 4
	for _, p := range tt.profiles {
		b += int64(len(p.Times)) * 16
	}
	return b
}

// HasTimeProfiles reports whether any arc carries an attached profile —
// the structural predicate serialization uses. A graph can have profiles
// yet not be TimeVarying (all of them constant).
func (g *Graph) HasTimeProfiles() bool {
	return g.tt != nil && len(g.tt.profiles) > 0
}

// TimeVarying reports whether any attached profile actually varies with
// departure time — the evaluation predicate the search layer keys off.
// Non-varying graphs answer identically at every departure and run the
// byte-identical static code paths (same caches, same sharing).
func (g *Graph) TimeVarying() bool {
	return g.tt != nil && g.tt.varying
}

// TimeTable returns the attached time table, nil for static graphs.
func (g *Graph) TimeTable() *TimeTable { return g.tt }

// TimePeriod returns the period of the graph's time domain
// (DefaultPeriod when no time table is attached).
func (g *Graph) TimePeriod() float64 {
	if g.tt != nil {
		return g.tt.period
	}
	return DefaultPeriod
}

// ArcBase returns the CSR index of v's first out-arc; the arc of
// Neighbors(v)'s i-th entry is ArcBase(v)+i. The Dijkstra family uses it
// to evaluate per-arc costs through a Metric.
func (g *Graph) ArcBase(v VertexID) int32 { return g.offsets[v] }

// CostAt returns the cost of the arc when its tail is left at absolute
// time t: the profile evaluation for profiled arcs, the static weight
// otherwise.
func (g *Graph) CostAt(arc int32, t float64) float64 {
	if g.tt == nil {
		return g.weights[arc]
	}
	pid := g.tt.evalProf[arc]
	if pid < 0 {
		return g.weights[arc]
	}
	return g.tt.profiles[pid].Eval(t, g.tt.period)
}

// ArcProfile returns the profile of the arc and whether one is attached.
func (g *Graph) ArcProfile(arc int32) (Profile, bool) {
	if g.tt == nil || g.tt.arcProf[arc] < 0 {
		return Profile{}, false
	}
	return g.tt.profiles[g.tt.arcProf[arc]], true
}
