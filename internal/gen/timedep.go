package gen

import (
	"fmt"
	"math"
	"math/rand"

	"skysr/internal/dataset"
	"skysr/internal/graph"
)

// This file generates time-dependent travel-time profiles for synthetic
// datasets — the rush-hour workload family of Costa et al., "Optimal
// Time-dependent Sequenced Route Queries in Road Networks". Profiles are
// periodic piecewise-linear FIFO functions (graph.Profile); the
// generator keeps every profile's minimum equal to the edge's free-flow
// weight, so attaching profiles never changes the lower-bound graph —
// resident index rows stay valid and are carried across the update.

// Fractions of the period where the generated congestion peaks sit
// (morning and evening rush on a one-day period).
const (
	morningPeakLo = 0.28
	morningPeakHi = 0.36
	eveningPeakLo = 0.70
	eveningPeakHi = 0.78
	rampFrac      = 0.08 // ramp length on each side of a peak
)

// TimeProfiles generates rush-hour profiles for a deterministic
// pseudo-random fraction of the dataset's edges and returns them as
// graph.ProfileChange operands (apply them with graph.Edits.SetProfiles
// or skysr.UpdateBatch.SetEdgeProfile). Each profiled edge costs its
// free-flow weight off-peak and rises by independent random factors in
// [1.3, 2.5) during the morning and evening peaks; factors are clamped
// so every ramp respects the FIFO slope bound whatever the weight scale.
// Generation is deterministic in seed and visits edges in the canonical
// serialization order.
func TimeProfiles(d *dataset.Dataset, frac float64, seed int64) []graph.ProfileChange {
	g := d.Graph
	period := g.TimePeriod()
	rng := rand.New(rand.NewSource(seed))
	var out []graph.ProfileChange
	for u := graph.VertexID(0); int(u) < g.NumVertices(); u++ {
		ts, ws := g.Neighbors(u)
		for i, t := range ts {
			if !g.Directed() && u > t {
				continue // visit each logical edge once
			}
			pick := rng.Float64() < frac
			fm := 1.3 + rng.Float64()*1.2 // always draw: selection never
			fe := 1.3 + rng.Float64()*1.2 // shifts the stream per edge
			if !pick {
				continue
			}
			p := rushHourProfile(ws[i], fm, fe, period)
			if p.Validate(period) != nil || p.Constant() {
				continue // degenerate weight (0): no congestion to express
			}
			out = append(out, graph.ProfileChange{U: u, V: t, Profile: p})
		}
	}
	return out
}

// rushHourProfile builds one two-peak profile over the given period for
// an edge of free-flow weight w. The FIFO bound caps each peak factor:
// the downhill ramp drops w·(f−1) cost over rampFrac·period time, which
// must not be steeper than −1.
func rushHourProfile(w, fm, fe, period float64) graph.Profile {
	if w > 0 {
		if maxF := 1 + rampFrac*period/w; fm > maxF {
			fm = maxF
		}
		if maxF := 1 + rampFrac*period/w; fe > maxF {
			fe = maxF
		}
	}
	bp := []struct{ at, f float64 }{
		{0, 1},
		{morningPeakLo - rampFrac, 1},
		{morningPeakLo, fm},
		{morningPeakHi, fm},
		{morningPeakHi + rampFrac, 1},
		{eveningPeakLo - rampFrac, 1},
		{eveningPeakLo, fe},
		{eveningPeakHi, fe},
		{eveningPeakHi + rampFrac, 1},
	}
	p := graph.Profile{
		Times: make([]float64, len(bp)),
		Costs: make([]float64, len(bp)),
	}
	for i, b := range bp {
		p.Times[i] = b.at * period
		p.Costs[i] = w * b.f
	}
	return p
}

// RandomFIFOProfile returns a random valid FIFO profile over the given
// period: n breakpoints at random times, costs in (0, maxCost], repaired
// to the FIFO slope bound. The correctness property suites use it to
// exercise the time-dependent search with unstructured profiles.
// Breakpoints sit on multiples of 1/16 below the period, so n is capped
// at how many there are. A period that is not positive and finite
// panics.
func RandomFIFOProfile(rng *rand.Rand, period float64, n int, maxCost float64) graph.Profile {
	steps := math.Ceil(period * 16) // the multiples k/16 with 0 ≤ k/16 < period
	if !(steps >= 1) || math.IsInf(steps, 1) {
		panic(fmt.Sprintf("gen: RandomFIFOProfile period %v is not positive and finite", period))
	}
	if n < 1 {
		n = 1
	}
	if float64(n) > steps {
		n = int(steps)
	}
	times := make([]float64, 0, n)
	seen := map[float64]bool{}
	for len(times) < n {
		t := math.Floor(rng.Float64()*period*16) / 16
		if t >= period || seen[t] {
			continue
		}
		seen[t] = true
		times = append(times, t)
	}
	sortAscending(times)
	costs := make([]float64, n)
	for i := range costs {
		costs[i] = maxCost * (0.1 + 0.9*rng.Float64())
	}
	// Repair the FIFO slope bound to a fixpoint: raising a cost to fix
	// one segment can break the next; repairs only raise costs and are
	// bounded, so the sweep terminates.
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
	p := graph.Profile{Times: times, Costs: costs}
	if p.Validate(period) != nil {
		return graph.ConstantProfile(costs[0])
	}
	return p
}

func sortAscending(xs []float64) {
	for i := 1; i < len(xs); i++ {
		for j := i; j > 0 && xs[j] < xs[j-1]; j-- {
			xs[j], xs[j-1] = xs[j-1], xs[j]
		}
	}
}
