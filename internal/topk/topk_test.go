package topk

import (
	"math"
	"math/rand"
	"testing"

	"skysr/internal/graph"
	"skysr/internal/osr"
	"skysr/internal/route"
)

// fakeRoute builds a standalone route with the given scores: one hop of
// distance l whose similarity h makes the product score 1−h = s.
func fakeRoute(sc route.Scorer, v graph.VertexID, l, s float64) *route.Route {
	return route.Empty(sc).Extend(sc, v, l, 1-s)
}

// randomStream generates n routes over a small score grid, dense enough
// to exercise duplicate points, equal lengths at different levels and
// equal levels at different lengths.
func randomStream(rng *rand.Rand, n int) []*route.Route {
	sc := route.NewScorer(route.AggProduct, 1)
	out := make([]*route.Route, n)
	for i := range out {
		l := float64(1 + rng.Intn(8))
		s := float64(rng.Intn(5)) / 8
		out[i] = fakeRoute(sc, graph.VertexID(i), l, s)
	}
	return out
}

// TestSkybandOneEqualsSkyline feeds identical random streams to a k=1
// Skyband and to route.Skyline: accept/reject decisions, membership,
// representatives and thresholds must coincide exactly — the invariant
// behind the "SearchTopK with k=1 is byte-identical to Search" guarantee.
func TestSkybandOneEqualsSkyline(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 200; trial++ {
		band := NewSkyband(1)
		sky := route.NewSkyline()
		for _, r := range randomStream(rng, 40) {
			if got, want := band.Update(r), sky.Update(r); got != want {
				t.Fatalf("trial %d: Update(%v) band=%v skyline=%v", trial, r, got, want)
			}
		}
		br, sr := band.Routes(), sky.Routes()
		if len(br) != len(sr) {
			t.Fatalf("trial %d: band has %d routes, skyline %d", trial, len(br), len(sr))
		}
		for i := range br {
			if br[i] != sr[i] {
				t.Fatalf("trial %d: member %d differs: band %v skyline %v", trial, i, br[i], sr[i])
			}
		}
		for sem := 0.0; sem <= 1.0; sem += 0.0625 {
			if got, want := band.Threshold(sem), sky.Threshold(sem); got != want {
				t.Fatalf("trial %d: Threshold(%g) band=%g skyline=%g", trial, sem, got, want)
			}
		}
		if got, want := band.ThresholdPerfect(), sky.ThresholdPerfect(); got != want {
			t.Fatalf("trial %d: ThresholdPerfect band=%g skyline=%g", trial, got, want)
		}
	}
}

// TestSkybandMatchesBand checks the incremental structure against the
// set-level ground truth: after any insertion order, the accepted points
// must be exactly osr.Band(all points seen, k), and the k-th-best
// threshold must agree with a direct selection over them.
func TestSkybandMatchesBand(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for _, k := range []int{1, 2, 3, 5, 9} {
		for trial := 0; trial < 100; trial++ {
			band := NewSkyband(k)
			var pts []route.Point3
			for _, r := range randomStream(rng, 50) {
				band.Update(r)
				pts = append(pts, route.Point3{L: r.Length(), S: r.Semantic()})
			}
			want := osr.Band(pts, k)
			got := band.Routes()
			if len(got) != len(want) {
				t.Fatalf("k=%d trial %d: band has %d points, ground truth %d\nband: %v\nwant: %v",
					k, trial, len(got), len(want), got, want)
			}
			for i := range got {
				if got[i].Length() != want[i].L || got[i].Semantic() != want[i].S {
					t.Fatalf("k=%d trial %d: point %d = (%g, %g), want (%g, %g)",
						k, trial, i, got[i].Length(), got[i].Semantic(), want[i].L, want[i].S)
				}
			}
			// Threshold must be the k-th smallest member length per level.
			for sem := 0.0; sem <= 1.0; sem += 0.125 {
				var lengths []float64
				for _, p := range want {
					if p.S <= sem {
						lengths = append(lengths, p.L)
					}
				}
				wantTh := math.Inf(1)
				if len(lengths) >= k {
					for i := 0; i < len(lengths); i++ { // selection sort is fine at this size
						for j := i + 1; j < len(lengths); j++ {
							if lengths[j] < lengths[i] {
								lengths[i], lengths[j] = lengths[j], lengths[i]
							}
						}
					}
					wantTh = lengths[k-1]
				}
				if got := band.Threshold(sem); got != wantTh {
					t.Fatalf("k=%d trial %d: Threshold(%g) = %g, want %g", k, trial, sem, got, wantTh)
				}
			}
		}
	}
}

// TestSkybandMonotoneInK: the k-band's points are a subset of the
// (k+1)-band's over the same stream — more alternatives never lose the
// better-ranked ones.
func TestSkybandMonotoneInK(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 50; trial++ {
		stream := randomStream(rng, 60)
		var prev []route.Point3
		for k := 1; k <= 6; k++ {
			band := NewSkyband(k)
			for _, r := range stream {
				band.Update(r)
			}
			var cur []route.Point3
			for _, m := range band.Routes() {
				cur = append(cur, route.Point3{L: m.Length(), S: m.Semantic()})
			}
			for _, p := range prev {
				found := false
				for _, q := range cur {
					if p == q {
						found = true
						break
					}
				}
				if !found {
					t.Fatalf("trial %d: point %v in %d-band but missing from %d-band", trial, p, k-1, k)
				}
			}
			prev = cur
		}
	}
}

// TestSkybandCoversPoint cross-checks the k-witness test against the
// count definition and the threshold form.
func TestSkybandCoversPoint(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	for _, k := range []int{1, 2, 4} {
		band := NewSkyband(k)
		for _, r := range randomStream(rng, 80) {
			band.Update(r)
		}
		for l := 0.5; l <= 9; l += 0.5 {
			for sem := 0.0; sem <= 1.0; sem += 0.125 {
				want := band.countLE(l, sem) >= k
				if got := band.CoversPoint(l, sem); got != want {
					t.Fatalf("k=%d: CoversPoint(%g, %g) = %v, want %v", k, l, sem, got, want)
				}
				if got := l >= band.Threshold(sem); got != want {
					t.Fatalf("k=%d: threshold form at (%g, %g) = %v, want %v", k, l, sem, got, want)
				}
			}
		}
	}
}

// TestSkybandDuplicatePoint: the first route achieving a score point is
// the representative; an equal-scoring later route never displaces it.
func TestSkybandDuplicatePoint(t *testing.T) {
	sc := route.NewScorer(route.AggProduct, 1)
	band := NewSkyband(3)
	first := fakeRoute(sc, 1, 5, 0.25)
	if !band.Update(first) {
		t.Fatal("first route rejected")
	}
	if band.Update(fakeRoute(sc, 2, 5, 0.25)) {
		t.Fatal("duplicate score point accepted")
	}
	if got := band.Routes(); len(got) != 1 || got[0] != first {
		t.Fatalf("representative changed: %v", got)
	}
}

// TestBandGroundTruth pins the semantics of osr.Band, the ground truth
// above, on a hand-checked instance.
func TestBandGroundTruth(t *testing.T) {
	pts := []route.Point3{
		{L: 4}, {L: 6}, {L: 9}, // level 0: (9, 0) is third-best, out at k=2
		{L: 3, S: 0.5}, {L: 5, S: 0.5}, // level 0.5: (5, .5) trails (4, 0) and (3, .5)
		{L: 2, S: 0.75}, {L: 7, S: 0.75}, // level 0.75: (7, .75) trails everything
		{L: 4}, // duplicate, must collapse
	}
	got := osr.Band(pts, 2)
	want := []route.Point3{{L: 2, S: 0.75}, {L: 3, S: 0.5}, {L: 4}, {L: 6}}
	if len(got) != len(want) {
		t.Fatalf("Band = %v, want %v", got, want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("Band = %v, want %v", got, want)
		}
	}
}
