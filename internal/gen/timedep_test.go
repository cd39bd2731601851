package gen

import (
	"math"
	"math/rand"
	"testing"

	"skysr/internal/graph"
)

func TestTimeProfilesValidAndDeterministic(t *testing.T) {
	d, err := BuildPreset("tokyo", 0.05, 3)
	if err != nil {
		t.Fatal(err)
	}
	a := TimeProfiles(d, 0.5, 9)
	b := TimeProfiles(d, 0.5, 9)
	if len(a) == 0 {
		t.Fatal("no profiles generated")
	}
	if len(a) != len(b) {
		t.Fatalf("non-deterministic: %d vs %d profiles", len(a), len(b))
	}
	period := d.Graph.TimePeriod()
	for i, pc := range a {
		if pc.Clear {
			t.Fatalf("generator emitted a clear op")
		}
		if err := pc.Profile.Validate(period); err != nil {
			t.Fatalf("profile %d invalid: %v", i, err)
		}
		// The profile minimum equals the edge weight: attaching never
		// changes the lower-bound graph (the row carry guarantee).
		w, ok := d.Graph.EdgeWeight(pc.U, pc.V)
		if !ok {
			t.Fatalf("profile %d names missing edge (%d,%d)", i, pc.U, pc.V)
		}
		if pc.Profile.Min() != w {
			t.Fatalf("profile %d min %v != edge weight %v", i, pc.Profile.Min(), w)
		}
		if pc.Profile.Constant() {
			t.Fatalf("profile %d is constant; rush-hour profiles must vary", i)
		}
		if b[i].U != pc.U || b[i].V != pc.V {
			t.Fatalf("profile %d edge differs between runs", i)
		}
	}
	// Different seeds pick different edge sets (overwhelmingly likely).
	c := TimeProfiles(d, 0.5, 10)
	same := len(c) == len(a)
	if same {
		for i := range a {
			if a[i].U != c[i].U || a[i].V != c[i].V {
				same = false
				break
			}
		}
	}
	if same {
		t.Error("seeds 9 and 10 generated identical profile sets")
	}
}

func TestRandomFIFOProfileAlwaysValid(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 500; trial++ {
		period := 10 + rng.Float64()*1000
		p := RandomFIFOProfile(rng, period, 1+rng.Intn(8), 1+rng.Float64()*20)
		if err := p.Validate(period); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
	}
	var zero graph.Profile
	if len(zero.Times) != 0 {
		t.Fatal("unexpected zero profile state")
	}
}

// TestRandomFIFOProfileShortPeriod: a period holding fewer 1/16 steps
// than the breakpoints asked for gets at most one breakpoint per step
// instead of a search for times that do not exist, and a period that is
// not positive and finite panics.
func TestRandomFIFOProfileShortPeriod(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 50; trial++ {
		p := RandomFIFOProfile(rng, 0.1, 3, 12)
		if err := p.Validate(0.1); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if len(p.Times) > 2 {
			t.Fatalf("trial %d: %d breakpoints in a period holding 2 steps", trial, len(p.Times))
		}
	}
	for _, period := range []float64{0, -1, math.NaN(), math.Inf(1)} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("period %v: no panic", period)
				}
			}()
			RandomFIFOProfile(rng, period, 3, 12)
		}()
	}
}
