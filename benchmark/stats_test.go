package main

import (
	"sync"
	"testing"
	"time"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[n-1-i] = float64(i + 1) // descending: percentile must sort
	}
	return xs
}

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		p    float64
		min  int
		want float64 // value at n = min for 1..n
	}{
		{0.5, 20, 10},
		{0.95, 200, 190},
		{0.99, 1000, 990},
	} {
		if got := minSamples(tc.p); got != tc.min {
			t.Errorf("minSamples(%v) = %d, want %d", tc.p, got, tc.min)
		}
		if _, err := percentile(seq(tc.min-1), tc.p); err == nil {
			t.Errorf("p%v of %d samples: want refusal", tc.p*100, tc.min-1)
		}
		got, err := percentile(seq(tc.min), tc.p)
		if err != nil {
			t.Fatalf("p%v of %d samples: %v", tc.p*100, tc.min, err)
		}
		if got != tc.want {
			t.Errorf("p%v of 1..%d = %v, want %v", tc.p*100, tc.min, got, tc.want)
		}
	}
}

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// Expected values from Python: statistics.quantiles(xs, n=4).
	for _, tc := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{3, 1, 4, 1, 5, 9, 2, 6}, [3]float64{1.25, 3.5, 5.75}},
		{[]float64{2.5, 7.25}, [3]float64{1.3125, 4.875, 8.4375}},
		{[]float64{10, 20, 30}, [3]float64{10, 20, 30}},
	} {
		q1, q2, q3, err := quartiles(tc.xs)
		if err != nil {
			t.Fatal(err)
		}
		if got := [3]float64{q1, q2, q3}; got != tc.want {
			t.Errorf("quartiles(%v) = %v, want %v", tc.xs, got, tc.want)
		}
	}
	if _, _, _, err := quartiles([]float64{1}); err == nil {
		t.Error("quartiles of one value: want error")
	}
}

// fakeClock advances only when a request takes time or the generator
// sleeps, so the schedule is exact.
type fakeClock struct {
	mu  sync.Mutex
	now time.Time
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *fakeClock) SleepUntil(t time.Time) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.now.Before(t) {
		c.now = t
	}
}

func (c *fakeClock) advance(d time.Duration) {
	c.mu.Lock()
	c.now = c.now.Add(d)
	c.mu.Unlock()
}

func TestOpenLoopTimesFromDueThroughAStall(t *testing.T) {
	clk := &fakeClock{now: time.Unix(1000, 0)}
	const ms = time.Millisecond
	// 100 requests/s: one due every 10 ms. Each takes 1 ms, except request
	// 3, which stalls for 35 ms; requests 4-6 fall due during the stall.
	res := openLoop(clk, 100, 10, 1, func(i int) error {
		if i == 3 {
			clk.advance(35 * ms)
		} else {
			clk.advance(ms)
		}
		return nil
	})
	wantLat := []time.Duration{1, 1, 1, 35, 26, 17, 8, 1, 1, 1}
	wantLag := []time.Duration{0, 0, 0, 0, 25, 16, 7, 0, 0, 0}
	for i := range wantLat {
		if res.Latency[i] != wantLat[i]*ms {
			t.Errorf("request %d latency %v, want %v", i, res.Latency[i], wantLat[i]*ms)
		}
		if res.Lag[i] != wantLag[i]*ms {
			t.Errorf("request %d lag %v, want %v", i, res.Lag[i], wantLag[i]*ms)
		}
	}
}

func TestBudget(t *testing.T) {
	b := budget{seconds: 1, minOps: 200}
	if b.done(199, 2*time.Second) {
		t.Error("stopped before minOps")
	}
	if b.done(200, 500*time.Millisecond) {
		t.Error("stopped before the time was up")
	}
	if !b.done(200, time.Second) {
		t.Error("did not stop with minOps done and the time up")
	}
	if !b.done(5, hardStop(1)) {
		t.Error("did not give up at the hard stop")
	}
	if !(budget{ops: 7}).done(7, 0) || (budget{ops: 7}).done(6, time.Hour) {
		t.Error("a replay must run exactly ops requests")
	}
}
