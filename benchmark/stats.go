package main

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"sort"
	"sync"
	"time"
)

// minBeyond is how many samples must lie beyond a reported percentile.
// With fewer, the value is set by a handful of outliers and does not
// repeat from run to run, so it is refused rather than reported.
const minBeyond = 10

// minSamples is the smallest sample count percentile p accepts.
func minSamples(p float64) int {
	return int(math.Ceil(minBeyond/(1-p) - 1e-9))
}

// percentile returns the nearest-rank p-quantile of xs (0 < p < 1). It
// fails unless at least minBeyond samples lie beyond the rank, so p99
// needs n ≥ 1000, p95 n ≥ 200 and p50 n ≥ 20. xs is not modified.
func percentile(xs []float64, p float64) (float64, error) {
	n := len(xs)
	if p <= 0 || p >= 1 {
		return 0, fmt.Errorf("percentile %v outside (0, 1)", p)
	}
	rank := int(math.Ceil(p*float64(n) - 1e-9)) // 1-based nearest rank
	if rank < 1 || n-rank < minBeyond {
		return 0, fmt.Errorf("p%g needs at least %d samples, have %d", p*100, minSamples(p), n)
	}
	s := slices.Clone(xs)
	sort.Float64s(s)
	return s[rank-1], nil
}

// median returns the middle value of xs (the mean of the two middle values
// for even n); 0 for an empty slice. Set-up repetitions use it, where the
// sample count is small by design and no tail is reported.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// quartiles returns the first quartile, median and third quartile of xs by
// the "exclusive" method of Python's statistics.quantiles(xs, n=4), the
// rule the run-to-run spread check is defined with. It needs two values.
func quartiles(xs []float64) (q1, q2, q3 float64, err error) {
	n := len(xs)
	if n < 2 {
		return 0, 0, 0, fmt.Errorf("quartiles need at least 2 values, have %d", n)
	}
	s := slices.Clone(xs)
	sort.Float64s(s)
	var q [3]float64
	m := n + 1
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		j = max(1, min(j, n-1))
		delta := float64(i*m - j*4)
		q[i-1] = (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q[0], q[1], q[2], nil
}

// spread is the interquartile distance of xs as a share of its median.
func spread(xs []float64) (float64, error) {
	q1, q2, q3, err := quartiles(xs)
	if err != nil {
		return 0, err
	}
	if q2 == 0 {
		return 0, nil
	}
	return (q3 - q1) / math.Abs(q2), nil
}

// millis converts durations to float milliseconds.
func millis(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(time.Millisecond)
	}
	return out
}

// Clock is the time source of the open-loop scheduler; tests substitute a
// fake to drive stalls deterministically.
type Clock interface {
	Now() time.Time
	// SleepUntil returns once Now() is at or after t.
	SleepUntil(t time.Time)
}

type realClock struct{}

func (realClock) Now() time.Time { return time.Now() }

// SleepUntil sleeps to just before t and yields the processor for the
// rest: a timer alone wakes up to half a millisecond late, which the
// open loop would otherwise book as latency.
func (realClock) SleepUntil(t time.Time) {
	if d := time.Until(t) - spinWindow; d > 0 {
		time.Sleep(d)
	}
	for time.Now().Before(t) {
		runtime.Gosched()
	}
}

const spinWindow = time.Millisecond

// openLoopResult holds, per request i, its latency measured from when it
// was due (not from when it was sent), and how late it was sent.
type openLoopResult struct {
	Latency []time.Duration
	Lag     []time.Duration
	Err     []error
}

// openLoop issues n requests at a fixed rate over conns connections.
// Request i is due at start + i/rate whatever happened before it; each
// connection takes the next request as soon as it is free and sends it at
// its due time, or at once when it is already late. A stall therefore
// delays every request due during it, and that wait is part of their
// latency. Lag is send time minus due time: how far the generator fell
// behind its schedule.
func openLoop(clk Clock, rate float64, n, conns int, do func(i int) error) openLoopResult {
	res := openLoopResult{
		Latency: make([]time.Duration, n),
		Lag:     make([]time.Duration, n),
		Err:     make([]error, n),
	}
	start := clk.Now()
	var (
		mu   sync.Mutex
		next int
		wg   sync.WaitGroup
	)
	claim := func() int {
		mu.Lock()
		defer mu.Unlock()
		i := next
		next++
		return i
	}
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := claim()
				if i >= n {
					return
				}
				due := start.Add(time.Duration(float64(i) / rate * float64(time.Second)))
				clk.SleepUntil(due)
				sent := clk.Now()
				res.Err[i] = do(i)
				res.Latency[i] = clk.Now().Sub(due)
				res.Lag[i] = sent.Sub(due)
			}
		}()
	}
	wg.Wait()
	return res
}
