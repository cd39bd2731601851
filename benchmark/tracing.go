package main

import (
	"context"
	"encoding/json"
	"math"
	"os"
	"sort"
	"strings"
	"sync"
	"time"

	"skysr"
	"skysr/internal/trace"
)

// The traced pass: the benchmark opens one trace per operation around the
// call into each layer (http.request, engine.search, engine.update,
// engine.open, index.warm, dijkstra.sweep). Engine calls carry the trace
// in SearchOptions.Context, so the search core hangs its own span tree
// (search → nninit, bounds, leg[i], destleg) beneath. Over HTTP the
// serving tier records its own trace per request (root "route"), pulled
// from /api/debug/traces afterwards. Traces stay in memory and are
// written once, at the end.

// spanNames are the span names reported as span.<name>.self_pct, in
// layer order; leg[i] spans report as "leg".
var spanNames = []string{
	"http.request", "route", "engine.open", "index.warm", "engine.search",
	"engine.update", "dijkstra.sweep", "search", "nninit", "bounds", "leg", "destleg",
}

// tracer collects the traces of one traced pass. A nil tracer is off:
// begin and end do nothing, so untraced passes pay one nil check.
type tracer struct {
	mu     sync.Mutex
	local  []*trace.Trace
	server []trace.TraceJSON
}

// begin opens a trace for one operation. With opts non-nil the trace
// rides in opts.Context, where the engine finds it.
func (t *tracer) begin(name string, opts *skysr.SearchOptions) *trace.Trace {
	if t == nil {
		return nil
	}
	tr := trace.New(name)
	if opts != nil {
		opts.Context = trace.NewContext(context.Background(), tr)
	}
	return tr
}

// end finishes tr and keeps it.
func (t *tracer) end(tr *trace.Trace) {
	if t == nil || tr == nil {
		return
	}
	tr.Finish()
	t.mu.Lock()
	t.local = append(t.local, tr)
	t.mu.Unlock()
}

func (t *tracer) addServer(ts []trace.TraceJSON) {
	t.mu.Lock()
	t.server = append(t.server, ts...)
	t.mu.Unlock()
}

// selfTimes returns the self time of every span name: a span's duration
// minus the part of it its children cover. A child counts only within its
// parent, so over one traced operation the self times add up to its
// duration. Server traces nest inside the client's http.request spans but
// share no ID with them, so they are matched in aggregate: http.request
// keeps what the server traces do not account for.
func (t *tracer) selfTimes() map[string]time.Duration {
	self := map[string]time.Duration{}
	for _, tr := range t.local {
		root := tr.JSON().Root
		addSelf(root, root.StartNS, root.StartNS+root.DurationNS, self)
	}
	var served time.Duration
	for _, j := range t.server {
		served += time.Duration(j.Root.DurationNS)
		addSelf(j.Root, j.Root.StartNS, j.Root.StartNS+j.Root.DurationNS, self)
	}
	if served > 0 {
		self["http.request"] = max(0, self["http.request"]-served)
	}
	return self
}

// spanName folds the per-position leg[i] spans into "leg".
func spanName(name string) string {
	if strings.HasPrefix(name, "leg[") {
		return "leg"
	}
	return name
}

// addSelf books the self time of s, which occupies [lo, hi) of its
// parent, and recurses into its children.
func addSelf(s trace.SpanJSON, lo, hi int64, self map[string]time.Duration) {
	ivs := childIntervals(s, lo, hi)
	self[spanName(s.Name)] += time.Duration(hi - lo - union(ivs))
	for i, c := range s.Children {
		addSelf(c, ivs[i][0], ivs[i][1], self)
	}
}

// childIntervals places s's children inside [lo, hi). The search core
// records its leg spans from one shared start (their searches interleave;
// only the durations mean anything), so legs are laid end to end.
func childIntervals(s trace.SpanJSON, lo, hi int64) [][2]int64 {
	out := make([][2]int64, len(s.Children))
	var legEnd int64 = -1
	for i, c := range s.Children {
		start := c.StartNS
		if spanName(c.Name) == "leg" {
			if legEnd >= 0 {
				start = legEnd
			}
			legEnd = start + c.DurationNS
		}
		a, b := max(start, lo), min(start+c.DurationNS, hi)
		out[i] = [2]int64{a, max(a, b)}
	}
	return out
}

// union is the total length covered by ivs.
func union(ivs [][2]int64) int64 {
	sorted := append([][2]int64(nil), ivs...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i][0] < sorted[j][0] })
	var sum int64
	end := int64(math.MinInt64)
	for _, v := range sorted {
		a := max(v[0], end)
		if v[1] > a {
			sum += v[1] - a
			end = v[1]
		}
	}
	return sum
}

// write stores every trace of the pass as JSON.
func (t *tracer) write(path, workload string) error {
	out := struct {
		Workload string            `json:"workload"`
		Traces   []trace.TraceJSON `json:"traces"`
		Server   []trace.TraceJSON `json:"server_traces,omitempty"`
	}{Workload: workload, Server: t.server}
	for _, tr := range t.local {
		out.Traces = append(out.Traces, tr.JSON())
	}
	raw, err := json.Marshal(out)
	if err != nil {
		return err
	}
	return os.WriteFile(path, raw, 0o644)
}
