package main

import (
	"testing"
	"time"

	"skysr/internal/trace"
)

func records(workload string, digest string, metric string, vals ...float64) []*Record {
	var out []*Record
	for i, v := range vals {
		r := newRecord(workload, int64(i+1), false, 1)
		r.AnswerDigest = digest
		r.put(metric, v, "ms", 0)
		out = append(out, r)
	}
	return out
}

func TestCompareVerdicts(t *testing.T) {
	s := &spec{EndToEnd: []specMetric{{Name: "latency_p50_ms", Unit: "ms", Better: "lower", Bound: 0.1}}}
	base := []float64{10, 10.1, 9.9, 10.05, 9.95}
	for _, tc := range []struct {
		name string
		b    []float64
		want string
	}{
		{"same", []float64{10, 10.02, 9.97, 10.1, 9.9}, verdictOK},
		{"within bound", []float64{10.8, 10.9, 10.7, 10.85, 10.75}, verdictOK},
		{"regressed", []float64{12, 12.1, 11.9, 12.05, 11.95}, verdictRegressed},
		{"noisy", []float64{8, 12, 10, 14, 6}, verdictUnresolved},
		{"noisy but every run better", []float64{5, 8, 6, 9.5, 7}, verdictOK},
	} {
		rows, err := compareRecords(s, records("w", "d", "latency_p50_ms", base...), records("w", "d", "latency_p50_ms", tc.b...))
		if err != nil {
			t.Fatal(err)
		}
		if len(rows) != 1 || rows[0].Verdict != tc.want {
			t.Errorf("%s: verdict %+v, want %s", tc.name, rows, tc.want)
		}
	}
}

func TestDigestMismatch(t *testing.T) {
	a := records("w", "d1", "latency_p50_ms", 1, 2)
	if bad := digestMismatches(a, records("w", "d1", "latency_p50_ms", 1, 2)); len(bad) != 0 {
		t.Errorf("equal digests reported as %v", bad)
	}
	if bad := digestMismatches(a, records("w", "d2", "latency_p50_ms", 1)); len(bad) != 1 {
		t.Errorf("changed digest of seed 1 reported as %v", bad)
	}
}

func TestSelfTimeLaysLegsEndToEnd(t *testing.T) {
	// search [10,110) with nninit [10,20), bounds [20,25) and legs that
	// all start at 25 (as the core records them) lasting 30, 20 and 60:
	// laid end to end they would run to 135, so the last is cut at 110.
	root := trace.SpanJSON{Name: "engine.search", DurationNS: 120, Children: []trace.SpanJSON{{
		Name: "search", StartNS: 10, DurationNS: 100, Children: []trace.SpanJSON{
			{Name: "nninit", StartNS: 10, DurationNS: 10},
			{Name: "bounds", StartNS: 20, DurationNS: 5},
			{Name: "leg[0]", StartNS: 25, DurationNS: 30},
			{Name: "leg[1]", StartNS: 25, DurationNS: 20},
			{Name: "leg[2]", StartNS: 25, DurationNS: 60},
		},
	}}}
	tr := &tracer{server: []trace.TraceJSON{{Root: root}}}
	self := tr.selfTimes()
	want := map[string]time.Duration{"engine.search": 20, "search": 0, "nninit": 10, "bounds": 5, "leg": 85}
	for k, v := range want {
		if self[k] != v {
			t.Errorf("self[%s] = %d, want %d", k, self[k], v)
		}
	}
}
