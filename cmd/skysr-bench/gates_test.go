package main

import (
	"strings"
	"testing"

	"skysr/internal/bench"
)

// TestHTTPLoadGates checks the httpload row builder: both gates hold on a
// good measurement, every gate has a violation case, and each case fails
// exactly the gate it names, which Check reports.
func TestHTTPLoadGates(t *testing.T) {
	good := func() *httpLoadResult {
		m := &httpLoadResult{baseMicros: 100, meteredMicros: 105, overheadRatio: 1.05}
		for i, workers := range httpLoadWorkers {
			m.phases = append(m.phases, loadPhase{workers: workers, qps: 1000 - 50*float64(i)})
		}
		return m
	}
	cases := map[string]func(*httpLoadResult){
		"summary multi-qps≥0.9×single": func(m *httpLoadResult) {
			for i := 1; i < len(m.phases); i++ {
				m.phases[i].qps = 899
			}
		},
		"summary overhead≤1.05×": func(m *httpLoadResult) { m.overheadRatio = 1.051 },
	}

	rows := httpLoadRows("tokyo", good())
	for _, r := range rows {
		for _, g := range r.Gates {
			key := r.Scenario + " " + g.Name
			if !g.OK {
				t.Errorf("good measurement fails %s", key)
			}
			if cases[key] == nil {
				t.Errorf("gate %s has no violation case", key)
			}
		}
	}
	if err := bench.Check(rows); err != nil {
		t.Errorf("good measurement rejected: %v", err)
	}
	for key, violate := range cases {
		m := good()
		violate(m)
		got := httpLoadRows("tokyo", m)
		var failed []string
		for _, r := range got {
			for _, name := range r.Failed() {
				failed = append(failed, r.Scenario+" "+name)
			}
		}
		if len(failed) != 1 || failed[0] != key {
			t.Errorf("violating %s fails %v, want only it", key, failed)
		}
		scenario, gate, _ := strings.Cut(key, " ")
		if err := bench.Check(got); err == nil || !strings.Contains(err.Error(), "tokyo "+scenario+": "+gate) {
			t.Errorf("violating %s: Check returned %v", key, err)
		}
	}
}
