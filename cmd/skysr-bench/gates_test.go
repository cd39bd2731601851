package main

import (
	"fmt"
	"strings"
	"testing"

	"skysr/internal/bench"
)

// assertGates checks one mode's row builder: every gate holds on good(),
// every case fails exactly the gate it names ("scenario gate") and no
// other, and every gate has a case.
func assertGates[M any](t *testing.T, good func() M, rows func(M) []bench.Row, cases map[string]func(M)) {
	t.Helper()
	for _, r := range rows(good()) {
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
	if err := bench.Check(rows(good())); err != nil {
		t.Errorf("good measurement rejected: %v", err)
	}
	for key, violate := range cases {
		m := good()
		violate(m)
		got := rows(m)
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

func TestSoakGates(t *testing.T) {
	good := func() *soakResult {
		m := &soakResult{tracedDeadlines: 1, tracedCancels: 1, tracedPanics: 1, snapshots: 1, identical: true}
		m.ok.Store(100)
		m.timeouts.Store(5)
		m.panics.Store(1)
		m.cancels.Store(3)
		return m
	}
	rows := func(m *soakResult) []bench.Row { return []bench.Row{soakRow("tokyo", m)} }
	assertGates(t, good, rows, map[string]func(*soakResult){
		"soak leaked=0":    func(m *soakResult) { m.leaked = 2 },
		"soak snapshots=1": func(m *soakResult) { m.snapshots = 2 },
		"soak identical":   func(m *soakResult) { m.identical = false },
		"soak ok>0":        func(m *soakResult) { m.ok.Store(0) },
		"soak faults>0": func(m *soakResult) {
			m.timeouts.Store(0)
			m.panics.Store(0)
			m.cancels.Store(0)
		},
		"soak deadlines-traced": func(m *soakResult) { m.tracedDeadlines = 0 },
		"soak panics-traced":    func(m *soakResult) { m.tracedPanics = 0 },
		"soak cancels-traced":   func(m *soakResult) { m.tracedCancels = 0 },
	})
	// 429s alone show that the faults bit.
	m := good()
	m.timeouts.Store(0)
	m.panics.Store(0)
	m.cancels.Store(0)
	m.rejected.Store(1)
	if err := bench.Check([]bench.Row{soakRow("tokyo", m)}); err != nil {
		t.Errorf("a storm of 429s rejected: %v", err)
	}
}

func TestHTTPLoadGates(t *testing.T) {
	good := func() *httpLoadResult {
		m := &httpLoadResult{baseMicros: 100, meteredMicros: 105, overheadRatio: 1.05}
		for i, workers := range httpLoadWorkers {
			m.phases = append(m.phases, loadPhase{
				workers: workers, ok: httpLoadOps, qps: 1000 - 50*float64(i),
				midScrapes: 3, scrapesOK: true,
				searchDelta: httpLoadOps, routeOKDelta: httpLoadOps, routeObsDelta: httpLoadOps, traceDelta: httpLoadOps,
				tracesListed: 10, tracesOK: true,
			})
		}
		return m
	}
	rows := func(m *httpLoadResult) []bench.Row { return httpLoadRows("tokyo", m) }
	cases := map[string]func(*httpLoadResult){
		"summary multi-qps≥0.9×single": func(m *httpLoadResult) {
			for i := 1; i < len(m.phases); i++ {
				m.phases[i].qps = 899
			}
		},
		"summary overhead≤1.05×": func(m *httpLoadResult) { m.overheadRatio = 1.051 },
	}
	for i, workers := range httpLoadWorkers {
		p := func(m *httpLoadResult) *loadPhase { return &m.phases[i] }
		scenario := fmt.Sprintf("workers=%d ", workers)
		cases[scenario+"errors=0"] = func(m *httpLoadResult) { p(m).errors = 1 }
		cases[scenario+"ok=ops"] = func(m *httpLoadResult) {
			ph := p(m)
			ph.ok--
			ph.searchDelta, ph.routeOKDelta, ph.routeObsDelta, ph.traceDelta = float64(ph.ok), float64(ph.ok), float64(ph.ok), float64(ph.ok)
		}
		cases[scenario+"scrapes-ok"] = func(m *httpLoadResult) { p(m).scrapesOK = false }
		cases[scenario+"search-delta=ok"] = func(m *httpLoadResult) { p(m).searchDelta++ }
		cases[scenario+"route-2xx-delta=ok"] = func(m *httpLoadResult) { p(m).routeOKDelta-- }
		cases[scenario+"route-obs-delta=ok"] = func(m *httpLoadResult) { p(m).routeObsDelta++ }
		cases[scenario+"trace-kept-delta=ok"] = func(m *httpLoadResult) { p(m).traceDelta-- }
		cases[scenario+"traces-served"] = func(m *httpLoadResult) { p(m).tracesOK = false }
	}
	assertGates(t, good, rows, cases)

	// A phase without mid-load scrapes, or a recorder with an empty
	// listing, fails the same gates.
	m := good()
	m.phases[0].midScrapes = 0
	m.phases[1].tracesListed = 0
	if err := bench.Check(httpLoadRows("tokyo", m)); err == nil ||
		!strings.Contains(err.Error(), "workers=1: scrapes-ok") || !strings.Contains(err.Error(), "workers=4: traces-served") {
		t.Errorf("no scrapes and no listed traces: Check returned %v", err)
	}
}
