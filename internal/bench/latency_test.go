package bench

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
)

// smokeLatency caches one small run of the variant table: the experiment
// tests below all inspect the same rows.
var smokeLatency struct {
	sync.Once
	rows []Row
	err  error
}

func smokeLatencyRows(t *testing.T) []Row {
	t.Helper()
	smokeLatency.Do(func() {
		cfg := DefaultConfig()
		cfg.Scale = 0.05
		cfg.Queries = 4
		cfg.Datasets = []string{"tokyo"}
		smokeLatency.rows, smokeLatency.err = New(cfg).Latency()
	})
	if smokeLatency.err != nil {
		t.Fatal(smokeLatency.err)
	}
	return smokeLatency.rows
}

// counter returns the named counter of r, failing the test without one.
func counter(t *testing.T, r Row, name string) float64 {
	t.Helper()
	for _, c := range r.Counters {
		if c.Name == name {
			return c.Value
		}
	}
	t.Fatalf("%s %s has no %s counter", r.Dataset, r.Scenario, name)
	return 0
}

func TestLatencyExperiment(t *testing.T) {
	rows := smokeLatencyRows(t)
	if len(rows) != len(latencyVariants) {
		t.Fatalf("got %d rows, want %d", len(rows), len(latencyVariants))
	}
	for i, r := range rows {
		if v := latencyVariants[i]; r.Scenario != v.name {
			t.Fatalf("row %d is %s, want %s", i, r.Scenario, v.name)
		}
		median, p95 := counter(t, r, "median_us"), counter(t, r, "p95_us")
		if counter(t, r, "queries") == 0 || median <= 0 || p95 < median || counter(t, r, "routes") <= 0 {
			t.Fatalf("%s: empty measurement %+v", r.Scenario, r)
		}
		// The exactness gates; the median bounds are left to the CLI,
		// since -race and a tiny preset distort timings.
		for _, g := range r.Gates {
			if !g.OK && !strings.HasPrefix(g.Name, medianGatePrefix) {
				t.Errorf("%s: gate %s failed", r.Scenario, g.Name)
			}
		}
	}
	if p := rows[0]; counter(t, p, "vs_plain") != 1 || len(p.Gates) != 0 {
		t.Fatalf("plain row is not its own ungated reference: %+v", p)
	}

	// JSON report round-trip.
	cfg := DefaultConfig()
	cfg.Datasets = []string{"tokyo"}
	path := filepath.Join(t.TempDir(), "BENCH.json")
	if err := WriteJSON(path, cfg, rows); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var rep struct {
		GeneratedAt string   `json:"generated_at"`
		Datasets    []string `json:"datasets"`
		Rows        []Row    `json:"rows"`
	}
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatal(err)
	}
	if rep.GeneratedAt == "" || !reflect.DeepEqual(rep.Datasets, cfg.Datasets) || !reflect.DeepEqual(rep.Rows, rows) {
		t.Fatalf("report does not round-trip:\n%s", data)
	}
}

func TestTopKExperiment(t *testing.T) {
	rows := smokeLatencyRows(t)
	byVariant := map[string]Row{}
	for _, r := range rows {
		byVariant[r.Scenario] = r
	}
	plainRoutes := counter(t, byVariant[variantPlain], "routes")
	prevRoutes := plainRoutes
	for _, name := range []string{"topk-1", "topk-2", "topk-4", "topk-8"} {
		r, ok := byVariant[name]
		if !ok {
			t.Fatalf("no %s row", name)
		}
		for _, g := range r.Gates {
			if !g.OK && !strings.HasPrefix(g.Name, medianGatePrefix) {
				t.Fatalf("%s: gate %s failed", name, g.Name)
			}
		}
		routes := counter(t, r, "routes")
		if routes < prevRoutes {
			t.Fatalf("%s returns fewer routes (%f) than the smaller k (%f)", name, routes, prevRoutes)
		}
		prevRoutes = routes
	}
	if routes := counter(t, byVariant["topk-1"], "routes"); routes != plainRoutes {
		t.Fatalf("topk-1 returns %f routes per query, plain Search %f", routes, plainRoutes)
	}
}

// goodLatency is one dataset's results with every gate met.
func goodLatency() []variantResult {
	res := make([]variantResult, len(latencyVariants))
	for i := range res {
		res[i] = variantResult{queries: 90, median: 100, p95: 120, meanRoutes: 2, identical: true, crossChecked: true}
	}
	return res
}

// failedGates lists every failed gate of rows as "scenario gate".
func failedGates(rows []Row) []string {
	var failed []string
	for _, r := range rows {
		for _, name := range r.Failed() {
			failed = append(failed, r.Scenario+" "+name)
		}
	}
	return failed
}

func TestCheckLatency(t *testing.T) {
	if err := Check(latencyRows("tokyo", goodLatency())); err != nil {
		t.Fatalf("good results rejected: %v", err)
	}
	if err := Check(nil); err == nil {
		t.Error("no rows: check passed, want a failure")
	}
	notIdentical := func(m *variantResult) { m.identical = false }
	crossCheckFails := func(m *variantResult) { m.crossChecked = false }
	median := func(us float64) func(*variantResult) { return func(m *variantResult) { m.median = us } }
	cases := []struct {
		variant, gate string
		change        func(*variantResult)
	}{
		{"category-index", "identical", notIdentical},
		{"category-index", "median≤1.00×plain", median(101)},
		{"topk-1", "identical", notIdentical},
		{"topk-1", "contains-smaller-k", crossCheckFails},
		{"topk-1", "median≤1.50×plain", median(151)},
		{"topk-2", "contains-smaller-k", crossCheckFails},
		{"topk-4", "contains-smaller-k", crossCheckFails},
		{"topk-8", "contains-smaller-k", crossCheckFails},
		{"topk-8", "median≤8.00×plain", median(801)},
		{"constant-profile", "identical", notIdentical},
		{"constant-profile", "median≤1.10×plain", median(111)},
		{"rush-hour@0.05", "agrees-across-configs", crossCheckFails},
		{"rush-hour@0.32", "agrees-across-configs", crossCheckFails},
	}
	covered := map[string]bool{}
	for _, tc := range cases {
		want := tc.variant + " " + tc.gate
		covered[want] = true
		res := goodLatency()
		for i, v := range latencyVariants {
			if v.name == tc.variant {
				tc.change(&res[i])
			}
		}
		rows := latencyRows("tokyo", res)
		if got := failedGates(rows); !reflect.DeepEqual(got, []string{want}) {
			t.Errorf("%s violated: failed gates %v, want only it", want, got)
		}
		if err := Check(rows); err == nil || !strings.Contains(err.Error(), "tokyo "+tc.variant+": "+tc.gate) {
			t.Errorf("%s violated: Check returned %v", want, err)
		}
	}
	// Every gate of the table has a case above.
	for _, r := range latencyRows("tokyo", goodLatency()) {
		for _, g := range r.Gates {
			if !covered[r.Scenario+" "+g.Name] {
				t.Errorf("gate %s %s has no violation case", r.Scenario, g.Name)
			}
		}
	}
}

func TestCheckTopK(t *testing.T) {
	// The median bounds are inclusive.
	res := goodLatency()
	for i, v := range latencyVariants {
		switch v.name {
		case "topk-1":
			res[i].median = 150
		case "topk-8":
			res[i].median = 800
		case "constant-profile":
			res[i].median = 110
		}
	}
	if err := Check(latencyRows("tokyo", res)); err != nil {
		t.Fatalf("medians at their bounds rejected: %v", err)
	}

	// The band-monotonicity cross-check: lengths may move by an ULP (k = 1
	// and k > 1 tie-break equal-length paths differently), semantic
	// scores may not, and no point may go missing.
	sub := []answer{{lengths: []float64{10, 12}, sems: []float64{0.5, 1}}}
	sup := []answer{{lengths: []float64{math.Nextafter(10, 11), 11, 12}, sems: []float64{0.5, 0.8, 1}}}
	if !containsPoints(sup, sub) {
		t.Fatal("an ULP length shift broke band containment")
	}
	sup[0].sems[0] = math.Nextafter(0.5, 1)
	if containsPoints(sup, sub) {
		t.Fatal("a semantic shift passed band containment")
	}
	if containsPoints([]answer{{lengths: []float64{12}, sems: []float64{1}}}, sub) {
		t.Fatal("a lost point passed band containment")
	}
	if containsPoints(nil, sub) {
		t.Fatal("a missing query passed band containment")
	}
}
