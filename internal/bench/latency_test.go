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
	rows []LatencyRow
	err  error
}

func smokeLatencyRows(t *testing.T) []LatencyRow {
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

func TestLatencyExperiment(t *testing.T) {
	rows := smokeLatencyRows(t)
	if len(rows) != len(latencyVariants) {
		t.Fatalf("got %d rows, want %d", len(rows), len(latencyVariants))
	}
	for i, r := range rows {
		v := latencyVariants[i]
		if r.Variant != v.name || r.MaxVsPlain != v.maxVsPlain {
			t.Fatalf("row %d is %s (max %.2f), want %s (max %.2f)", i, r.Variant, r.MaxVsPlain, v.name, v.maxVsPlain)
		}
		if r.Queries == 0 || r.MedianMicros <= 0 || r.P95Micros < r.MedianMicros || r.MeanRoutes <= 0 {
			t.Fatalf("%s: empty measurement %+v", r.Variant, r)
		}
		// The exactness half of CheckLatency; the median bounds are left
		// to the CLI gate, since -race and a tiny preset distort timings.
		if v.identical && !r.Identical {
			t.Errorf("%s: answers differ from plain", r.Variant)
		}
		if v.consistent && !r.Consistent {
			t.Errorf("%s: cross-check failed", r.Variant)
		}
	}
	if p := rows[0]; p.VsPlain != 1 || !p.Identical || !p.Consistent {
		t.Fatalf("plain row is not its own reference: %+v", p)
	}

	// JSON report round-trip.
	cfg := DefaultConfig()
	cfg.Datasets = []string{"tokyo"}
	path := filepath.Join(t.TempDir(), "BENCH.json")
	if err := WriteJSON(path, cfg, rows, nil); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var rep struct {
		GeneratedAt string       `json:"generated_at"`
		Datasets    []string     `json:"datasets"`
		Rows        []LatencyRow `json:"rows"`
	}
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatal(err)
	}
	if rep.GeneratedAt == "" || !reflect.DeepEqual(rep.Datasets, cfg.Datasets) || !reflect.DeepEqual(rep.Rows, rows) {
		t.Fatalf("report does not round-trip:\n%s", data)
	}
	if strings.Contains(string(data), `"overhead"`) {
		t.Fatalf("latency report carries an overhead section:\n%s", data)
	}
}

func TestTopKExperiment(t *testing.T) {
	rows := smokeLatencyRows(t)
	byVariant := map[string]LatencyRow{}
	for _, r := range rows {
		byVariant[r.Variant] = r
	}
	prevRoutes := byVariant[variantPlain].MeanRoutes
	for _, name := range []string{"topk-1", "topk-2", "topk-4", "topk-8"} {
		r, ok := byVariant[name]
		if !ok {
			t.Fatalf("no %s row", name)
		}
		if !r.Consistent {
			t.Fatalf("%s lost points of the smaller-k answer", name)
		}
		if r.MeanRoutes < prevRoutes {
			t.Fatalf("%s returns fewer routes (%f) than the smaller k (%f)", name, r.MeanRoutes, prevRoutes)
		}
		prevRoutes = r.MeanRoutes
	}
	if r := byVariant["topk-1"]; !r.Identical || r.MeanRoutes != byVariant[variantPlain].MeanRoutes {
		t.Fatalf("topk-1 answers differ from plain Search: %+v", r)
	}
}

// goodLatencyRows is one dataset's full variant table with every gate met.
func goodLatencyRows() []LatencyRow {
	var rows []LatencyRow
	for _, v := range latencyVariants {
		rows = append(rows, LatencyRow{Dataset: "tokyo", Variant: v.name, MedianMicros: 100, Identical: true, Consistent: true})
	}
	return rows
}

// withRow returns goodLatencyRows with the named variant's row changed.
func withRow(variant string, change func(*LatencyRow)) []LatencyRow {
	rows := goodLatencyRows()
	for i := range rows {
		if rows[i].Variant == variant {
			change(&rows[i])
		}
	}
	return rows
}

func TestCheckLatency(t *testing.T) {
	if err := CheckLatency(goodLatencyRows()); err != nil {
		t.Fatalf("good rows rejected: %v", err)
	}
	notIdentical := func(r *LatencyRow) { r.Identical = false }
	inconsistent := func(r *LatencyRow) { r.Consistent = false }
	median := func(us float64) func(*LatencyRow) { return func(r *LatencyRow) { r.MedianMicros = us } }
	bad := []struct {
		name string
		rows []LatencyRow
	}{
		{"category-index answers differ", withRow("category-index", notIdentical)},
		{"category-index slower than plain", withRow("category-index", median(101))},
		{"topk-1 answers differ", withRow("topk-1", notIdentical)},
		{"topk-1 beyond 1.5x", withRow("topk-1", median(151))},
		{"topk-2 lost topk-1 points", withRow("topk-2", inconsistent)},
		{"topk-4 lost topk-2 points", withRow("topk-4", inconsistent)},
		{"topk-8 lost topk-4 points", withRow("topk-8", inconsistent)},
		{"topk-8 beyond 8x", withRow("topk-8", median(801))},
		{"constant-profile answers differ", withRow("constant-profile", notIdentical)},
		{"constant-profile beyond 1.10x", withRow("constant-profile", median(111))},
		{"rush-hour free flow inconsistent", withRow("rush-hour@0.05", inconsistent)},
		{"rush-hour peak inconsistent", withRow("rush-hour@0.32", inconsistent)},
		{"no plain row", goodLatencyRows()[1:]},
		{"no rows", nil},
	}
	for _, tc := range bad {
		if err := CheckLatency(tc.rows); err == nil {
			t.Errorf("%s: check passed, want a failure", tc.name)
		}
	}
	for i, v := range latencyVariants {
		rows := goodLatencyRows()
		rows = append(rows[:i], rows[i+1:]...)
		if err := CheckLatency(rows); err == nil {
			t.Errorf("missing %s row: check passed, want a failure", v.name)
		}
	}
}

func TestCheckTopK(t *testing.T) {
	// The median bounds are inclusive.
	rows := goodLatencyRows()
	for i := range rows {
		switch rows[i].Variant {
		case "topk-1":
			rows[i].MedianMicros = 150
		case "topk-8":
			rows[i].MedianMicros = 800
		}
	}
	if err := CheckLatency(rows); err != nil {
		t.Fatalf("top-k medians at their bounds rejected: %v", err)
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
