package bench

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"

	"skysr/internal/route"
)

// tinyConfig keeps harness tests fast: miniature datasets, few queries.
func tinyConfig() Config {
	return Config{
		Scale:    0.05,
		Seed:     42,
		Queries:  3,
		SeqSizes: []int{2, 3},
		Datasets: []string{"tokyo", "cal"},
		Budget:   300_000,
		Verify:   true,
	}
}

// suiteRun caches one paper-suite run per configuration: the tests below
// inspect the same rows.
type suiteRun struct {
	sync.Once
	cfg  func() Config
	rows []Row
	err  error
}

func (s *suiteRun) get(t *testing.T) []Row {
	t.Helper()
	s.Do(func() { s.rows, s.err = New(s.cfg()).Paper() })
	if s.err != nil {
		t.Fatal(s.err)
	}
	return s.rows
}

var (
	tinySuite = &suiteRun{cfg: tinyConfig}
	// dnfSuite gives the naive baselines a budget no query fits in.
	dnfSuite = &suiteRun{cfg: func() Config {
		cfg := tinyConfig()
		cfg.Datasets = []string{"tokyo"}
		cfg.SeqSizes = []int{2}
		cfg.Budget = 1
		return cfg
	}}
)

// artifactRows returns the rows whose scenario starts with artifact.
func artifactRows(rows []Row, artifact string) []Row {
	var out []Row
	for _, r := range rows {
		if r.Scenario == artifact || strings.HasPrefix(r.Scenario, artifact+" ") {
			out = append(out, r)
		}
	}
	return out
}

func render(rows []Row) string {
	var sb strings.Builder
	Render(&sb, "title", rows)
	return sb.String()
}

func TestTable5(t *testing.T) {
	rows := artifactRows(tinySuite.get(t), "table5")
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if counter(t, r, "vertices") == 0 || counter(t, r, "pois") == 0 || counter(t, r, "edges") == 0 {
			t.Errorf("degenerate row %+v", r)
		}
	}
	if !strings.Contains(render(rows), "tokyo") {
		t.Error("render missing dataset name")
	}
}

func TestFigure3AndVerify(t *testing.T) {
	rows := artifactRows(tinySuite.get(t), "figure3")
	// 2 datasets × 2 sizes × 4 algorithms.
	if len(rows) != 16 {
		t.Fatalf("rows = %d, want 16", len(rows))
	}
	for _, r := range rows {
		bssr := strings.HasPrefix(r.Scenario, "figure3 BSSR |")
		if bssr && len(r.Gates) != 0 || !bssr && (len(r.Gates) != 1 || r.Gates[0].Name != "same-skyline") {
			t.Errorf("%s: gates %+v", r.Scenario, r.Gates)
		}
		if failed := r.Failed(); len(failed) > 0 {
			t.Errorf("%s/%s: algorithms disagreed on the skyline", r.Dataset, r.Scenario)
		}
		if counter(t, r, "dnf") == 0 && counter(t, r, "mean_us") <= 0 {
			t.Errorf("%s/%s: non-positive mean time", r.Dataset, r.Scenario)
		}
	}
	if !strings.Contains(render(rows), "BSSR w/o Opt") {
		t.Error("render missing algorithms")
	}

	// A baseline that drops a skyline route fails its row's gate, and
	// Check names it.
	sc := route.NewScorer(route.AggProduct, 1)
	sky := []*route.Route{route.Empty(sc).Extend(sc, 1, 2, 1), route.Empty(sc).Extend(sc, 2, 5, 0.5)}
	var outs [len(suiteConfigs)][]outcome
	for c := range outs {
		outs[c] = []outcome{{routes: sky}}
	}
	outs[cfgPNE][0].routes = sky[:1]
	outs[cfgDij][0] = outcome{dnf: true}
	h := New(tinyConfig())
	got := h.figure3Rows("toy", "|Sq|=2", 0, &outs)
	err := Check(got)
	if err == nil || !strings.Contains(err.Error(), "toy figure3 PNE |Sq|=2: same-skyline") || strings.Contains(err.Error(), "Dij") {
		t.Errorf("Check = %v, want only PNE's same-skyline gate failed", err)
	}
}

func TestTable6(t *testing.T) {
	h := New(tinyConfig())
	for _, r := range artifactRows(tinySuite.get(t), "figure3") {
		d, err := h.Dataset(r.Dataset)
		if err != nil {
			t.Fatal(err)
		}
		if b := counter(t, r, "bytes"); b <= float64(d.MemoryFootprintBytes()) {
			t.Errorf("%s/%s: %v bytes, no more than the dataset footprint", r.Dataset, r.Scenario, b)
		}
	}
}

func TestTable7ShowsInitEffect(t *testing.T) {
	rows := artifactRows(tinySuite.get(t), "table7")
	if len(rows) != 4 {
		t.Fatalf("rows = %d, want 4", len(rows))
	}
	for _, r := range rows {
		// The paper's core claim: the initial search shrinks the first
		// search radius (weak inequality at tiny scale).
		with, without := counter(t, r, "weight_sum"), counter(t, r, "weight_sum_no_init")
		if with > without+1e-9 {
			t.Errorf("%s %s: init search enlarged the radius: %v > %v", r.Dataset, r.Scenario, with, without)
		}
		if ratio := counter(t, r, "ratio"); counter(t, r, "init_routes") < 0 || ratio < 0 || ratio > 1+1e-9 {
			t.Errorf("implausible row %+v", r)
		}
	}
}

func TestTable8QueueComparison(t *testing.T) {
	for _, r := range artifactRows(tinySuite.get(t), "table8") {
		proposed, distance := counter(t, r, "settled_proposed"), counter(t, r, "settled_distance")
		if proposed <= 0 || distance <= 0 {
			t.Errorf("non-positive counts %+v", r)
		}
		if proposed > distance*3/2 {
			t.Errorf("%s %s: proposed queue much worse than distance-based: %v vs %v",
				r.Dataset, r.Scenario, proposed, distance)
		}
	}
}

func TestFigure4Ratios(t *testing.T) {
	rows := artifactRows(tinySuite.get(t), "figure4")
	if len(rows) != 4 {
		t.Fatalf("rows = %d, want 4", len(rows))
	}
	for _, r := range rows {
		semantic, perfect := counter(t, r, "semantic_ratio"), counter(t, r, "perfect_ratio")
		if semantic < 0 || math.IsNaN(semantic) {
			t.Errorf("bad semantic ratio %+v", r)
		}
		// lp dominates ls by construction (perfect ⊆ semantic targets).
		if perfect+1e-9 < semantic {
			t.Errorf("%s %s: perfect ratio %v < semantic ratio %v", r.Dataset, r.Scenario, perfect, semantic)
		}
	}
}

func TestFigure5CachingReducesRuns(t *testing.T) {
	for _, r := range artifactRows(tinySuite.get(t), "figure5") {
		if with, without := counter(t, r, "runs_cache"), counter(t, r, "runs_no_cache"); with > without+1e-9 {
			t.Errorf("%s %s: cache increased Dijkstra executions: %v > %v", r.Dataset, r.Scenario, with, without)
		}
	}
}

func TestFigure6SkylineCounts(t *testing.T) {
	for _, r := range artifactRows(tinySuite.get(t), "figure6") {
		mean, most := counter(t, r, "mean_skysrs"), counter(t, r, "max_skysrs")
		if mean < 0 || most < 0 {
			t.Errorf("bad row %+v", r)
		}
		if mean > most {
			t.Errorf("mean %v exceeds max %v", mean, most)
		}
	}
}

// TestRenderFigure3HandlesDNFAndMissing: a query over the naive budget
// counts as dnf and has no answer to compare, so it never fails
// same-skyline; sizes the run did not configure have no rows.
func TestRenderFigure3HandlesDNFAndMissing(t *testing.T) {
	rows := artifactRows(dnfSuite.get(t), "figure3")
	if len(rows) != 4 {
		t.Fatalf("rows = %d, want 4 (one size only)", len(rows))
	}
	for _, r := range rows {
		naive := strings.Contains(r.Scenario, "PNE") || strings.Contains(r.Scenario, "Dij")
		if dnf := counter(t, r, "dnf"); naive && dnf != counter(t, r, "queries") || !naive && dnf != 0 {
			t.Errorf("%s: dnf = %v", r.Scenario, dnf)
		}
	}
	if err := Check(rows); err != nil {
		t.Errorf("dnf queries failed a gate: %v", err)
	}
	out := render(rows)
	for _, want := range []string{"dnf", "figure3 Dij |Sq|=2", "same-skyline:ok"} {
		if !strings.Contains(out, want) {
			t.Errorf("render lacks %q:\n%s", want, out)
		}
	}
}

// TestRenderTable6MarksDNF: Table 6's bytes of an algorithm whose queries
// hit the budget are its peak at the abort, rendered on one line with the
// dnf count.
func TestRenderTable6MarksDNF(t *testing.T) {
	rows := artifactRows(dnfSuite.get(t), "figure3")
	lines := strings.Split(render(rows), "\n")
	for _, r := range rows {
		dnf, bytes := counter(t, r, "dnf"), counter(t, r, "bytes")
		if dnf == 0 {
			continue
		}
		if bytes <= 0 {
			t.Errorf("%s: no peak bytes at the abort", r.Scenario)
		}
		i := slices.IndexFunc(lines, func(l string) bool { return strings.Contains(l, r.Scenario+" ") })
		if i < 0 || !strings.Contains(lines[i], formatValue(bytes)+" ") || !strings.Contains(lines[i], formatValue(dnf)+" ") {
			t.Errorf("%s: bytes %v and dnf %v not rendered on its line", r.Scenario, bytes, dnf)
		}
	}
}

func TestSurvey(t *testing.T) {
	s := PaperSurvey()
	for _, q := range PaperQuestions() {
		if s.Respondents(q.ID) != 25 {
			t.Errorf("%s respondents = %d, want 25", q.ID, s.Respondents(q.ID))
		}
	}
	// The paper: "more than 80% of the users liked the service" (Q1
	// options 1+2).
	r1, _ := s.Ratios("Q1")
	if r1[0]+r1[1] <= 0.8 {
		t.Errorf("Q1 positive ratio = %v, paper says > 80%%", r1[0]+r1[1])
	}
	rows, err := figure9Rows(s)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 || rows[2].Scenario != "figure9 Q3" {
		t.Fatalf("rows = %+v", rows)
	}
	for _, r := range rows {
		sum := 0.0
		for _, c := range r.Counters[:3] {
			sum += c.Value
		}
		if math.Abs(sum-1) > 1e-9 || counter(t, r, "respondents") != 25 {
			t.Errorf("%s ratios sum to %v", r.Scenario, sum)
		}
	}
}

func TestSurveyErrors(t *testing.T) {
	s := NewSurvey(PaperQuestions())
	if err := s.Record(SurveyResponse{QuestionID: "Q1", Option: 4}); err == nil {
		t.Error("out-of-range option should fail")
	}
	if err := s.Record(SurveyResponse{QuestionID: "Q9", Option: 1}); err == nil {
		t.Error("unknown question should fail")
	}
	if _, err := s.Ratios("Q1"); err == nil {
		t.Error("ratios without responses should fail")
	}
	if _, err := figure9Rows(s); err == nil {
		t.Error("figure 9 without responses should fail")
	}
}

// TestAllRunsEndToEnd runs the suite on one workload and checks that it
// reports every artifact, in order, through Render, Check and WriteJSON.
func TestAllRunsEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("full suite in -short mode")
	}
	cfg := tinyConfig()
	cfg.SeqSizes = []int{2}
	cfg.Datasets = []string{"cal"}
	rows, err := New(cfg).Paper()
	if err != nil {
		t.Fatal(err)
	}
	next := 0
	for _, r := range rows {
		for next < len(artifacts) && !strings.HasPrefix(r.Scenario, artifacts[next]) {
			next++
		}
		if next == len(artifacts) {
			t.Fatalf("row %s out of artifact order", r.Scenario)
		}
	}
	out := render(rows)
	for _, a := range artifacts {
		if len(artifactRows(rows, a)) == 0 || !strings.Contains(out, a) {
			t.Errorf("suite lacks %s", a)
		}
	}
	if err := Check(rows); err != nil {
		t.Error(err)
	}
	path := filepath.Join(t.TempDir(), "BENCH_PAPER.json")
	if err := WriteJSON(path, cfg, rows); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var rep report
	if err := json.Unmarshal(data, &rep); err != nil || len(rep.Rows) != len(rows) {
		t.Fatalf("report holds %d rows (%v), want %d", len(rep.Rows), err, len(rows))
	}
}

func TestHarnessCaching(t *testing.T) {
	h := New(tinyConfig())
	d1, err := h.Dataset("tokyo")
	if err != nil {
		t.Fatal(err)
	}
	d2, err := h.Dataset("tokyo")
	if err != nil {
		t.Fatal(err)
	}
	if d1 != d2 {
		t.Error("dataset not cached")
	}
	w1, err := h.Workload("tokyo", 2)
	if err != nil {
		t.Fatal(err)
	}
	w2, err := h.Workload("tokyo", 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(w1) != len(w2) || &w1[0] != &w2[0] {
		t.Error("workload not cached")
	}
	if _, err := h.Dataset("nowhere"); err == nil {
		t.Error("unknown dataset should fail")
	}
}

func TestSameSkylinesToleratesFloatDust(t *testing.T) {
	if !closeEnough(1.0, 1.0+1e-12) {
		t.Error("tiny differences should be tolerated")
	}
	if closeEnough(1.0, 1.1) || closeEnough(-1.0, 1.0) {
		t.Error("real differences should not be tolerated")
	}
}

func TestRenderRows(t *testing.T) {
	load := Row{Dataset: "toy", Scenario: "workers=1"}
	load.Count("ok", 200)
	load.Count("p50_ms", 1.23456)
	load.Gate("errors=0", true)
	summary := Row{Dataset: "toy", Scenario: "summary"}
	summary.Count("ratio", 1.07)
	summary.Gate("overhead≤1.05×", false)
	var sb strings.Builder
	Render(&sb, "title", []Row{load, load, summary})
	lines := strings.Split(strings.TrimSpace(sb.String()), "\n")
	want := []string{"title", "dataset", "toy", "toy", "dataset", "toy"}
	if len(lines) != len(want) {
		t.Fatalf("rendered %d lines, want %d:\n%s", len(lines), len(want), sb.String())
	}
	for i, w := range want {
		if !strings.HasPrefix(lines[i], w) {
			t.Fatalf("line %d = %q, want prefix %q", i, lines[i], w)
		}
	}
	for _, s := range []string{"p50_ms", "1.235", "errors=0:ok", "ratio", "1.070", "overhead≤1.05×:FAIL"} {
		if !strings.Contains(sb.String(), s) {
			t.Errorf("table lacks %q:\n%s", s, sb.String())
		}
	}
}
