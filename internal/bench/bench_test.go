package bench

import (
	"math"
	"strings"
	"testing"
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

func TestTable5(t *testing.T) {
	h := New(tinyConfig())
	rows, err := h.Table5()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.Vertices == 0 || r.PoIs == 0 || r.Edges == 0 {
			t.Errorf("degenerate row %+v", r)
		}
	}
	var sb strings.Builder
	RenderTable5(&sb, rows)
	if !strings.Contains(sb.String(), "Tokyo") {
		t.Error("render missing dataset name")
	}
}

func TestFigure3AndVerify(t *testing.T) {
	h := New(tinyConfig())
	cells, err := h.Figure3()
	if err != nil {
		t.Fatal(err)
	}
	// 2 datasets × 2 sizes × 4 algorithms.
	if len(cells) != 16 {
		t.Fatalf("cells = %d, want 16", len(cells))
	}
	for _, c := range cells {
		if c.Mismatch {
			t.Errorf("%s/%v/|Sq|=%d: algorithms disagreed on the skyline", c.Dataset, c.Algorithm, c.SeqSize)
		}
		if !c.DNF && c.MeanTime <= 0 {
			t.Errorf("%s/%v: non-positive mean time", c.Dataset, c.Algorithm)
		}
	}
	var sb strings.Builder
	RenderFigure3(&sb, cells)
	if !strings.Contains(sb.String(), "BSSR") {
		t.Error("render missing algorithms")
	}
}

func TestTable6(t *testing.T) {
	h := New(tinyConfig())
	rows, err := h.Table6()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 8 {
		t.Fatalf("rows = %d, want 8", len(rows))
	}
	for _, r := range rows {
		if r.Bytes <= 0 {
			t.Errorf("non-positive memory for %s/%v", r.Dataset, r.Algorithm)
		}
	}
	var sb strings.Builder
	RenderTable6(&sb, rows)
	if !strings.Contains(sb.String(), "Dij") {
		t.Error("render missing algorithms")
	}
}

func TestTable7ShowsInitEffect(t *testing.T) {
	h := New(tinyConfig())
	rows, err := h.Table7()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("rows = %d, want 4", len(rows))
	}
	for _, r := range rows {
		// The paper's core claim: the initial search shrinks the first
		// search radius (weak inequality at tiny scale).
		if r.WeightSumWith > r.WeightSumWithout+1e-9 {
			t.Errorf("%s |Sq|=%d: init search enlarged the radius: %v > %v",
				r.Dataset, r.SeqSize, r.WeightSumWith, r.WeightSumWithout)
		}
		if r.InitRoutes < 0 || r.Ratio < 0 || r.Ratio > 1+1e-9 {
			t.Errorf("implausible row %+v", r)
		}
	}
	var sb strings.Builder
	RenderTable7(&sb, rows)
	if sb.Len() == 0 {
		t.Error("empty render")
	}
}

func TestTable8QueueComparison(t *testing.T) {
	h := New(tinyConfig())
	rows, err := h.Table8()
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.Proposed <= 0 || r.Distance <= 0 {
			t.Errorf("non-positive counts %+v", r)
		}
		if r.Proposed > r.Distance*3/2 {
			t.Errorf("%s |Sq|=%d: proposed queue much worse than distance-based: %d vs %d",
				r.Dataset, r.SeqSize, r.Proposed, r.Distance)
		}
	}
	var sb strings.Builder
	RenderTable8(&sb, rows)
	if sb.Len() == 0 {
		t.Error("empty render")
	}
}

func TestFigure4Ratios(t *testing.T) {
	h := New(tinyConfig())
	rows, err := h.Figure4()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.SemanticRatio < 0 || math.IsNaN(r.SemanticRatio) {
			t.Errorf("bad semantic ratio %+v", r)
		}
		// lp dominates ls by construction (perfect ⊆ semantic targets).
		if r.PerfectRatio+1e-9 < r.SemanticRatio {
			t.Errorf("%s: perfect ratio %v < semantic ratio %v", r.Dataset, r.PerfectRatio, r.SemanticRatio)
		}
	}
	var sb strings.Builder
	RenderFigure4(&sb, rows)
	if sb.Len() == 0 {
		t.Error("empty render")
	}
}

func TestFigure5CachingReducesRuns(t *testing.T) {
	h := New(tinyConfig())
	rows, err := h.Figure5()
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.WithCache > r.WithoutCache+1e-9 {
			t.Errorf("%s |Sq|=%d: cache increased Dijkstra executions: %v > %v",
				r.Dataset, r.SeqSize, r.WithCache, r.WithoutCache)
		}
	}
	var sb strings.Builder
	RenderFigure5(&sb, rows)
	if sb.Len() == 0 {
		t.Error("empty render")
	}
}

func TestFigure6SkylineCounts(t *testing.T) {
	h := New(tinyConfig())
	rows, err := h.Figure6()
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.Mean < 0 || r.Max < 0 {
			t.Errorf("bad row %+v", r)
		}
		if r.Mean > float64(r.Max) {
			t.Errorf("mean %v exceeds max %d", r.Mean, r.Max)
		}
	}
	var sb strings.Builder
	RenderFigure6(&sb, rows)
	if sb.Len() == 0 {
		t.Error("empty render")
	}
}

func TestSurvey(t *testing.T) {
	s := PaperSurvey()
	for _, q := range PaperQuestions() {
		if s.Respondents(q.ID) != 25 {
			t.Errorf("%s respondents = %d, want 25", q.ID, s.Respondents(q.ID))
		}
		ratios, err := s.Ratios(q.ID)
		if err != nil {
			t.Fatal(err)
		}
		sum := ratios[0] + ratios[1] + ratios[2]
		if math.Abs(sum-1) > 1e-9 {
			t.Errorf("%s ratios sum to %v", q.ID, sum)
		}
	}
	// The paper: "more than 80% of the users liked the service" (Q1
	// options 1+2).
	r1, _ := s.Ratios("Q1")
	if r1[0]+r1[1] <= 0.8 {
		t.Errorf("Q1 positive ratio = %v, paper says > 80%%", r1[0]+r1[1])
	}
	var sb strings.Builder
	if err := RenderFigure9(&sb, s); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "Q3") {
		t.Error("render missing Q3")
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
}

func TestAllRunsEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("full suite in -short mode")
	}
	cfg := tinyConfig()
	cfg.SeqSizes = []int{2}
	cfg.Datasets = []string{"cal"}
	h := New(cfg)
	var sb strings.Builder
	if err := h.All(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"Table 5", "Figure 3", "Table 6", "Table 7", "Table 8", "Figure 4", "Figure 5", "Figure 6", "Figure 9", "suite completed"} {
		if !strings.Contains(out, want) {
			t.Errorf("All output missing %q", want)
		}
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

func TestAlgorithmStrings(t *testing.T) {
	for alg, want := range map[Algorithm]string{
		AlgBSSR: "BSSR", AlgBSSRNoOpt: "BSSR w/o Opt", AlgPNE: "PNE", AlgDij: "Dij",
	} {
		if alg.String() != want {
			t.Errorf("%v != %q", alg, want)
		}
	}
	if Algorithm(77).String() == "" {
		t.Error("unknown algorithm should render")
	}
}
