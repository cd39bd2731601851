package bench

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// writeReport drops a synthetic bench report into dir and returns its path.
func writeReport(t *testing.T, dir, name, body string) string {
	t.Helper()
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestLoadTrajectoryExtractsPlainSearchRows(t *testing.T) {
	dir := t.TempDir()
	latency := writeReport(t, dir, "BENCH_PR2.json", `{
		"generated_at": "2026-01-01T00:00:00Z",
		"rows": [
			{"dataset": "Tokyo", "profile": "baseline", "seq_size": 3, "median_us": 1100},
			{"dataset": "Tokyo", "profile": "tree-index", "seq_size": 3, "median_us": 700},
			{"dataset": "Tokyo", "profile": "category-index", "seq_size": 3, "median_us": 400},
			{"dataset": "Tokyo", "profile": "baseline", "seq_size": 5, "median_us": 9000}
		]}`)
	churn := writeReport(t, dir, "BENCH_PR3.json", `{
		"generated_at": "2026-02-01T00:00:00Z",
		"rows": [{"dataset": "tokyo", "rounds": 5, "qps": 1000, "mean_update_us": 250}]}`)
	topk := writeReport(t, dir, "BENCH_PR4.json", `{
		"generated_at": "2026-03-01T00:00:00Z",
		"rows": [
			{"dataset": "Tokyo", "k": 1, "seq_size": 3, "median_us": 1180, "base_median_us": 1150},
			{"dataset": "Tokyo", "k": 8, "seq_size": 3, "median_us": 2500, "base_median_us": 1150}
		]}`)
	timedep := writeReport(t, dir, "BENCH_PR5.json", `{
		"generated_at": "2026-04-01T00:00:00Z",
		"rows": [
			{"dataset": "Tokyo", "mode": "static", "seq_size": 3, "median_us": 1120},
			{"dataset": "Tokyo", "mode": "rush-hour", "seq_size": 3, "median_us": 1500}
		]}`)

	points, err := LoadTrajectory([]string{latency, churn, topk, timedep})
	if err != nil {
		t.Fatal(err)
	}
	// One point per report that measures plain search; the churn report,
	// the indexed/size-5 latency rows, the k=8 row and the rush-hour row
	// all contribute nothing.
	if len(points) != 3 {
		t.Fatalf("points = %+v, want 3", points)
	}
	wantKinds := []string{"latency/baseline", "topk/base", "timedep/static"}
	wantMedians := []float64{1100, 1150, 1120}
	for i, p := range points {
		if p.Kind != wantKinds[i] || p.MedianUS != wantMedians[i] || p.Dataset != "tokyo" {
			t.Errorf("point %d = %+v, want kind=%s median=%g dataset=tokyo", i, p, wantKinds[i], wantMedians[i])
		}
	}
	// Chronological by the report's own timestamp.
	for i := 1; i < len(points); i++ {
		if points[i].GeneratedAt < points[i-1].GeneratedAt {
			t.Errorf("points out of order: %s before %s", points[i-1].GeneratedAt, points[i].GeneratedAt)
		}
	}

	if err := CheckTrajectory(points); err != nil {
		t.Errorf("trajectory within tolerance failed the gate: %v", err)
	}
}

func TestCheckTrajectoryFlagsRegression(t *testing.T) {
	dir := t.TempDir()
	old := writeReport(t, dir, "BENCH_PR2.json", `{
		"generated_at": "2026-01-01T00:00:00Z",
		"rows": [{"dataset": "Tokyo", "profile": "baseline", "seq_size": 3, "median_us": 1000}]}`)
	regressed := writeReport(t, dir, "BENCH_PR5.json", `{
		"generated_at": "2026-04-01T00:00:00Z",
		"rows": [{"dataset": "Tokyo", "mode": "static", "seq_size": 3, "median_us": 1400}]}`)
	points, err := LoadTrajectory([]string{old, regressed})
	if err != nil {
		t.Fatal(err)
	}
	err = CheckTrajectory(points)
	if err == nil || !strings.Contains(err.Error(), "tokyo") {
		t.Fatalf("1.4× regression passed the 1.25× gate (err = %v)", err)
	}
}

func TestCheckTrajectoryDegenerateInputs(t *testing.T) {
	if err := CheckTrajectory(nil); err == nil {
		t.Error("empty trajectory passed the gate")
	}
	// A single point has no history to regress against: the gate must
	// refuse rather than vacuously pass.
	one := []TrajectoryPoint{{Source: "BENCH_PR2.json", Dataset: "tokyo", MedianUS: 1000}}
	if err := CheckTrajectory(one); err == nil {
		t.Error("single-point trajectory passed the gate without comparing anything")
	}
}

func TestLoadTrajectoryRejectsMalformedReport(t *testing.T) {
	dir := t.TempDir()
	bad := writeReport(t, dir, "BENCH_PR9.json", `{"rows": [`)
	if _, err := LoadTrajectory([]string{bad}); err == nil {
		t.Error("malformed report loaded without error")
	}
}
