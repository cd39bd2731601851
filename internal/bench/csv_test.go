package bench

import (
	"encoding/csv"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

func TestWriteCSVDir(t *testing.T) {
	cfg := tinyConfig()
	cfg.SeqSizes = []int{2}
	cfg.Datasets = []string{"cal"}
	h := New(cfg)
	res, err := h.RunAll()
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := WriteCSVDir(dir, res); err != nil {
		t.Fatal(err)
	}
	wantFiles := []string{
		"table5.csv", "figure3.csv", "table6.csv", "table7.csv",
		"table8.csv", "figure4.csv", "figure5.csv", "figure6.csv", "figure9.csv",
	}
	for _, name := range wantFiles {
		path := filepath.Join(dir, name)
		f, err := os.Open(path)
		if err != nil {
			t.Fatalf("%s missing: %v", name, err)
		}
		records, err := csv.NewReader(f).ReadAll()
		f.Close()
		if err != nil {
			t.Fatalf("%s unparseable: %v", name, err)
		}
		if len(records) < 2 {
			t.Fatalf("%s has no data rows", name)
		}
		// Every data row must have as many fields as the header.
		for i, rec := range records[1:] {
			if len(rec) != len(records[0]) {
				t.Fatalf("%s row %d has %d fields, header has %d", name, i, len(rec), len(records[0]))
			}
		}
	}

	// Spot-check figure3.csv numeric sanity.
	f, err := os.Open(filepath.Join(dir, "figure3.csv"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	records, err := csv.NewReader(f).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	meanIdx := -1
	for i, h := range records[0] {
		if h == "mean_us" {
			meanIdx = i
		}
	}
	if meanIdx < 0 {
		t.Fatal("figure3.csv missing mean_us column")
	}
	for _, rec := range records[1:] {
		v, err := strconv.ParseFloat(rec[meanIdx], 64)
		if err != nil || v < 0 {
			t.Fatalf("bad mean_us %q", rec[meanIdx])
		}
	}

	// figure9.csv ratios sum to ~1 per question.
	f9, err := os.Open(filepath.Join(dir, "figure9.csv"))
	if err != nil {
		t.Fatal(err)
	}
	defer f9.Close()
	recs, err := csv.NewReader(f9).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	sums := map[string]float64{}
	for _, rec := range recs[1:] {
		v, _ := strconv.ParseFloat(rec[2], 64)
		sums[rec[0]] += v
	}
	for q, s := range sums {
		if s < 0.999 || s > 1.001 {
			t.Errorf("%s ratios sum to %v", q, s)
		}
	}
}

func TestAllWithCSV(t *testing.T) {
	cfg := tinyConfig()
	cfg.SeqSizes = []int{2}
	cfg.Datasets = []string{"cal"}
	h := New(cfg)
	dir := t.TempDir()
	var sb strings.Builder
	if err := h.AllWithCSV(&sb, dir); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "CSV files written") {
		t.Error("CSV note missing from output")
	}
	if _, err := os.Stat(filepath.Join(dir, "table5.csv")); err != nil {
		t.Error("table5.csv not written")
	}
}

func TestWriteCSVDirBadPath(t *testing.T) {
	res := &SuiteResults{Survey: PaperSurvey()}
	// A path under an existing FILE cannot be created as a directory.
	f := filepath.Join(t.TempDir(), "occupied")
	if err := os.WriteFile(f, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := WriteCSVDir(filepath.Join(f, "sub"), res); err == nil {
		t.Error("expected error for unusable directory")
	}
}
