package bench

import (
	"strings"
	"testing"
	"time"
)

func TestHumanBytes(t *testing.T) {
	tests := []struct {
		in   int64
		want string
	}{
		{512, "512 B"},
		{2048, "2.0 KB"},
		{3 << 20, "3.0 MB"},
		{5 << 30, "5.0 GB"},
	}
	for _, tt := range tests {
		if got := humanBytes(tt.in); got != tt.want {
			t.Errorf("humanBytes(%d) = %q, want %q", tt.in, got, tt.want)
		}
	}
}

func TestRenderFigure3HandlesDNFAndMissing(t *testing.T) {
	cells := []Figure3Cell{
		{Dataset: "toy", Algorithm: AlgBSSR, SeqSize: 2, MeanTime: time.Millisecond},
		{Dataset: "toy", Algorithm: AlgDij, SeqSize: 2, DNF: true},
		// sizes 3-5 missing entirely
	}
	var sb strings.Builder
	RenderFigure3(&sb, cells)
	out := sb.String()
	if !strings.Contains(out, "DNF") {
		t.Error("DNF cell not rendered")
	}
	if !strings.Contains(out, "1ms") {
		t.Errorf("mean time not rendered: %q", out)
	}
	if !strings.Contains(out, "-") {
		t.Error("missing cells should render as dashes")
	}
}

func TestRenderTable6MarksDNF(t *testing.T) {
	rows := []Table6Row{
		{Dataset: "toy", Algorithm: AlgBSSR, Bytes: 1 << 20},
		{Dataset: "toy", Algorithm: AlgDij, Bytes: 1 << 30, DNF: true},
	}
	var sb strings.Builder
	RenderTable6(&sb, rows)
	if !strings.Contains(sb.String(), "1.0 GB*") {
		t.Errorf("DNF star missing: %q", sb.String())
	}
}

func TestSameSkylinesToleratesFloatDust(t *testing.T) {
	if !closeEnough(1.0, 1.0+1e-12) {
		t.Error("tiny differences should be tolerated")
	}
	if closeEnough(1.0, 1.1) {
		t.Error("real differences should not be tolerated")
	}
	if abs(-3) != 3 || abs(3) != 3 {
		t.Error("abs wrong")
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
