package bench

import (
	"encoding/csv"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"time"
)

// SuiteResults collects every experiment's structured output so one run
// can feed both the text rendering and the CSV export.
type SuiteResults struct {
	Table5  []Table5Row
	Figure3 []Figure3Cell
	Table6  []Table6Row
	Table7  []Table7Row
	Table8  []Table8Row
	Figure4 []Figure4Row
	Figure5 []Figure5Row
	Figure6 []Figure6Row
	Survey  *Survey
}

// RunAll executes the complete experiment suite and returns the results.
func (h *Harness) RunAll() (*SuiteResults, error) {
	res := &SuiteResults{Survey: PaperSurvey()}
	var err error
	if res.Table5, err = h.Table5(); err != nil {
		return nil, fmt.Errorf("table 5: %w", err)
	}
	if res.Figure3, err = h.Figure3(); err != nil {
		return nil, fmt.Errorf("figure 3: %w", err)
	}
	if res.Table6, err = h.Table6(); err != nil {
		return nil, fmt.Errorf("table 6: %w", err)
	}
	if res.Table7, err = h.Table7(); err != nil {
		return nil, fmt.Errorf("table 7: %w", err)
	}
	if res.Table8, err = h.Table8(); err != nil {
		return nil, fmt.Errorf("table 8: %w", err)
	}
	if res.Figure4, err = h.Figure4(); err != nil {
		return nil, fmt.Errorf("figure 4: %w", err)
	}
	if res.Figure5, err = h.Figure5(); err != nil {
		return nil, fmt.Errorf("figure 5: %w", err)
	}
	if res.Figure6, err = h.Figure6(); err != nil {
		return nil, fmt.Errorf("figure 6: %w", err)
	}
	return res, nil
}

// WriteCSVDir writes one CSV file per experiment into dir (created if
// needed): table5.csv … figure9.csv. CSVs carry raw values (durations in
// microseconds, memory in bytes) for plotting.
func WriteCSVDir(dir string, res *SuiteResults) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	files := []struct {
		name  string
		write func(w *csv.Writer) error
	}{
		{"table5.csv", func(w *csv.Writer) error { return csvTable5(w, res.Table5) }},
		{"figure3.csv", func(w *csv.Writer) error { return csvFigure3(w, res.Figure3) }},
		{"table6.csv", func(w *csv.Writer) error { return csvTable6(w, res.Table6) }},
		{"table7.csv", func(w *csv.Writer) error { return csvTable7(w, res.Table7) }},
		{"table8.csv", func(w *csv.Writer) error { return csvTable8(w, res.Table8) }},
		{"figure4.csv", func(w *csv.Writer) error { return csvFigure4(w, res.Figure4) }},
		{"figure5.csv", func(w *csv.Writer) error { return csvFigure5(w, res.Figure5) }},
		{"figure6.csv", func(w *csv.Writer) error { return csvFigure6(w, res.Figure6) }},
		{"figure9.csv", func(w *csv.Writer) error { return csvFigure9(w, res.Survey) }},
	}
	for _, f := range files {
		if err := writeCSVFile(filepath.Join(dir, f.name), f.write); err != nil {
			return fmt.Errorf("%s: %w", f.name, err)
		}
	}
	return nil
}

func writeCSVFile(path string, write func(w *csv.Writer) error) error {
	file, err := os.Create(path)
	if err != nil {
		return err
	}
	w := csv.NewWriter(file)
	if err := write(w); err != nil {
		file.Close()
		return err
	}
	w.Flush()
	if err := w.Error(); err != nil {
		file.Close()
		return err
	}
	return file.Close()
}

func fstr(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
func istr(v int64) string   { return strconv.FormatInt(v, 10) }
func usec(d time.Duration) string {
	return strconv.FormatFloat(float64(d)/float64(time.Microsecond), 'g', -1, 64)
}

func csvTable5(w *csv.Writer, rows []Table5Row) error {
	if err := w.Write([]string{"dataset", "vertices", "pois", "edges", "categories", "trees", "build_us"}); err != nil {
		return err
	}
	for _, r := range rows {
		if err := w.Write([]string{r.Dataset, istr(int64(r.Vertices)), istr(int64(r.PoIs)),
			istr(int64(r.Edges)), istr(int64(r.Categories)), istr(int64(r.Trees)), usec(r.BuildTime)}); err != nil {
			return err
		}
	}
	return nil
}

func csvFigure3(w *csv.Writer, cells []Figure3Cell) error {
	if err := w.Write([]string{"dataset", "algorithm", "seq_size", "mean_us", "median_us", "p95_us", "dnf", "mismatch"}); err != nil {
		return err
	}
	for _, c := range cells {
		if err := w.Write([]string{c.Dataset, c.Algorithm.String(), istr(int64(c.SeqSize)),
			usec(c.MeanTime), usec(c.MedianTime), usec(c.P95Time),
			strconv.FormatBool(c.DNF), strconv.FormatBool(c.Mismatch)}); err != nil {
			return err
		}
	}
	return nil
}

func csvTable6(w *csv.Writer, rows []Table6Row) error {
	if err := w.Write([]string{"dataset", "algorithm", "bytes", "dnf"}); err != nil {
		return err
	}
	for _, r := range rows {
		if err := w.Write([]string{r.Dataset, r.Algorithm.String(), istr(r.Bytes), strconv.FormatBool(r.DNF)}); err != nil {
			return err
		}
	}
	return nil
}

func csvTable7(w *csv.Writer, rows []Table7Row) error {
	if err := w.Write([]string{"dataset", "seq_size", "weight_sum_with", "weight_sum_without", "init_us", "init_routes", "ratio"}); err != nil {
		return err
	}
	for _, r := range rows {
		if err := w.Write([]string{r.Dataset, istr(int64(r.SeqSize)), fstr(r.WeightSumWith),
			fstr(r.WeightSumWithout), usec(r.InitTime), fstr(r.InitRoutes), fstr(r.Ratio)}); err != nil {
			return err
		}
	}
	return nil
}

func csvTable8(w *csv.Writer, rows []Table8Row) error {
	if err := w.Write([]string{"dataset", "seq_size", "proposed", "distance_based"}); err != nil {
		return err
	}
	for _, r := range rows {
		if err := w.Write([]string{r.Dataset, istr(int64(r.SeqSize)), istr(r.Proposed), istr(r.Distance)}); err != nil {
			return err
		}
	}
	return nil
}

func csvFigure4(w *csv.Writer, rows []Figure4Row) error {
	if err := w.Write([]string{"dataset", "seq_size", "semantic_ratio", "perfect_ratio"}); err != nil {
		return err
	}
	for _, r := range rows {
		if err := w.Write([]string{r.Dataset, istr(int64(r.SeqSize)), fstr(r.SemanticRatio), fstr(r.PerfectRatio)}); err != nil {
			return err
		}
	}
	return nil
}

func csvFigure5(w *csv.Writer, rows []Figure5Row) error {
	if err := w.Write([]string{"dataset", "seq_size", "with_cache", "without_cache"}); err != nil {
		return err
	}
	for _, r := range rows {
		if err := w.Write([]string{r.Dataset, istr(int64(r.SeqSize)), fstr(r.WithCache), fstr(r.WithoutCache)}); err != nil {
			return err
		}
	}
	return nil
}

func csvFigure6(w *csv.Writer, rows []Figure6Row) error {
	if err := w.Write([]string{"dataset", "seq_size", "mean", "max"}); err != nil {
		return err
	}
	for _, r := range rows {
		if err := w.Write([]string{r.Dataset, istr(int64(r.SeqSize)), fstr(r.Mean), istr(int64(r.Max))}); err != nil {
			return err
		}
	}
	return nil
}

func csvFigure9(w *csv.Writer, s *Survey) error {
	if err := w.Write([]string{"question", "option", "ratio", "respondents"}); err != nil {
		return err
	}
	for _, q := range s.Questions {
		ratios, err := s.Ratios(q.ID)
		if err != nil {
			return err
		}
		for i, opt := range q.Options {
			if err := w.Write([]string{q.ID, opt, fstr(ratios[i]), istr(int64(s.Respondents(q.ID)))}); err != nil {
				return err
			}
		}
	}
	return nil
}

// RenderAll writes every experiment of res as text, in the paper's order.
func RenderAll(w io.Writer, res *SuiteResults) error {
	RenderTable5(w, res.Table5)
	writeln(w, "")
	RenderFigure3(w, res.Figure3)
	writeln(w, "")
	RenderTable6(w, res.Table6)
	writeln(w, "")
	RenderTable7(w, res.Table7)
	writeln(w, "")
	RenderTable8(w, res.Table8)
	writeln(w, "")
	RenderFigure4(w, res.Figure4)
	writeln(w, "")
	RenderFigure5(w, res.Figure5)
	writeln(w, "")
	RenderFigure6(w, res.Figure6)
	writeln(w, "")
	return RenderFigure9(w, res.Survey)
}
