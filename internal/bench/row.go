package bench

// Every skysr-bench mode (the paper suite, latency, churn, soak,
// httpload) reports in one layout. A Row names what it measured (dataset
// and scenario), carries the values it reports, and holds the verdict of
// every gate the mode puts on that measurement. Each mode decides its
// verdicts where it builds its rows, so Render, Check and WriteJSON serve
// every mode alike.

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
	"strconv"
	"strings"
	"text/tabwriter"
	"time"
)

// Row is one measurement of a mode.
type Row struct {
	Dataset  string    `json:"dataset"`
	Scenario string    `json:"scenario"`
	Counters []Counter `json:"counters"`
	Gates    []Gate    `json:"gates,omitempty"`
}

// Counter is one value a row reports. Only its gates are verdicts.
type Counter struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
}

// Gate is one named pass/fail verdict.
type Gate struct {
	Name string `json:"name"`
	OK   bool   `json:"ok"`
}

// Count appends a counter to the row.
func (r *Row) Count(name string, v float64) {
	r.Counters = append(r.Counters, Counter{Name: name, Value: v})
}

// Gate appends a gate verdict to the row.
func (r *Row) Gate(name string, ok bool) {
	r.Gates = append(r.Gates, Gate{Name: name, OK: ok})
}

// Failed returns the names of the row's failed gates.
func (r Row) Failed() []string {
	var names []string
	for _, g := range r.Gates {
		if !g.OK {
			names = append(names, g.Name)
		}
	}
	return names
}

// Render writes rows as a text table under title. Counters are columns,
// and a new header starts wherever the counter names change, so one mode
// may report rows of several shapes. The last column lists every gate
// with its verdict.
func Render(w io.Writer, title string, rows []Row) {
	writeln(w, "%s", title)
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	var header []string
	for i, r := range rows {
		names := make([]string, len(r.Counters))
		cells := []string{r.Dataset, r.Scenario}
		for j, c := range r.Counters {
			names[j] = c.Name
			cells = append(cells, formatValue(c.Value))
		}
		if i == 0 || !slices.Equal(names, header) {
			tw.Flush()
			header = names
			fmt.Fprintln(tw, strings.Join(append(append([]string{"dataset", "scenario"}, names...), "gates"), "\t"))
		}
		var verdicts []string
		for _, g := range r.Gates {
			verdict := "ok"
			if !g.OK {
				verdict = "FAIL"
			}
			verdicts = append(verdicts, g.Name+":"+verdict)
		}
		fmt.Fprintln(tw, strings.Join(append(cells, strings.Join(verdicts, " ")), "\t"))
	}
	tw.Flush()
}

// formatValue prints integral and large values without decimals and the
// rest with three.
func formatValue(v float64) string {
	if v == math.Trunc(v) || math.Abs(v) >= 100 {
		return strconv.FormatFloat(v, 'f', 0, 64)
	}
	return strconv.FormatFloat(v, 'f', 3, 64)
}

// Check fails when there are no rows or when any gate failed. The error
// names the dataset, the scenario and the gate of every failure.
func Check(rows []Row) error {
	if len(rows) == 0 {
		return errors.New("no rows")
	}
	var failed []string
	for _, r := range rows {
		for _, name := range r.Failed() {
			failed = append(failed, fmt.Sprintf("%s %s: %s", r.Dataset, r.Scenario, name))
		}
	}
	if len(failed) > 0 {
		return fmt.Errorf("failed gates: %s", strings.Join(failed, "; "))
	}
	return nil
}

// report is the envelope WriteJSON writes.
type report struct {
	GeneratedAt string   `json:"generated_at"`
	Scale       float64  `json:"scale"`
	Seed        int64    `json:"seed"`
	Datasets    []string `json:"datasets"`
	Rows        []Row    `json:"rows"`
}

// WriteJSON writes one mode's rows to path in the report envelope.
func WriteJSON(path string, cfg Config, rows []Row) error {
	data, err := json.MarshalIndent(report{
		GeneratedAt: time.Now().UTC().Format(time.RFC3339),
		Scale:       cfg.Scale,
		Seed:        cfg.Seed,
		Datasets:    cfg.Datasets,
		Rows:        rows,
	}, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
