// Command skysr-bench regenerates every table and figure of the paper's
// evaluation (§7–§8) on synthetic datasets, and gates the engine's
// serving extensions. Every mode prints one table of rows, writes them as
// a machine-readable report with -json, and exits 1 when one of its gates
// fails. Without -gate it runs the paper suite, whose only gate is
// -verify's: every algorithm returns BSSR's skyline. -gate runs one gated
// mode instead:
//
//   - latency times serving variants (category index, top-k, constant
//     and rush-hour profiles) against plain BSSR on one serial searcher;
//   - churn interleaves queries with live updates;
//   - soak storms a live server with faults, cancels and updates;
//   - httpload drives concurrent HTTP clients while scraping /metrics.
//
// Usage:
//
//	skysr-bench                     # paper suite, laptop-sized defaults
//	skysr-bench -scale 1 -queries 100 -sizes 2,3,4,5 -verify -json BENCH_PAPER.json
//	skysr-bench -gate latency -json BENCH_LATENCY.json
//	skysr-bench -gate churn -json BENCH_CHURN.json
//	skysr-bench -gate soak -json BENCH_SOAK.json
//	skysr-bench -gate httpload -json BENCH_HTTPLOAD.json
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"skysr/internal/bench"
)

// Scenario sizes of the churn, soak and httpload gates.
const (
	churnRounds = 5   // update batches each dataset sustains
	soakOps     = 160 // soak client operations per dataset
	soakWorkers = 8   // concurrent soak clients
	httpLoadOps = 200 // route requests per (dataset, workers) point
)

// httpLoadWorkers lists the concurrent client counts the httpload gate
// measures, ascending; its summary row compares the multi-worker points
// with the first.
var httpLoadWorkers = []int{1, 4, 8}

// mode is what one run of the command measures: the title of its table
// and its runner.
type mode struct {
	title string
	run   func(*bench.Harness) ([]bench.Row, error)
}

// modes maps every -gate name to its mode; the empty name is the paper
// suite.
var modes = map[string]mode{
	"": {"Paper evaluation (§7–§8): times in µs, memory in bytes; the paper's Table 6 is the figure3 bytes at |Sq|=4, its Figure 4 the largest |Sq|",
		(*bench.Harness).Paper},
	"latency": {"Latency: serving variants vs plain BSSR (template workload, |Sq| = 3; best of two passes, index build excluded)",
		(*bench.Harness).Latency},
	"churn": {"Churn: mixed read/write serving (category-index profile; updates interleave with query rounds)",
		perDataset(churnDataset)},
	"soak": {"Soak: fault-injected HTTP serving (mixed query/update/cancel traffic; recovery asserted after the storm)",
		perDataset(soakDataset)},
	"httpload": {"HTTP load: concurrent clients vs the serving tier, /metrics scraped mid-run; summary rows gate throughput scaling and instrumentation overhead",
		perDataset(httpLoadDataset)},
}

// perDataset runs one gated mode's scenario on every configured dataset.
func perDataset(run func(cfg bench.Config, name string) ([]bench.Row, error)) func(*bench.Harness) ([]bench.Row, error) {
	return func(h *bench.Harness) ([]bench.Row, error) {
		var rows []bench.Row
		for _, name := range h.Config().Datasets {
			dsRows, err := run(h.Config(), name)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", name, err)
			}
			rows = append(rows, dsRows...)
		}
		return rows, nil
	}
}

func main() {
	cfg := bench.DefaultConfig()
	scale := flag.Float64("scale", cfg.Scale, "dataset scale (1.0 ≈ 1:100 of the paper)")
	queries := flag.Int("queries", cfg.Queries, "queries per measurement point (paper: 100)")
	seed := flag.Int64("seed", cfg.Seed, "generation seed")
	sizes := flag.String("sizes", "2,3,4,5", "comma-separated |Sq| values")
	datasets := flag.String("datasets", "tokyo,nyc,cal", "comma-separated dataset presets")
	budget := flag.Int64("budget", cfg.Budget, "naive-baseline work budget per query (0 = unlimited)")
	verify := flag.Bool("verify", false, "gate the suite's Figure 3 rows on returning BSSR's skyline")
	gateName := flag.String("gate", "", "run one gated mode instead of the suite (latency, churn, soak or httpload): print its table and exit 1 when one of its gates fails")
	jsonOut := flag.String("json", "", "write the rows as a JSON report to this path")
	flag.Parse()

	cfg.Scale = *scale
	cfg.Queries = *queries
	cfg.Seed = *seed
	cfg.Budget = *budget
	cfg.Verify = *verify
	cfg.Datasets = splitList(*datasets)
	cfg.SeqSizes = nil
	for _, s := range splitList(*sizes) {
		n, err := strconv.Atoi(s)
		if err != nil || n < 1 {
			exit(2, "bad size %q", s)
		}
		cfg.SeqSizes = append(cfg.SeqSizes, n)
	}

	m, ok := modes[*gateName]
	if !ok {
		exit(2, "unknown gate %q (want latency, churn, soak or httpload)", *gateName)
	}
	h := bench.New(cfg)
	rows, err := m.run(h)
	if err != nil {
		exit(1, "%v", err)
	}
	bench.Render(os.Stdout, m.title, rows)
	if *jsonOut != "" {
		if err := bench.WriteJSON(*jsonOut, h.Config(), rows); err != nil {
			exit(1, "write %s: %v", *jsonOut, err)
		}
		fmt.Printf("wrote %s\n", *jsonOut)
	}
	name := *gateName + " gate"
	if *gateName == "" {
		name = "paper suite"
	}
	if err := bench.Check(rows); err != nil {
		exit(1, "%s: %v", name, err)
	}
	fmt.Printf("%s passed\n", name)
}

// exit reports a failure on stderr and exits with code: 2 for a usage
// error, 1 for a failed run or gate.
func exit(code int, format string, args ...any) {
	fmt.Fprintf(os.Stderr, "skysr-bench: "+format+"\n", args...)
	os.Exit(code)
}

func splitList(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if p := strings.TrimSpace(part); p != "" {
			out = append(out, p)
		}
	}
	return out
}
