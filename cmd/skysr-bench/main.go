// Command skysr-bench regenerates every table and figure of the paper's
// evaluation (§7–§8) on synthetic datasets, and gates the engine's
// serving extensions. The -latency, -churn, -soak and -httpload modes each
// print one table, write it as a machine-readable report with -json, and
// exit non-zero with -check when one of the mode's gates fails:
//
//   - -latency times serving variants (category index, top-k, constant
//     and rush-hour profiles) against plain BSSR on one serial searcher;
//   - -churn interleaves queries with live updates;
//   - -soak storms a live server with faults, cancels and updates;
//   - -httpload drives concurrent HTTP clients while scraping /metrics.
//
// Usage:
//
//	skysr-bench                     # full suite, laptop-sized defaults
//	skysr-bench -scale 1 -queries 100 -sizes 2,3,4,5
//	skysr-bench -latency -json BENCH_LATENCY.json -check
//	skysr-bench -churn -json BENCH_PR3.json -check
//	skysr-bench -soak -json BENCH_PR7.json -check
//	skysr-bench -httpload -json BENCH_PR8.json -check
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"skysr/internal/bench"
)

// Scenario sizes of the -churn, -soak and -httpload gates.
const (
	churnRounds = 5   // update batches each dataset sustains
	soakOps     = 160 // soak client operations per dataset
	soakWorkers = 8   // concurrent soak clients
	httpLoadOps = 200 // route requests per (dataset, workers) point
)

// httpLoadWorkers lists the concurrent client counts -httpload measures,
// ascending; the gate compares the multi-worker points with the first.
var httpLoadWorkers = []int{1, 4, 8}

// result is what one gated mode produced: the rows its -json report
// carries (httpload adds its overhead rows beside them), their text
// rendering, and the gate -check applies.
type result struct {
	rows, overhead any
	err            error
	render         func(io.Writer)
	check          func() error
	passed         string // printed when the gate holds
}

func main() {
	cfg := bench.DefaultConfig()
	scale := flag.Float64("scale", cfg.Scale, "dataset scale (1.0 ≈ 1:100 of the paper)")
	queries := flag.Int("queries", cfg.Queries, "queries per measurement point (paper: 100)")
	seed := flag.Int64("seed", cfg.Seed, "generation seed")
	sizes := flag.String("sizes", "2,3,4,5", "comma-separated |Sq| values")
	datasets := flag.String("datasets", "tokyo,nyc,cal", "comma-separated dataset presets")
	budget := flag.Int64("budget", cfg.Budget, "naive-baseline work budget per query (0 = unlimited)")
	verify := flag.Bool("verify", false, "cross-check all algorithms return identical skylines")
	csvDir := flag.String("csv", "", "directory for machine-readable CSV exports (optional)")
	latencyOnly := flag.Bool("latency", false, "run only the serial-latency variant table (category-index, top-k, constant-profile and rush-hour vs plain BSSR)")
	churnOnly := flag.Bool("churn", false, "run only the mixed read/write live-update scenario (queries interleaved with ApplyUpdates batches)")
	soakOnly := flag.Bool("soak", false, "run only the fault-injected HTTP serving soak (mixed query/update/cancel storm, recovery asserted afterwards)")
	httploadOnly := flag.Bool("httpload", false, "run only the HTTP load + observability scenario (concurrent clients, /metrics scraped mid-run, counter exactness and instrumentation overhead gated)")
	jsonOut := flag.String("json", "", "with -latency, -churn, -soak or -httpload: write the mode's rows as a JSON report to this path")
	check := flag.Bool("check", false, "with -latency, -churn, -soak or -httpload: exit non-zero unless every gate of the mode holds")
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
			fmt.Fprintf(os.Stderr, "skysr-bench: bad size %q\n", s)
			os.Exit(2)
		}
		cfg.SeqSizes = append(cfg.SeqSizes, n)
	}

	h := bench.New(cfg)
	var res result
	switch {
	case *httploadOnly:
		rows, overhead, err := runHTTPLoad(h.Config())
		res = result{rows: rows, overhead: overhead, err: err,
			render: func(w io.Writer) { bench.RenderHTTPLoad(w, rows, overhead) },
			check:  func() error { return bench.CheckHTTPLoad(rows, overhead) },
			passed: "httpload check passed: scrapes parse under load, counters exact, throughput scales, overhead within 1.05×"}
	case *soakOnly:
		rows, err := runSoak(h.Config())
		res = result{rows: rows, err: err,
			render: func(w io.Writer) { bench.RenderSoak(w, rows) },
			check:  func() error { return bench.CheckSoak(rows) },
			passed: "soak check passed: no leaks, one live snapshot, answers identical after the fault storm"}
	case *churnOnly:
		rows, err := runChurn(h.Config())
		res = result{rows: rows, err: err,
			render: func(w io.Writer) { bench.RenderChurn(w, rows) },
			check:  func() error { return bench.CheckChurn(rows) },
			passed: "churn check passed: answers identical after every update round, repairs below full-rebuild work"}
	case *latencyOnly:
		rows, err := h.Latency()
		res = result{rows: rows, err: err,
			render: func(w io.Writer) { bench.RenderLatency(w, rows) },
			check:  func() error { return bench.CheckLatency(rows) },
			passed: "latency check passed: every variant identical or consistent with plain BSSR and within its median bound"}
	default:
		// The full suite renders as it runs and has no report or gate.
		res.err = h.AllWithCSV(os.Stdout, *csvDir)
	}
	if res.err != nil {
		fmt.Fprintf(os.Stderr, "skysr-bench: %v\n", res.err)
		os.Exit(1)
	}
	if res.check == nil {
		return
	}
	res.render(os.Stdout)
	if *jsonOut != "" {
		if err := bench.WriteJSON(*jsonOut, h.Config(), res.rows, res.overhead); err != nil {
			fmt.Fprintf(os.Stderr, "skysr-bench: write %s: %v\n", *jsonOut, err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s\n", *jsonOut)
	}
	if *check {
		if err := res.check(); err != nil {
			fmt.Fprintf(os.Stderr, "skysr-bench: %v\n", err)
			os.Exit(1)
		}
		fmt.Println(res.passed)
	}
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
