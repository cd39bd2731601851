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
//   - httpload times the HTTP serving tier's throughput at several
//     client counts and the instrumentation overhead against a bare
//     engine.
//
// What the serving tier must get right under faults and load is tested
// in internal/serve, under go test -race.
//
// Usage:
//
//	skysr-bench                     # paper suite, laptop-sized defaults
//	skysr-bench -scale 1 -queries 100 -sizes 2,3,4,5 -verify -json BENCH_PAPER.json
//	skysr-bench -gate latency -json BENCH_LATENCY.json
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
	"httpload": {"HTTP load: concurrent clients vs the serving tier; summary rows gate throughput scaling and instrumentation overhead",
		httpLoad},
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
	gateName := flag.String("gate", "", "run one gated mode instead of the suite (latency or httpload): print its table and exit 1 when one of its gates fails")
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
		exit(2, "unknown gate %q (want latency or httpload)", *gateName)
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
