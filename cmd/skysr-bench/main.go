// Command skysr-bench regenerates every table and figure of the paper's
// evaluation (§7–§8) on synthetic datasets, and measures the engine's
// serving extensions: serving-profile latency, the live-update churn
// scenario, and ranked top-k enumeration. The
// full-suite output is the source material of EXPERIMENTS.md; the
// -latency, -churn, -topk and -timedep modes write the machine-readable
// reports CI tracks per PR (BENCH_PR2.json through BENCH_PR5.json) and
// gate regressions with -check.
//
// Usage:
//
//	skysr-bench                     # full suite, laptop-sized defaults
//	skysr-bench -scale 1 -queries 100 -sizes 2,3,4,5
//	skysr-bench -latency -json BENCH_PR2.json -check
//	skysr-bench -churn -json BENCH_PR3.json -check
//	skysr-bench -topk -json BENCH_PR4.json -check
//	skysr-bench -timedep -json BENCH_PR5.json -check
//	skysr-bench -soak -json BENCH_PR7.json -check
//	skysr-bench -httpload -json BENCH_PR8.json -check
//	skysr-bench -compare -json BENCH_TRAJECTORY.json -check   # merge historical reports, gate drift
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"skysr/internal/bench"
)

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
	latencyOnly := flag.Bool("latency", false, "run only the serving-profile latency comparison (baseline vs category-index)")
	churnOnly := flag.Bool("churn", false, "run only the mixed read/write live-update scenario (queries interleaved with ApplyUpdates batches)")
	soakOnly := flag.Bool("soak", false, "run only the fault-injected HTTP serving soak (mixed query/update/cancel storm, recovery asserted afterwards)")
	soakOps := flag.Int("soak-ops", 160, "with -soak: client operations per dataset")
	soakWorkers := flag.Int("soak-workers", 8, "with -soak: concurrent client workers")
	httploadOnly := flag.Bool("httpload", false, "run only the HTTP load + observability scenario (concurrent clients, /metrics scraped mid-run, counter exactness and instrumentation overhead gated)")
	httploadOps := flag.Int("httpload-ops", 200, "with -httpload: route requests per (dataset, workers) point")
	httploadWorkers := flag.String("httpload-workers", "1,4,8", "with -httpload: comma-separated concurrent client counts")
	compareOnly := flag.Bool("compare", false, "merge the historical bench reports (positional args, default BENCH_PR*.json) into one trajectory and gate cross-PR latency drift")
	topkOnly := flag.Bool("topk", false, "run only the ranked top-k sweep (k = 1, 2, 4, 8 vs plain Search and vs k repeated Searches)")
	timedepOnly := flag.Bool("timedep", false, "run only the cost-metric experiment (static vs constant-profile vs rush-hour time-dependent latency)")
	jsonOut := flag.String("json", "", "with -latency, -churn, -topk or -timedep: write the machine-readable report (e.g. BENCH_PR2.json ... BENCH_PR5.json) to this path")
	check := flag.Bool("check", false, "with -latency, -churn, -topk or -timedep: exit non-zero if the profile regresses (identical answers, latency / incremental-repair / k=1 / metric-overhead gates)")
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
	if *compareOnly {
		paths := flag.Args()
		if len(paths) == 0 {
			var err error
			paths, err = filepath.Glob("BENCH_PR*.json")
			if err != nil || len(paths) == 0 {
				fmt.Fprintln(os.Stderr, "skysr-bench: -compare found no BENCH_PR*.json reports (pass paths as arguments)")
				os.Exit(1)
			}
		}
		points, err := bench.LoadTrajectory(paths)
		if err != nil {
			fmt.Fprintf(os.Stderr, "skysr-bench: %v\n", err)
			os.Exit(1)
		}
		bench.RenderTrajectory(os.Stdout, points)
		if *jsonOut != "" {
			if err := bench.WriteTrajectoryJSON(*jsonOut, points); err != nil {
				fmt.Fprintf(os.Stderr, "skysr-bench: write %s: %v\n", *jsonOut, err)
				os.Exit(1)
			}
			fmt.Printf("wrote %s\n", *jsonOut)
		}
		if *check {
			if err := bench.CheckTrajectory(points); err != nil {
				fmt.Fprintf(os.Stderr, "skysr-bench: %v\n", err)
				os.Exit(1)
			}
			fmt.Println("compare check passed: latest plain-search medians within tolerance of the best historical report")
		}
		return
	}
	if *httploadOnly {
		var workerCounts []int
		for _, s := range splitList(*httploadWorkers) {
			n, err := strconv.Atoi(s)
			if err != nil || n < 1 {
				fmt.Fprintf(os.Stderr, "skysr-bench: bad -httpload-workers value %q\n", s)
				os.Exit(2)
			}
			workerCounts = append(workerCounts, n)
		}
		rows, overhead, err := runHTTPLoad(h.Config(), *httploadOps, workerCounts)
		if err != nil {
			fmt.Fprintf(os.Stderr, "skysr-bench: %v\n", err)
			os.Exit(1)
		}
		bench.RenderHTTPLoad(os.Stdout, rows, overhead)
		if *jsonOut != "" {
			if err := bench.WriteHTTPLoadJSON(*jsonOut, h.Config(), rows, overhead); err != nil {
				fmt.Fprintf(os.Stderr, "skysr-bench: write %s: %v\n", *jsonOut, err)
				os.Exit(1)
			}
			fmt.Printf("wrote %s\n", *jsonOut)
		}
		if *check {
			if err := bench.CheckHTTPLoad(rows, overhead); err != nil {
				fmt.Fprintf(os.Stderr, "skysr-bench: %v\n", err)
				os.Exit(1)
			}
			fmt.Println("httpload check passed: scrapes parse under load, counters exact, throughput scales, overhead within 1.05×")
		}
		return
	}
	if *soakOnly {
		rows, err := runSoak(h.Config(), *soakOps, *soakWorkers)
		if err != nil {
			fmt.Fprintf(os.Stderr, "skysr-bench: %v\n", err)
			os.Exit(1)
		}
		bench.RenderSoak(os.Stdout, rows)
		if *jsonOut != "" {
			if err := bench.WriteSoakJSON(*jsonOut, h.Config(), rows); err != nil {
				fmt.Fprintf(os.Stderr, "skysr-bench: write %s: %v\n", *jsonOut, err)
				os.Exit(1)
			}
			fmt.Printf("wrote %s\n", *jsonOut)
		}
		if *check {
			if err := bench.CheckSoak(rows); err != nil {
				fmt.Fprintf(os.Stderr, "skysr-bench: %v\n", err)
				os.Exit(1)
			}
			fmt.Println("soak check passed: no leaks, one live snapshot, answers identical after the fault storm")
		}
		return
	}
	if *churnOnly {
		rows, err := runChurn(h.Config())
		if err != nil {
			fmt.Fprintf(os.Stderr, "skysr-bench: %v\n", err)
			os.Exit(1)
		}
		bench.RenderChurn(os.Stdout, rows)
		if *jsonOut != "" {
			if err := bench.WriteChurnJSON(*jsonOut, h.Config(), rows); err != nil {
				fmt.Fprintf(os.Stderr, "skysr-bench: write %s: %v\n", *jsonOut, err)
				os.Exit(1)
			}
			fmt.Printf("wrote %s\n", *jsonOut)
		}
		if *check {
			if err := bench.CheckChurn(rows); err != nil {
				fmt.Fprintf(os.Stderr, "skysr-bench: %v\n", err)
				os.Exit(1)
			}
			fmt.Println("churn check passed: answers identical after updates, repairs below full-rebuild work")
		}
		return
	}
	if *topkOnly {
		rows, err := h.TopK()
		if err != nil {
			fmt.Fprintf(os.Stderr, "skysr-bench: %v\n", err)
			os.Exit(1)
		}
		bench.RenderTopK(os.Stdout, rows)
		if *jsonOut != "" {
			if err := bench.WriteTopKJSON(*jsonOut, cfg, rows); err != nil {
				fmt.Fprintf(os.Stderr, "skysr-bench: write %s: %v\n", *jsonOut, err)
				os.Exit(1)
			}
			fmt.Printf("wrote %s\n", *jsonOut)
		}
		if *check {
			if err := bench.CheckTopK(rows); err != nil {
				fmt.Fprintf(os.Stderr, "skysr-bench: %v\n", err)
				os.Exit(1)
			}
			fmt.Println("topk check passed: k=1 identical to Search, bands monotone, top-8 beats 8 repeated Searches")
		}
		return
	}
	if *timedepOnly {
		rows, err := h.Timedep()
		if err != nil {
			fmt.Fprintf(os.Stderr, "skysr-bench: %v\n", err)
			os.Exit(1)
		}
		bench.RenderTimedep(os.Stdout, rows)
		if *jsonOut != "" {
			if err := bench.WriteTimedepJSON(*jsonOut, cfg, rows); err != nil {
				fmt.Fprintf(os.Stderr, "skysr-bench: write %s: %v\n", *jsonOut, err)
				os.Exit(1)
			}
			fmt.Printf("wrote %s\n", *jsonOut)
		}
		if *check {
			if err := bench.CheckTimedep(rows); err != nil {
				fmt.Fprintf(os.Stderr, "skysr-bench: %v\n", err)
				os.Exit(1)
			}
			fmt.Println("timedep check passed: constant profiles free and identical, rush-hour answers consistent across configurations")
		}
		return
	}
	if *latencyOnly {
		rows, err := h.Latency()
		if err != nil {
			fmt.Fprintf(os.Stderr, "skysr-bench: %v\n", err)
			os.Exit(1)
		}
		bench.RenderLatency(os.Stdout, rows)
		if *jsonOut != "" {
			if err := bench.WriteLatencyJSON(*jsonOut, cfg, rows); err != nil {
				fmt.Fprintf(os.Stderr, "skysr-bench: write %s: %v\n", *jsonOut, err)
				os.Exit(1)
			}
			fmt.Printf("wrote %s\n", *jsonOut)
		}
		if *check {
			if err := bench.CheckLatency(rows); err != nil {
				fmt.Fprintf(os.Stderr, "skysr-bench: %v\n", err)
				os.Exit(1)
			}
			fmt.Println("latency check passed: category-index identical and at least as fast as baseline")
		}
		return
	}
	if err := h.AllWithCSV(os.Stdout, *csvDir); err != nil {
		fmt.Fprintf(os.Stderr, "skysr-bench: %v\n", err)
		os.Exit(1)
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
