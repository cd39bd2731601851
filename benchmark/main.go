// Command benchmark is the repository's end-to-end benchmark of the SkySR
// engine. It runs five workloads — the HTTP serving path, destination,
// unordered, batched and live-updated queries — against the skysr-serve
// default deployment, checks every run's answers against plain BSSR, and
// reports end-to-end metrics (untraced) or a per-layer breakdown (-trace
// 1). See README.md in this directory for the workloads, the metrics and
// how each layer metric maps onto an end-to-end one.
//
// Usage, from the repository root:
//
//	bash benchmark/run.sh [-workload W] [-seed N] [-seconds S] [-trace 0|1] [-out DIR]
//	bash benchmark/run.sh -compare A.json B.json
//
// Each workload runs in a child process that sees only the dataset and
// request plan the parent generated from the seed. The last line of
// standard output is one JSON object: correct, attempted, failed and the
// metrics BENCHMARK.json declares for the mode. Every run is also
// appended to DIR/results.json, which -compare reads.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"time"
)

// childEnv marks a process started as the measuring child of a run.
const childEnv = "SKYSR_BENCHMARK_CHILD"

// childTimeout bounds one child, so a run ends within the 180 s a run may
// take even when the machine stalls.
const childTimeout = 170 * time.Second

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    int
	out      string
	scale    float64
	child    string
	compare  bool
	args     []string
}

func parseFlags(args []string, stderr io.Writer) (*options, error) {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	o := &options{}
	fs.StringVar(&o.workload, "workload", "", "run one workload (default: all, each in turn)")
	fs.Int64Var(&o.seed, "seed", 42, "seed the request plan is drawn from")
	fs.Float64Var(&o.seconds, "seconds", 15, "length of the measured part of a run")
	fs.IntVar(&o.trace, "trace", 0, "1: report the per-layer breakdown from a traced pass and write DIR/trace-<workload>.json")
	fs.StringVar(&o.out, "out", filepath.Join(".bench_build", "results"), "directory for results.json and trace files")
	fs.Float64Var(&o.scale, "scale", 1, "multiplies every workload's city size (the tests run at toy scale)")
	fs.BoolVar(&o.compare, "compare", false, "compare two results files: -compare A.json B.json")
	fs.StringVar(&o.child, "child", "", "internal: measure the inputs in this directory")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	o.args = fs.Args()
	switch {
	case o.trace != 0 && o.trace != 1:
		return nil, fmt.Errorf("-trace must be 0 or 1")
	case o.seconds <= 0:
		return nil, fmt.Errorf("-seconds must be positive")
	case o.scale <= 0:
		return nil, fmt.Errorf("-scale must be positive")
	case o.compare && len(o.args) != 2:
		return nil, fmt.Errorf("-compare takes two results files")
	case !o.compare && len(o.args) != 0:
		return nil, fmt.Errorf("unexpected arguments %q", o.args)
	}
	return o, nil
}

// run is the whole program; it returns the exit code.
func run(args []string, stdout, stderr io.Writer) int {
	o, err := parseFlags(args, stderr)
	if err != nil {
		if !errors.Is(err, flag.ErrHelp) {
			fmt.Fprintln(stderr, "benchmark:", err)
		}
		return 2
	}
	if o.compare {
		return runCompare(o.args[0], o.args[1], stdout, stderr)
	}
	if o.child != "" {
		rec, err := runChild(o.child, o.workload, o.seconds, o.trace == 1, o.out)
		if err == nil {
			var raw []byte
			if raw, err = json.Marshal(rec); err == nil {
				err = os.WriteFile(filepath.Join(o.child, "result.json"), raw, 0o644)
			}
		}
		if err != nil {
			fmt.Fprintf(stderr, "benchmark: %s: %v\n", o.workload, err)
			return 1
		}
		return 0
	}
	s, err := loadSpec()
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	selected := workloads
	if o.workload != "" {
		w, err := workloadByName(o.workload)
		if err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 2
		}
		selected = []*workload{w}
	}
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	var recs []*Record
	for _, w := range selected {
		rec, err := runWorkload(o, w, stderr)
		if err != nil {
			fmt.Fprintf(stderr, "benchmark: %s: %v\n", w.name, err)
			return 1
		}
		printTable(stderr, rec)
		if err := appendRecord(filepath.Join(o.out, "results.json"), rec); err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
		recs = append(recs, rec)
	}
	line, err := summarize(s, recs, o.trace == 1)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	raw, err := json.Marshal(line)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(raw))
	if !line.Correct {
		return 1
	}
	return 0
}

// runWorkload generates the workload's inputs and measures them in a
// child process, which it waits for.
func runWorkload(o *options, w *workload, stderr io.Writer) (*Record, error) {
	dir, err := os.MkdirTemp(o.out, "inputs-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	in, err := generate(w, o.seed, o.scale, dir)
	if err != nil {
		return nil, err
	}
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), childTimeout)
	defer cancel()
	cmd := exec.CommandContext(ctx, exe,
		"-child", dir, "-workload", w.name, "-seed", fmt.Sprint(o.seed),
		"-seconds", fmt.Sprint(o.seconds), "-trace", fmt.Sprint(o.trace), "-out", o.out)
	cmd.Env = append(os.Environ(), childEnv+"=1")
	cmd.Stdout, cmd.Stderr = stderr, stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("child: %w", err)
	}
	raw, err := os.ReadFile(filepath.Join(dir, "result.json"))
	if err != nil {
		return nil, err
	}
	rec := new(Record)
	if err := json.Unmarshal(raw, rec); err != nil {
		return nil, fmt.Errorf("child result: %w", err)
	}
	rec.Fingerprints = in.Fingerprints
	return rec, nil
}
