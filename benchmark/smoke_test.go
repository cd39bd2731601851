package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
)

// toyScale shrinks every city so the whole suite runs in seconds.
const toyScale = "0.05"

// TestMain lets the test binary stand in for the benchmark binary when a
// run re-executes itself as the measuring child.
func TestMain(m *testing.M) {
	if os.Getenv(childEnv) == "1" {
		os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
	}
	os.Exit(m.Run())
}

// TestSmokeEveryWorkload runs every workload at toy scale through the
// child-process path, untraced and traced, and checks the final line
// against BENCHMARK.json.
func TestSmokeEveryWorkload(t *testing.T) {
	s, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		for _, mode := range []string{"0", "1"} {
			w, mode := w, mode
			t.Run(w.name+"/trace="+mode, func(t *testing.T) {
				t.Parallel()
				var stdout, stderr bytes.Buffer
				code := run([]string{"-workload", w.name, "-seed", "7", "-seconds", "0.05",
					"-scale", toyScale, "-trace", mode, "-out", t.TempDir()}, &stdout, &stderr)
				if code != 0 {
					t.Fatalf("exit %d\n%s", code, stderr.String())
				}
				lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
				var line resultLine
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
					t.Fatalf("last line: %v", err)
				}
				declared := s.EndToEnd
				if mode == "1" {
					declared = s.PerLayer
				}
				if !line.Correct || line.Failed != 0 || line.Attempted == 0 {
					t.Errorf("correct=%v attempted=%d failed=%d\n%s", line.Correct, line.Attempted, line.Failed, stderr.String())
				}
				if len(line.Metrics) != len(declared) {
					t.Errorf("%d metrics, BENCHMARK.json declares %d", len(line.Metrics), len(declared))
				}
			})
		}
	}
}

func TestSpecNamesEveryWorkload(t *testing.T) {
	s, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range s.Workloads {
		names = append(names, w.Name)
	}
	var ours []string
	for _, w := range workloads {
		ours = append(ours, w.name)
	}
	if strings.Join(names, ",") != strings.Join(ours, ",") {
		t.Errorf("BENCHMARK.json workloads %v, benchmark runs %v", names, ours)
	}
	hasSetup := false
	for _, m := range s.EndToEnd {
		hasSetup = hasSetup || m.Name == "setup_s"
	}
	if !hasSetup {
		t.Error("BENCHMARK.json declares no setup_s")
	}
}
