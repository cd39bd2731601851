package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	"skysr"
	"skysr/internal/dataset"
	"skysr/internal/dijkstra"
)

// setupReps is how many times a run opens the dataset and warms the
// category index; setup_s is their median.
const setupReps = 7

// child is the measuring process of one workload run. It sees only the
// inputs directory the parent generated.
type child struct {
	w         *workload
	in        *inputs
	traceMode bool
	sample    []int
	// verify runs the oracle on the given answers; runners call it where
	// the state their answers reflect is known. Nil disables checking.
	verify func(label, datasetPath string, eval func([]int) ([][]point, error)) error
	checks []oracleCheck
}

func (c *child) check(label, path string, eval func([]int) ([][]point, error)) error {
	chk, err := checkAnswers(label, c.in.Plan, c.sample, path, eval)
	if err != nil {
		return err
	}
	c.checks = append(c.checks, chk)
	return nil
}

// setupResult is the deployment's start-up: skysr.Open of the binary
// dataset, then WarmCategoryIndex, repeated.
type setupResult struct {
	eng               *skysr.Engine
	setup, open, warm []float64 // seconds, milliseconds, milliseconds
}

func measureSetup(path string, reps int, tr *tracer) (*setupResult, error) {
	r := &setupResult{}
	for i := 0; i < reps; i++ {
		r.eng = nil
		runtime.GC() // drop the previous repetition's engine outside the timing
		span := tr.begin("engine.open", nil)
		t0 := time.Now()
		e, err := skysr.Open(path)
		t1 := time.Now()
		tr.end(span)
		if err != nil {
			return nil, err
		}
		span = tr.begin("index.warm", nil)
		_, err = e.WarmCategoryIndex()
		t2 := time.Now()
		tr.end(span)
		if err != nil {
			return nil, fmt.Errorf("warm category index: %w", err)
		}
		r.setup = append(r.setup, t2.Sub(t0).Seconds())
		r.open = append(r.open, float64(t1.Sub(t0))/float64(time.Millisecond))
		r.warm = append(r.warm, float64(t2.Sub(t1))/float64(time.Millisecond))
		r.eng = e
	}
	return r, nil
}

// runChild measures one workload and returns its record.
func runChild(dir, name string, seconds float64, traceMode bool, outDir string) (*Record, error) {
	w, err := workloadByName(name)
	if err != nil {
		return nil, err
	}
	in, err := loadInputs(dir)
	if err != nil {
		return nil, err
	}
	c := &child{w: w, in: in, traceMode: traceMode, sample: sampleIndices(in.Plan, w.oracleN)}
	c.verify = c.check
	rec := newRecord(name, in.Plan.Seed, traceMode, seconds)

	su, err := measureSetup(in.Dataset, setupReps, nil)
	if err != nil {
		return nil, err
	}
	rec.put("setup_s", median(su.setup), "s", len(su.setup))
	var passes []*pass
	if traceMode {
		passes, err = c.measureLayers(rec, su, seconds, outDir)
	} else {
		passes, err = c.measureEndToEnd(rec, su, seconds)
	}
	if err != nil {
		return nil, err
	}
	for _, p := range passes {
		rec.Attempted += p.attempted
		rec.Failed += p.failed
		for _, e := range p.errs {
			rec.Notes = append(rec.Notes, "request failed: "+e)
		}
	}
	for _, chk := range c.checks {
		rec.Checks = append(rec.Checks, chk)
		rec.Attempted += chk.Checked
		rec.Failed += chk.Mismatched
		if chk.Label == "answers" {
			rec.AnswerDigest = chk.Digest
		}
	}
	rec.put("error_rate", float64(rec.Failed)/float64(max(rec.Attempted, 1)), "ratio", rec.Attempted)
	rec.Correct = rec.Failed == 0 && len(c.checks) > 0
	return rec, nil
}

// measureEndToEnd is an untraced run: what a user of the deployment sees.
func (c *child) measureEndToEnd(rec *Record, su *setupResult, seconds float64) ([]*pass, error) {
	p, err := c.w.run(c, su.eng, budget{seconds: seconds, minOps: minSamples(0.95)}, nil)
	if err != nil {
		return nil, err
	}
	if err := endToEnd(rec, p); err != nil {
		return nil, err
	}
	mb, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	rec.put("mem_peak_mb", mb, "MB", 0)
	return []*pass{p}, nil
}

// measureLayers is a traced run: an untraced pass, a traced replay of the
// same requests on a fresh engine, and the Dijkstra probe.
func (c *child) measureLayers(rec *Record, su *setupResult, seconds float64, outDir string) ([]*pass, error) {
	w := c.w
	share := seconds / 2
	if w.overHTTP {
		share = seconds / 3
	}
	pa, err := w.run(c, su.eng, budget{seconds: share, minOps: minSamples(0.5)}, nil)
	if err != nil {
		return nil, err
	}
	passes := []*pass{pa}
	// Over HTTP the core's Stats stay on the server, so the engine and core
	// numbers come from an in-process replay of the request stream on the
	// same engine.
	work := pa
	if w.overHTTP {
		rc := *c
		rc.verify = nil
		if work, err = runSearch(&rc, su.eng, budget{seconds: share, minOps: minSamples(0.5)}, nil); err != nil {
			return nil, err
		}
		passes = append(passes, work)
	}
	idx := su.eng.CategoryIndexStats()
	// The traced pass replays pass A's requests on a fresh engine. Its
	// oracle only re-evaluates the sample, so a live engine goes through
	// exactly the states pass A went through.
	tr := &tracer{}
	c.verify = func(_, _ string, eval func([]int) ([][]point, error)) error {
		_, err := eval(c.sample)
		return err
	}
	sb, err := measureSetup(c.in.Dataset, 1, tr)
	if err != nil {
		return nil, err
	}
	pb, err := w.run(c, sb.eng, budget{ops: pa.ops}, tr)
	if err != nil {
		return nil, err
	}
	passes = append(passes, pb)
	sweep, settle, err := dijkstraProbe(c.in, tr)
	if err != nil {
		return nil, err
	}
	fi, err := os.Stat(c.in.Dataset)
	if err != nil {
		return nil, err
	}
	if err := perLayer(rec, pa, work, pb, tr, su, idx); err != nil {
		return nil, err
	}
	rec.put("dataset.file_bytes", float64(fi.Size()), "bytes", 0)
	rec.put("dijkstra.sweep_us", sweep, "us", 50)
	rec.put("dijkstra.settle_ns", settle, "ns", 0)
	// One client, no cross-query state: tracing must not change the work.
	if !w.concurrent {
		chk := oracleCheck{Label: "traced counters", Checked: 1}
		if pa.core.c != pb.core.c {
			chk.Mismatched = 1
			rec.Notes = append(rec.Notes, fmt.Sprintf("core counters untraced %+v, traced %+v", pa.core.c, pb.core.c))
		}
		c.checks = append(c.checks, chk)
	}
	return passes, tr.write(filepath.Join(outDir, "trace-"+w.name+".json"), w.name)
}

// dijkstraProbe times one full single-source Dijkstra on the reversed
// network — the sweep a destination query makes — from 50 of the plan's
// destinations (its start vertices when it has none).
func dijkstraProbe(in *inputs, tr *tracer) (sweepUS, settleNS float64, err error) {
	ds, _, err := dataset.OpenBinary(in.Dataset)
	if err != nil {
		return 0, 0, err
	}
	ws := dijkstra.New(ds.Graph.Reversed())
	seen := map[int32]bool{}
	var srcs []int32
	for _, pq := range in.Plan.Queries {
		v := pq.Start
		if pq.HasDest {
			v = pq.Dest
		}
		if !seen[v] {
			seen[v] = true
			srcs = append(srcs, v)
		}
		if len(srcs) == 50 {
			break
		}
	}
	var total time.Duration
	settled := 0
	for _, v := range srcs {
		span := tr.begin("dijkstra.sweep", nil)
		t0 := time.Now()
		settled += ws.Run(dijkstra.Options{Sources: []int32{v}})
		total += time.Since(t0)
		tr.end(span)
	}
	if len(srcs) == 0 || settled == 0 {
		return 0, 0, fmt.Errorf("dijkstra probe settled nothing")
	}
	return float64(total) / float64(time.Microsecond) / float64(len(srcs)), float64(total) / float64(settled), nil
}

// peakRSSMB is the process's peak resident set (VmHWM) in MB.
func peakRSSMB() (float64, error) {
	raw, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("read peak memory: %w", err)
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parse VmHWM: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}
