package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"time"

	"skysr"
)

// Metric is one measured value. N is the sample count behind a timing.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n,omitempty"`
}

// Record is the outcome of one run: one workload, one seed, one mode.
type Record struct {
	Workload     string            `json:"workload"`
	Seed         int64             `json:"seed"`
	Trace        bool              `json:"trace"`
	Seconds      float64           `json:"seconds"`
	Correct      bool              `json:"correct"`
	Attempted    int               `json:"attempted"`
	Failed       int               `json:"failed"`
	AnswerDigest string            `json:"answer_digest"`
	Fingerprints map[string]string `json:"fingerprints,omitempty"`
	Checks       []oracleCheck     `json:"checks,omitempty"`
	Metrics      map[string]Metric `json:"metrics"`
	Notes        []string          `json:"notes,omitempty"`
}

func newRecord(workload string, seed int64, traced bool, seconds float64) *Record {
	return &Record{Workload: workload, Seed: seed, Trace: traced, Seconds: seconds, Metrics: map[string]Metric{}}
}

func (r *Record) put(name string, v float64, unit string, n int) {
	r.Metrics[name] = Metric{Value: v, Unit: unit, N: n}
}

// putPercentile records percentile p of xs, refusing (with the reason)
// when the samples do not support it.
func (r *Record) putPercentile(name string, xs []float64, p float64, unit string) error {
	v, err := percentile(xs, p)
	if err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	r.put(name, v, unit, len(xs))
	return nil
}

// endToEnd records what a user of the system sees, from an untraced pass.
func endToEnd(r *Record, p *pass) error {
	lat := millis(p.latency)
	if err := r.putPercentile("latency_p50_ms", lat, 0.5, "ms"); err != nil {
		return err
	}
	if err := r.putPercentile("latency_p95_ms", lat, 0.95, "ms"); err != nil {
		return err
	}
	if p.tputWall <= 0 {
		return errors.New("throughput: empty measured phase")
	}
	r.put("throughput_qps", float64(p.tputOps)/p.tputWall.Seconds(), "1/s", p.tputOps)
	// Reported only where the samples support them; not bounded.
	if len(lat) >= minSamples(0.99) {
		_ = r.putPercentile("latency_p99_ms", lat, 0.99, "ms")
	}
	if upd := millis(p.upd.latency); len(upd) > 0 {
		_ = r.putPercentile("update_p50_ms", upd, 0.5, "ms")
		_ = r.putPercentile("update_p95_ms", upd, 0.95, "ms")
	}
	if lag := millis(p.lag); len(lag) > 0 {
		_ = r.putPercentile("openloop_lag_p50_ms", lag, 0.5, "ms")
		_ = r.putPercentile("openloop_lag_p95_ms", lag, 0.95, "ms")
	}
	return nil
}

// perLayer records the per-layer breakdown: pa is the untraced pass, work
// the pass whose engine calls carry the core's Stats (pa itself, except
// over HTTP), pb the traced replay.
func perLayer(r *Record, pa, work, pb *pass, tr *tracer, su *setupResult, idx skysr.CategoryIndexStats) error {
	pct := func(part, whole time.Duration) float64 {
		if whole <= 0 {
			return 0
		}
		return 100 * float64(part) / float64(whole)
	}
	per := func(v int64, n int) float64 {
		if n == 0 {
			return 0
		}
		return float64(v) / float64(n)
	}
	us := func(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

	// serve
	r.put("serve.overhead_pct", pct(pa.serve.client-pa.serve.engine, pa.serve.client), "%", 0)
	r.put("serve.rejected", pa.serve.rejected, "count", 0)
	r.put("serve.timeouts", pa.serve.timeouts, "count", 0)

	// engine
	e, co := &work.engine, &work.core
	if e.queries == 0 || co.n == 0 {
		return errors.New("per-layer: no engine calls measured")
	}
	searchUS := us(e.wall) / float64(e.queries)
	queryUS := us(co.query) / float64(co.n)
	r.put("engine.search_us", searchUS, "us", e.queries)
	r.put("engine.overhead_us", searchUS-queryUS, "us", e.queries)
	u := &pa.upd
	r.put("update.apply_pct", pct(sum(u.latency), pa.wall), "%", len(u.latency))
	r.put("update.rows_carried", per(int64(u.carried), len(u.latency)), "count", len(u.latency))
	r.put("update.rows_dirtied", per(int64(u.dirtied), len(u.latency)), "count", len(u.latency))
	r.put("update.index_invalidated", per(int64(u.invalidated), len(u.latency)), "ratio", len(u.latency))
	r.put("update.graph_rebuilt", per(int64(u.graphRebuilt), len(u.latency)), "ratio", len(u.latency))

	// core, read from Answer.Stats. MDijkstraTime overlaps InitTime: the
	// stage shares are raw and may sum past 100.
	n, c := co.n, co.c
	r.put("core.query_us", queryUS, "us", n)
	r.put("core.nninit_pct", pct(co.init, co.query), "%", n)
	r.put("core.bounds_pct", pct(co.bounds, co.query), "%", n)
	r.put("core.mdijkstra_pct", pct(co.mdijkstra, co.query), "%", n)
	r.put("core.destleg_pct", pct(co.leg, co.query), "%", n)
	for _, m := range []struct {
		name string
		v    int64
	}{
		{"core.mdijkstra_runs", c.MDijkstraRuns},
		{"core.settled_vertices", c.Settled},
		{"core.routes_popped", c.Popped},
		{"core.routes_enqueued", c.Enqueued},
		{"core.pruned_threshold", c.PrunedThreshold},
		{"core.pruned_bounds", c.PrunedBounds},
		{"core.pruned_index", c.PrunedIndex},
		{"core.peak_queue_len", c.PeakQueueLen},
		{"core.topk_extra_pops", c.TopKExtraPops},
		{"core.shared_cache_hits", c.SharedCacheHits},
	} {
		r.put(m.name, per(m.v, n), "count", n)
	}
	r.put("core.index_covered_frac", per(c.IndexCovered, n), "ratio", n)
	// Pops discarded by the Eq. 3 threshold or the §5.3.3 bounds: queue
	// work that bought nothing. Index prunes are left out because Stats
	// counts them at enqueue time too.
	r.put("core.pop_waste_ratio", ratio(c.PrunedThreshold+c.PrunedBounds, c.Popped), "ratio", n)
	r.put("core.cache_hit_ratio", ratio(c.CacheHits+c.SharedCacheHits, c.MDijkstraRequests), "ratio", n)

	// index and dataset, from the deployment's start-up
	r.put("index.warm_ms", median(su.warm), "ms", len(su.warm))
	r.put("index.rows_built", float64(idx.RowsBuilt), "count", 0)
	r.put("index.bytes", float64(idx.Bytes), "bytes", 0)
	r.put("index.rows_repaired", float64(idx.RowsRepaired), "count", 0)
	r.put("index.skipped_builds", float64(idx.SkippedBuilds), "count", 0)
	r.put("dataset.open_ms", median(su.open), "ms", len(su.open))

	// runtime, over the untraced measured phase
	r.put("runtime.alloc_kb_per_op", float64(pa.mem.TotalAlloc)/1024/float64(max(pa.ops, 1)), "KiB", pa.ops)
	r.put("runtime.gc_cycles", float64(pa.mem.NumGC), "count", 0)
	r.put("runtime.gc_pause_pct", pct(time.Duration(pa.mem.PauseTotalNs), pa.wall), "%", 0)

	// spans of the traced replay, as shares of all traced self time
	self := tr.selfTimes()
	var total time.Duration
	for _, d := range self {
		total += d
	}
	for _, name := range spanNames {
		r.put("span."+name+".self_pct", pct(self[name], total), "%", 0)
	}
	a, err := percentile(millis(pa.latency), 0.5)
	if err != nil {
		return fmt.Errorf("trace overhead: untraced %w", err)
	}
	b, err := percentile(millis(pb.latency), 0.5)
	if err != nil {
		return fmt.Errorf("trace overhead: traced %w", err)
	}
	r.put("trace.overhead_ratio", b/a, "ratio", len(pb.latency))
	return nil
}

func ratio(num, den int64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

func sum(ds []time.Duration) time.Duration {
	var t time.Duration
	for _, d := range ds {
		t += d
	}
	return t
}

// specMetric is one metric declared in BENCHMARK.json.
type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// spec is the part of BENCHMARK.json the benchmark reads: which metrics a
// run prints and the regression bound of each.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

// loadSpec reads BENCHMARK.json from the working directory or the nearest
// parent holding one.
func loadSpec() (*spec, error) {
	dir, err := os.Getwd()
	if err != nil {
		return nil, err
	}
	for {
		raw, err := os.ReadFile(filepath.Join(dir, "BENCHMARK.json"))
		if err == nil {
			s := new(spec)
			if err := json.Unmarshal(raw, s); err != nil {
				return nil, fmt.Errorf("BENCHMARK.json: %w", err)
			}
			return s, nil
		}
		if !errors.Is(err, fs.ErrNotExist) {
			return nil, err
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return nil, errors.New("BENCHMARK.json not found in the working directory or its parents")
		}
		dir = parent
	}
}

// resultLine is the last line a run prints: the metrics BENCHMARK.json
// declares for the run's mode, each with its unit.
type resultLine struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]lineMetric `json:"metrics"`
}

type lineMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// summarize builds the final line from records, prefixing metric names
// with the workload when there is more than one.
func summarize(s *spec, recs []*Record, traced bool) (*resultLine, error) {
	declared := s.EndToEnd
	if traced {
		declared = s.PerLayer
	}
	line := &resultLine{Correct: true, Metrics: map[string]lineMetric{}}
	for _, r := range recs {
		line.Correct = line.Correct && r.Correct
		line.Attempted += r.Attempted
		line.Failed += r.Failed
		for _, d := range declared {
			m, ok := r.Metrics[d.Name]
			if !ok {
				return nil, fmt.Errorf("%s: declared metric %s was not measured", r.Workload, d.Name)
			}
			if m.Unit != d.Unit {
				return nil, fmt.Errorf("%s: metric %s measured in %s, declared in %s", r.Workload, d.Name, m.Unit, d.Unit)
			}
			key := d.Name
			if len(recs) > 1 {
				key = r.Workload + "." + d.Name
			}
			line.Metrics[key] = lineMetric{Value: m.Value, Unit: m.Unit}
		}
	}
	return line, nil
}

// printTable writes a record as an aligned table, timings with their
// sample counts.
func printTable(w io.Writer, r *Record) {
	mode := "untraced"
	if r.Trace {
		mode = "traced"
	}
	fmt.Fprintf(w, "\n%s  seed %d  %s  %gs  correct=%v attempted=%d failed=%d\n",
		r.Workload, r.Seed, mode, r.Seconds, r.Correct, r.Attempted, r.Failed)
	fmt.Fprintf(w, "  answer_digest %s\n", r.AnswerDigest)
	for _, name := range sortedKeys(r.Fingerprints) {
		fmt.Fprintf(w, "  sha256 %-16s %s\n", name, r.Fingerprints[name])
	}
	for _, name := range sortedKeys(r.Metrics) {
		m := r.Metrics[name]
		n := ""
		if m.N > 0 {
			n = fmt.Sprintf("n=%d", m.N)
		}
		fmt.Fprintf(w, "  %-30s %14.4f %-6s %s\n", name, m.Value, m.Unit, n)
	}
	for _, note := range r.Notes {
		fmt.Fprintf(w, "  note: %s\n", note)
	}
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// appendRecord adds r to the results file at path (a JSON list).
func appendRecord(path string, r *Record) error {
	recs, err := readRecords(path)
	if err != nil && !errors.Is(err, fs.ErrNotExist) {
		return err
	}
	recs = append(recs, r)
	out, err := json.MarshalIndent(recs, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, out, 0o644)
}

func readRecords(path string) ([]*Record, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var recs []*Record
	if err := json.Unmarshal(raw, &recs); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return recs, nil
}
