// Package bench is the experiment harness of skysr-bench and the root Go
// benchmarks. Every mode reports in one row layout (Row, with Render,
// Check and WriteJSON): the paper suite (Harness.Paper), which regenerates
// every table and figure of the paper's evaluation (§7) plus the
// user-study aggregation of §8 in one pass, and the gated modes. The
// latency mode lives here too. The churn, soak and httpload modes drive
// the public skysr.Engine and internal/serve, which this package cannot
// import without a cycle, so they live in cmd/skysr-bench and build the
// same rows.
//
// Absolute numbers differ from the paper (synthetic datasets at reduced
// scale, Go instead of C++, different hardware); the harness exists to
// reproduce the paper's relative claims: who wins, how the gap scales with
// |Sq|, and which optimization contributes what.
package bench

import (
	"fmt"
	"io"
	"math"

	"skysr/internal/dataset"
	"skysr/internal/gen"
	"skysr/internal/route"
)

// Config parameterizes one harness run.
type Config struct {
	// Scale scales the synthetic datasets (1.0 ≈ 1:100 of the paper).
	Scale float64
	// Seed drives dataset and workload generation.
	Seed int64
	// Queries is the number of queries per measurement point (paper: 100).
	Queries int
	// SeqSizes lists the |Sq| values to sweep (paper: 2..5).
	SeqSizes []int
	// Datasets lists preset names (default: tokyo, nyc, cal).
	Datasets []string
	// Budget caps naive-baseline work (route pops) per query; exceeding
	// it reports DNF, like the paper's month-long timeouts. 0 = unlimited.
	Budget int64
	// Verify gates the paper suite's Figure 3 rows on returning BSSR's
	// skyline for every query they finish (the paper: "all algorithms
	// output the same routes").
	Verify bool
}

// DefaultConfig returns a configuration sized to finish the full suite in
// minutes on a laptop.
func DefaultConfig() Config {
	return Config{
		Scale:    0.25,
		Seed:     42,
		Queries:  20,
		SeqSizes: []int{2, 3, 4, 5},
		Datasets: []string{"tokyo", "nyc", "cal"},
		Budget:   2_000_000,
		Verify:   false,
	}
}

// Harness caches datasets and workloads across experiments.
type Harness struct {
	cfg       Config
	datasets  map[string]*dataset.Dataset
	workloads map[workloadKey][]gen.Query
}

type workloadKey struct {
	name string
	size int
}

// New returns a Harness for cfg.
func New(cfg Config) *Harness {
	if len(cfg.Datasets) == 0 {
		cfg.Datasets = []string{"tokyo", "nyc", "cal"}
	}
	if len(cfg.SeqSizes) == 0 {
		cfg.SeqSizes = []int{2, 3, 4, 5}
	}
	return &Harness{
		cfg:       cfg,
		datasets:  make(map[string]*dataset.Dataset),
		workloads: make(map[workloadKey][]gen.Query),
	}
}

// Config returns the harness configuration.
func (h *Harness) Config() Config { return h.cfg }

// Dataset builds (or returns the cached) preset dataset.
func (h *Harness) Dataset(name string) (*dataset.Dataset, error) {
	if d, ok := h.datasets[name]; ok {
		return d, nil
	}
	d, err := gen.BuildPreset(name, h.cfg.Scale, h.cfg.Seed)
	if err != nil {
		return nil, err
	}
	h.datasets[name] = d
	return d, nil
}

// Workload returns the cached §7.1 workload for (dataset, |Sq|).
func (h *Harness) Workload(name string, size int) ([]gen.Query, error) {
	key := workloadKey{name: name, size: size}
	if qs, ok := h.workloads[key]; ok {
		return qs, nil
	}
	d, err := h.Dataset(name)
	if err != nil {
		return nil, err
	}
	qs, err := gen.Queries(d, h.cfg.Queries, size, h.cfg.Seed+int64(size))
	if err != nil {
		return nil, err
	}
	h.workloads[key] = qs
	return qs, nil
}

// sameSkylines compares two skyline score sets.
func sameSkylines(a []*route.Route, b []*route.Route) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Length() != b[i].Length() || a[i].Semantic() != b[i].Semantic() {
			// Exact float compare is intentional: all algorithms sum the
			// same weights in deterministic order on the same graph; tiny
			// differences would signal an algorithmic divergence.
			if !closeEnough(a[i].Length(), b[i].Length()) || !closeEnough(a[i].Semantic(), b[i].Semantic()) {
				return false
			}
		}
	}
	return true
}

func closeEnough(x, y float64) bool {
	return math.Abs(x-y) <= 1e-9*(1+math.Abs(x)+math.Abs(y))
}

// writeln is a small fmt helper that ignores write errors (harness output
// goes to stdout or a strings.Builder).
func writeln(w io.Writer, format string, args ...any) {
	fmt.Fprintf(w, format+"\n", args...)
}
