package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"time"

	"skysr/internal/core"
	"skysr/internal/dataset"
	"skysr/internal/gen"
	"skysr/internal/graph"
	"skysr/internal/index"
	"skysr/internal/route"
	"skysr/internal/stats"
)

// ------------------------------------------------------------- Timedep
//
// The timedep experiment measures what the cost-metric layer costs and
// buys. Three dataset variants share one template workload (|Sq| = 3):
//
//	static            the plain preset — the Static metric baseline
//	constant-profile  every edge wrapped in a constant profile equal to
//	                  its weight: semantically identical to static, but
//	                  every relaxation goes through the TimeDependent
//	                  metric. The gap to the static row is the pure
//	                  metric-dispatch overhead; answers must be
//	                  bit-identical and the gate caps the overhead at
//	                  TimedepMaxOverhead.
//	rush-hour         gen.TimeProfiles on half the edges, measured at a
//	                  free-flow and a peak departure. Exactness is gated
//	                  by cross-checking three configurations (BSSR,
//	                  BSSR w/o Opt, category-index) against each other.

// Timedep experiment modes.
const (
	TimedepStatic   = "static"
	TimedepConstant = "constant-profile"
	TimedepRush     = "rush-hour"
)

// TimedepMaxOverhead is the CI gate on the constant-profile median
// relative to the static median.
const TimedepMaxOverhead = 1.10

// TimedepRow is one (dataset, mode, departure) measurement.
type TimedepRow struct {
	Dataset string  `json:"dataset"`
	Mode    string  `json:"mode"`
	Depart  float64 `json:"depart"`
	SeqSize int     `json:"seq_size"`
	Queries int     `json:"queries"`

	QPS          float64 `json:"qps"`
	MeanMicros   float64 `json:"mean_us"`
	MedianMicros float64 `json:"median_us"`
	P95Micros    float64 `json:"p95_us"`

	// MedianVsStatic is this row's median over the static row's (1 for
	// the static row itself).
	MedianVsStatic float64 `json:"median_vs_static"`
	// IdenticalToStatic reports bit-identical answers to the static row
	// (meaningful for constant-profile rows, where it is required).
	IdenticalToStatic bool `json:"identical_to_static"`
	// ConsistentAcrossConfigs reports that BSSR, BSSR w/o Opt and the
	// category-index profile returned identical answers for this row —
	// the exactness cross-check for time-dependent runs.
	ConsistentAcrossConfigs bool `json:"consistent_across_configs"`
}

// constantProfileEdits wraps every edge of d in a constant profile equal
// to the pair's minimum weight (parallel edges collapse onto one
// profile, which preserves every shortest distance).
func constantProfileEdits(d *dataset.Dataset) graph.Edits {
	g := d.Graph
	type pair [2]graph.VertexID
	seen := map[pair]bool{}
	var edits graph.Edits
	for u := graph.VertexID(0); int(u) < g.NumVertices(); u++ {
		ts, _ := g.Neighbors(u)
		for _, v := range ts {
			a, b := u, v
			if !g.Directed() && a > b {
				a, b = b, a
			}
			if seen[pair{a, b}] {
				continue
			}
			seen[pair{a, b}] = true
			w, _ := g.EdgeWeight(a, b)
			edits.SetProfiles = append(edits.SetProfiles, graph.ProfileChange{
				U: a, V: b, Profile: graph.ConstantProfile(w),
			})
		}
	}
	return edits
}

// timedepConfigs returns the option configurations the exactness
// cross-check sweeps on one dataset variant.
func timedepConfigs(d *dataset.Dataset, qs []gen.Query) map[string]core.Options {
	withoutOpt := core.WithoutOptimizations()
	withIdx := core.DefaultOptions()
	ci := index.New(d, 0)
	ci.EnsureRoots()
	seen := map[int32]bool{}
	for _, q := range qs {
		for _, c := range q.Categories {
			if !seen[int32(c)] {
				seen[int32(c)] = true
				ci.Prewarm(c)
			}
		}
	}
	withIdx.Index = ci
	return map[string]core.Options{
		"bssr":           core.DefaultOptions(),
		"no-opt":         withoutOpt,
		"category-index": withIdx,
	}
}

// runTimedepMode times DefaultOptions over the workload at one departure
// and returns the row plus the answers for identity checks. The workload
// runs twice and the faster pass is reported: the static and
// constant-profile modes execute the very same machine code, so the gate
// comparing them must suppress scheduler noise, not measure it.
func runTimedepMode(d *dataset.Dataset, qs []gen.Query, mode string, depart float64, size int) (*TimedepRow, []latencyAnswer, error) {
	row := &TimedepRow{Dataset: d.Name, Mode: mode, Depart: depart, SeqSize: size, Queries: len(qs)}
	seqs := compileSequences(d, qs)
	opts := core.DefaultOptions()
	opts.DepartAt = depart
	s := core.NewSearcher(d, d.Forest.WuPalmer, opts)
	var answers []latencyAnswer
	for pass := 0; pass < 2; pass++ {
		passAnswers := make([]latencyAnswer, len(qs))
		times := make([]float64, len(qs))
		began := time.Now()
		for i, q := range qs {
			qBegan := time.Now()
			res, err := s.Query(q.Start, seqs[i])
			if err != nil {
				return nil, nil, err
			}
			times[i] = float64(time.Since(qBegan).Nanoseconds()) / 1000
			passAnswers[i] = answerOf(res)
		}
		elapsed := time.Since(began)
		sum := stats.Summarize(times)
		if pass == 0 || sum.Median < row.MedianMicros {
			row.QPS = float64(len(qs)) / elapsed.Seconds()
			row.MeanMicros = sum.Mean
			row.MedianMicros = sum.Median
			row.P95Micros = sum.P95
		}
		answers = passAnswers
	}
	return row, answers, nil
}

// checkConsistency answers the workload under every configuration and
// reports whether all agree with the reference answers. Agreement is on
// the (length, semantic) score points, bit-exactly: the skyline contract
// guarantees one representative route per achieved score point, and when
// two distinct routes tie on a point exactly, which one survives depends
// on exploration order — a legitimate difference between configurations,
// not an exactness violation.
func checkConsistency(d *dataset.Dataset, qs []gen.Query, depart float64, ref []latencyAnswer) (bool, error) {
	seqs := compileSequences(d, qs)
	for _, opts := range timedepConfigs(d, qs) {
		opts.DepartAt = depart
		s := core.NewSearcher(d, d.Forest.WuPalmer, opts)
		for i, q := range qs {
			res, err := s.Query(q.Start, seqs[i])
			if err != nil {
				return false, err
			}
			if !answerOf(res).sameScores(ref[i]) {
				return false, nil
			}
		}
	}
	return true, nil
}

// compileSequences compiles each query's category template once, like
// the engine's matcher cache does in the serving path.
func compileSequences(d *dataset.Dataset, qs []gen.Query) []route.Sequence {
	seqs := make([]route.Sequence, len(qs))
	compiled := map[string]route.Sequence{}
	for i, q := range qs {
		key := fmt.Sprint(q.Categories)
		seq, ok := compiled[key]
		if !ok {
			seq = route.NewCategorySequence(d.Forest, d.Forest.WuPalmer, q.Categories...)
			compiled[key] = seq
		}
		seqs[i] = seq
	}
	return seqs
}

// Timedep runs the cost-metric experiment for every configured dataset.
func (h *Harness) Timedep() ([]TimedepRow, error) {
	const size = 3
	const variants = 10
	var rows []TimedepRow
	for _, name := range h.cfg.Datasets {
		d, err := h.Dataset(name)
		if err != nil {
			return nil, err
		}
		base, err := h.Workload(name, size)
		if err != nil {
			return nil, err
		}
		qs := templateQueries(d, base, variants, h.cfg.Seed+311)

		staticRow, staticAns, err := runTimedepMode(d, qs, TimedepStatic, 0, size)
		if err != nil {
			return nil, fmt.Errorf("%s/static: %w", name, err)
		}
		staticRow.MedianVsStatic = 1
		staticRow.IdenticalToStatic = true
		staticRow.ConsistentAcrossConfigs = true
		rows = append(rows, *staticRow)

		cg, err := d.Graph.Apply(constantProfileEdits(d))
		if err != nil {
			return nil, err
		}
		cd, err := dataset.New(d.Name, cg, d.Forest)
		if err != nil {
			return nil, err
		}
		constRow, constAns, err := runTimedepMode(cd, qs, TimedepConstant, 0, size)
		if err != nil {
			return nil, fmt.Errorf("%s/constant: %w", name, err)
		}
		constRow.IdenticalToStatic = sameAnswers(constAns, staticAns)
		if staticRow.MedianMicros > 0 {
			constRow.MedianVsStatic = constRow.MedianMicros / staticRow.MedianMicros
		}
		constRow.ConsistentAcrossConfigs = true
		rows = append(rows, *constRow)

		rg, err := d.Graph.Apply(graph.Edits{SetProfiles: gen.TimeProfiles(d, 0.5, h.cfg.Seed+313)})
		if err != nil {
			return nil, err
		}
		rd, err := dataset.New(d.Name, rg, d.Forest)
		if err != nil {
			return nil, err
		}
		period := rd.Graph.TimePeriod()
		for _, depart := range []float64{0.05 * period, 0.32 * period} {
			rushRow, rushAns, err := runTimedepMode(rd, qs, TimedepRush, depart, size)
			if err != nil {
				return nil, fmt.Errorf("%s/rush: %w", name, err)
			}
			if staticRow.MedianMicros > 0 {
				rushRow.MedianVsStatic = rushRow.MedianMicros / staticRow.MedianMicros
			}
			rushRow.IdenticalToStatic = sameAnswers(rushAns, staticAns)
			ok, err := checkConsistency(rd, qs, depart, rushAns)
			if err != nil {
				return nil, fmt.Errorf("%s/rush consistency: %w", name, err)
			}
			rushRow.ConsistentAcrossConfigs = ok
			rows = append(rows, *rushRow)
		}
	}
	return rows, nil
}

// RenderTimedep writes the comparison as a text table.
func RenderTimedep(w io.Writer, rows []TimedepRow) {
	writeln(w, "Timedep: cost-metric layer (template workload, |Sq| = 3; constant profiles must be free, rush hour exact)")
	writeln(w, "%-8s %-16s %10s %8s %10s %10s %9s %10s %11s", "Dataset", "Mode", "depart", "queries", "median", "p95", "vs-static", "identical", "consistent")
	for _, r := range rows {
		writeln(w, "%-8s %-16s %10.0f %8d %9.0fµs %9.0fµs %8.2fx %10v %11v",
			r.Dataset, r.Mode, r.Depart, r.Queries, r.MedianMicros, r.P95Micros,
			r.MedianVsStatic, r.IdenticalToStatic, r.ConsistentAcrossConfigs)
	}
}

// TimedepReport is the machine-readable record the CI smoke writes
// (BENCH_PR5.json).
type TimedepReport struct {
	GeneratedAt     string       `json:"generated_at"`
	Scale           float64      `json:"scale"`
	Seed            int64        `json:"seed"`
	QueriesPerPoint int          `json:"queries_per_point"`
	Datasets        []string     `json:"datasets"`
	Rows            []TimedepRow `json:"rows"`
}

// WriteTimedepJSON writes the report to path.
func WriteTimedepJSON(path string, cfg Config, rows []TimedepRow) error {
	rep := TimedepReport{
		GeneratedAt: time.Now().UTC().Format(time.RFC3339),
		Scale:       cfg.Scale,
		Seed:        cfg.Seed,
		Datasets:    cfg.Datasets,
		Rows:        rows,
	}
	if len(rows) > 0 {
		rep.QueriesPerPoint = rows[0].Queries
	}
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// CheckTimedep enforces the CI gate: constant-profile answers must be
// bit-identical to static and within TimedepMaxOverhead of its median,
// and every time-dependent row must be consistent across configurations.
func CheckTimedep(rows []TimedepRow) error {
	byDataset := map[string][]TimedepRow{}
	for _, r := range rows {
		byDataset[r.Dataset] = append(byDataset[r.Dataset], r)
	}
	for ds, rs := range byDataset {
		var haveConst, haveRush bool
		for _, r := range rs {
			switch r.Mode {
			case TimedepConstant:
				haveConst = true
				if !r.IdenticalToStatic {
					return fmt.Errorf("timedep check: %s constant-profile answers differ from static", ds)
				}
				if r.MedianVsStatic > TimedepMaxOverhead {
					return fmt.Errorf("timedep check: %s constant-profile median %.2fx static exceeds %.2fx",
						ds, r.MedianVsStatic, TimedepMaxOverhead)
				}
			case TimedepRush:
				haveRush = true
				if !r.ConsistentAcrossConfigs {
					return fmt.Errorf("timedep check: %s rush-hour answers differ across configurations (depart %.0f)", ds, r.Depart)
				}
			}
		}
		if !haveConst || !haveRush {
			return fmt.Errorf("timedep check: dataset %s is missing rows", ds)
		}
	}
	return nil
}
