package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"time"

	"skysr/internal/core"
	"skysr/internal/dataset"
	"skysr/internal/gen"
	"skysr/internal/route"
	"skysr/internal/stats"
)

// ---------------------------------------------------------------- Top-k
//
// The top-k experiment measures what ranked enumeration costs on top of
// the classic skyline query, and what it saves against the only
// alternative a client has without it: re-running Search and hoping for
// variety (which, being deterministic, cannot even produce it — so the
// k× Search column is a lower bound on any rerun-based scheme). For each
// dataset the same template workload (|Sq| = 3) runs once per k; the
// k = 1 run must return answers bit-identical to plain Search — it is
// the same code path — and every k must preserve the points of the
// smaller k's answer (band monotonicity).

// TopKKs lists the k values the experiment sweeps, in order. The first
// must be 1: it anchors the identity and regression gates.
func TopKKs() []int { return []int{1, 2, 4, 8} }

// TopKRow is one (dataset, k) measurement.
type TopKRow struct {
	Dataset string `json:"dataset"`
	K       int    `json:"k"`
	SeqSize int    `json:"seq_size"`
	Queries int    `json:"queries"`

	QPS          float64 `json:"qps"`
	MedianMicros float64 `json:"median_us"`
	P95Micros    float64 `json:"p95_us"`

	// BaseMedianMicros is the plain-Search median on the same workload
	// (measured once per dataset, repeated on every row for the gates).
	BaseMedianMicros float64 `json:"base_median_us"`
	// MedianVsBase is MedianMicros / BaseMedianMicros.
	MedianVsBase float64 `json:"median_vs_base"`
	// SpeedupVsKSearch is (K × BaseMedianMicros) / MedianMicros: how much
	// cheaper one top-k query is than k repeated Search calls.
	SpeedupVsKSearch float64 `json:"speedup_vs_k_search"`

	// IdenticalAtBase reports (k = 1 rows only) that every answer matched
	// plain Search bit-exactly.
	IdenticalAtBase bool `json:"identical_at_base"`
	// Consistent reports that every score point of the previous
	// (smaller-k) answer survived into this k's answer, per query.
	Consistent bool `json:"consistent_with_smaller_k"`

	MeanRoutes    float64 `json:"mean_routes"`
	MeanExtraPops float64 `json:"mean_extra_pops"`
}

// TopK runs the ranked-enumeration sweep for every configured dataset.
func (h *Harness) TopK() ([]TopKRow, error) {
	const size = 3
	const variants = 10
	var rows []TopKRow
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

		baseRow, baseAnswers, err := runTopKPoint(d, qs, 0, size)
		if err != nil {
			return nil, fmt.Errorf("%s/base: %w", name, err)
		}
		prev := baseAnswers
		for _, k := range TopKKs() {
			row, answers, err := runTopKPoint(d, qs, k, size)
			if err != nil {
				return nil, fmt.Errorf("%s/k=%d: %w", name, k, err)
			}
			row.BaseMedianMicros = baseRow.MedianMicros
			if row.MedianMicros > 0 {
				row.MedianVsBase = row.MedianMicros / baseRow.MedianMicros
				row.SpeedupVsKSearch = float64(k) * baseRow.MedianMicros / row.MedianMicros
			}
			if k == 1 {
				row.IdenticalAtBase = sameAnswers(answers, baseAnswers)
			}
			row.Consistent = answersContainPoints(answers, prev)
			rows = append(rows, *row)
			prev = answers
		}
	}
	return rows, nil
}

// answersContainPoints reports that, query by query, every (length,
// semantic) point of sub appears in sup — the band-monotonicity check.
// Lengths compare with closeEnough rather than bit equality: the k = 1
// run keeps the Lemma 5.5 path filter while k > 1 runs must not, and the
// two traversals may tie-break equal-length shortest paths differently,
// shifting a route length by an ULP. Semantic scores are products of the
// same similarities either way and must match exactly.
func answersContainPoints(sup, sub []latencyAnswer) bool {
	if len(sup) != len(sub) {
		return false
	}
	for i := range sub {
		for j := range sub[i].lengths {
			found := false
			for m := range sup[i].lengths {
				if closeEnough(sup[i].lengths[m], sub[i].lengths[j]) && sup[i].sems[m] == sub[i].sems[j] {
					found = true
					break
				}
			}
			if !found {
				return false
			}
		}
	}
	return true
}

// runTopKPoint times one k over the workload with a single serial
// searcher. k = 0 is the plain-Search baseline (no TopK option at all).
func runTopKPoint(d *dataset.Dataset, qs []gen.Query, k, size int) (*TopKRow, []latencyAnswer, error) {
	opts := core.DefaultOptions()
	opts.TopK = k
	row := &TopKRow{Dataset: d.Name, K: k, SeqSize: size, Queries: len(qs)}

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

	s := core.NewSearcher(d, d.Forest.WuPalmer, opts)
	answers := make([]latencyAnswer, len(qs))
	times := make([]float64, len(qs))
	var routes, extraPops int64
	began := time.Now()
	for i, q := range qs {
		qBegan := time.Now()
		res, err := s.Query(q.Start, seqs[i])
		if err != nil {
			return nil, nil, err
		}
		times[i] = float64(time.Since(qBegan).Nanoseconds()) / 1000
		answers[i] = answerOf(res)
		routes += int64(len(res.Routes))
		extraPops += res.Stats.TopKExtraPops
	}
	elapsed := time.Since(began)

	sum := stats.Summarize(times)
	sorted := append([]float64(nil), times...)
	sort.Float64s(sorted)
	row.QPS = float64(len(qs)) / elapsed.Seconds()
	row.MedianMicros = sum.Median
	row.P95Micros = sum.P95
	row.MeanRoutes = float64(routes) / float64(len(qs))
	row.MeanExtraPops = float64(extraPops) / float64(len(qs))
	return row, answers, nil
}

// RenderTopK writes the sweep as a text table.
func RenderTopK(w io.Writer, rows []TopKRow) {
	writeln(w, "Top-k: ranked alternatives vs plain Search (template workload, |Sq| = 3)")
	writeln(w, "%-8s %4s %8s %10s %10s %9s %12s %8s %10s %10s", "Dataset", "k", "queries", "median", "p95", "vs-base", "vs-k×Search", "routes", "extraPops", "consistent")
	for _, r := range rows {
		writeln(w, "%-8s %4d %8d %9.0fµs %9.0fµs %8.2fx %11.2fx %8.1f %10.1f %10v",
			r.Dataset, r.K, r.Queries, r.MedianMicros, r.P95Micros,
			r.MedianVsBase, r.SpeedupVsKSearch, r.MeanRoutes, r.MeanExtraPops, r.Consistent)
	}
}

// TopKReport is the machine-readable record the CI bench smoke writes
// (BENCH_PR4.json).
type TopKReport struct {
	GeneratedAt     string    `json:"generated_at"`
	Scale           float64   `json:"scale"`
	Seed            int64     `json:"seed"`
	QueriesPerPoint int       `json:"queries_per_point"`
	Datasets        []string  `json:"datasets"`
	Ks              []int     `json:"ks"`
	Rows            []TopKRow `json:"rows"`
}

// WriteTopKJSON writes the report to path.
func WriteTopKJSON(path string, cfg Config, rows []TopKRow) error {
	rep := TopKReport{
		GeneratedAt: time.Now().UTC().Format(time.RFC3339),
		Scale:       cfg.Scale,
		Seed:        cfg.Seed,
		Datasets:    cfg.Datasets,
		Ks:          TopKKs(),
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

// CheckTopK enforces the CI gate:
//
//   - the k = 1 path must not regress: answers bit-identical to plain
//     Search and median within 1.5× of it (the code path is the same;
//     the slack absorbs runner noise),
//   - every k's answer must contain the smaller k's points, and
//   - at k = 8 one top-k query must beat 8 repeated Search calls (the
//     amortization claim; smaller k sit too close to break-even on some
//     datasets to gate without flakiness, and a rerun scheme could not
//     produce ranked alternatives anyway — the column is informative).
func CheckTopK(rows []TopKRow) error {
	seen := map[string]bool{}
	for _, r := range rows {
		seen[r.Dataset] = true
		if !r.Consistent {
			return fmt.Errorf("topk check: %s k=%d lost points of the smaller-k answer", r.Dataset, r.K)
		}
		if r.K == 1 {
			if !r.IdenticalAtBase {
				return fmt.Errorf("topk check: %s k=1 answers differ from plain Search", r.Dataset)
			}
			if r.MedianMicros > 1.5*r.BaseMedianMicros {
				return fmt.Errorf("topk check: %s k=1 median %.0fµs regresses plain Search %.0fµs beyond 1.5x",
					r.Dataset, r.MedianMicros, r.BaseMedianMicros)
			}
		}
		if r.K >= 8 && r.SpeedupVsKSearch < 1 {
			return fmt.Errorf("topk check: %s k=%d slower (%.2fx) than %d repeated Search calls",
				r.Dataset, r.K, r.SpeedupVsKSearch, r.K)
		}
	}
	if len(seen) == 0 {
		return fmt.Errorf("topk check: no rows")
	}
	return nil
}
