package bench

import (
	"fmt"
	"io"
	"math/rand"
	"time"

	"skysr/internal/core"
	"skysr/internal/dataset"
	"skysr/internal/gen"
	"skysr/internal/graph"
	"skysr/internal/index"
	"skysr/internal/route"
	"skysr/internal/stats"
	"skysr/internal/taxonomy"
)

// ------------------------------------------------------------- Latency
//
// The latency experiment times single-query serving variants against
// plain BSSR (§5) with one serial searcher, the way a latency-sensitive
// service path runs. Every variant answers the same template workload
// (popular category sequences from many start vertices, |Sq| = 3), and
// plain BSSR is measured once per dataset as the reference:
//
//	plain             Search with the paper's defaults
//	category-index    §5.3.3 bounds and pruning radii from index lookups
//	topk-k            ranked k-skyband enumeration, k = 1, 2, 4, 8
//	constant-profile  every edge wrapped in a constant profile equal to
//	                  its weight: static costs priced through the
//	                  time-dependent metric, so the gap to plain is the
//	                  pure metric-dispatch overhead
//	rush-hour@f       gen.TimeProfiles on half the edges, departing at
//	                  fraction f of the period (free flow and the peak)
//
// Each pass times the variants round-robin per query — query i on every
// variant, in table order, before query i+1 — so drift on a shared
// machine hits every row alike. Every row keeps the faster of two passes:
// several variants execute the very machine code plain does, so the gates
// comparing them must suppress scheduler noise, not measure it. Index
// build time is excluded, matching how a server amortizes it (build once
// or load the sidecar, then serve).

// costKind selects the edge costs a latency variant runs on.
type costKind int

const (
	staticCosts   costKind = iota // the preset as generated
	constantCosts                 // constantProfileEdits
	rushHourCosts                 // gen.TimeProfiles on half the edges
)

// latencyVariant is one row of the variant table: how the variant runs,
// and the gate CheckLatency holds its row to.
type latencyVariant struct {
	name   string
	index  bool // answer with a category index prewarmed for the workload
	topK   int
	costs  costKind
	depart float64 // departure, as a fraction of the time period

	maxVsPlain float64 // bound on median / plain median; 0 = ungated
	identical  bool    // answers must be bit-identical to plain's
	consistent bool    // the variant's cross-check must hold
}

// variantPlain names the reference row every other row is measured against.
const variantPlain = "plain"

// latencyVariants is the variant table, in measurement order. Plain comes
// first: every later row compares against it. The top-k rows run in
// increasing k, each cross-checked against the one before.
var latencyVariants = []latencyVariant{
	{name: variantPlain},
	{name: "constant-profile", costs: constantCosts, identical: true, maxVsPlain: 1.10},
	{name: "category-index", index: true, identical: true, maxVsPlain: 1},
	// k = 1 runs the classic code path; the slack absorbs runner noise.
	{name: "topk-1", topK: 1, identical: true, consistent: true, maxVsPlain: 1.5},
	{name: "topk-2", topK: 2, consistent: true},
	{name: "topk-4", topK: 4, consistent: true},
	// One top-8 query must stay cheaper than 8 plain queries; smaller k
	// sit too close to break-even on some datasets to gate.
	{name: "topk-8", topK: 8, consistent: true, maxVsPlain: 8},
	{name: "rush-hour@0.05", costs: rushHourCosts, depart: 0.05, consistent: true},
	{name: "rush-hour@0.32", costs: rushHourCosts, depart: 0.32, consistent: true},
}

// LatencyRow is one (dataset, variant) measurement.
type LatencyRow struct {
	Dataset      string  `json:"dataset"`
	Variant      string  `json:"variant"`
	Queries      int     `json:"queries"`
	MedianMicros float64 `json:"median_us"`
	P95Micros    float64 `json:"p95_us"`
	MeanRoutes   float64 `json:"mean_routes"`

	// VsPlain is this row's median over plain's (1 for plain itself).
	VsPlain float64 `json:"vs_plain"`
	// MaxVsPlain is the bound CheckLatency puts on VsPlain; 0 leaves the
	// median ungated.
	MaxVsPlain float64 `json:"max_vs_plain"`
	// Identical reports that every answer matched plain's for the same
	// query (PoI sequences and bit-equal scores).
	Identical bool `json:"identical"`
	// Consistent reports the variant's exactness cross-check. For topk-k,
	// every score point of the next smaller k's answer (plain's for k = 1)
	// survives into this one. For rush-hour, BSSR, BSSR w/o Opt and the
	// category index agree on every score point. Variants without a
	// cross-check report true.
	Consistent bool `json:"consistent"`
}

// Latency measures the variant table for every configured dataset.
func (h *Harness) Latency() ([]LatencyRow, error) {
	const size = 3
	const starts = 10
	var rows []LatencyRow
	for _, name := range h.cfg.Datasets {
		d, err := h.Dataset(name)
		if err != nil {
			return nil, err
		}
		base, err := h.Workload(name, size)
		if err != nil {
			return nil, err
		}
		qs := templateQueries(d, base, starts, h.cfg.Seed+311)
		seqs := compileSequences(d, qs)

		byCosts := map[costKind]*dataset.Dataset{staticCosts: d}
		runs := make([]*variantRun, len(latencyVariants))
		for j, v := range latencyVariants {
			vd, ok := byCosts[v.costs]
			if !ok {
				if vd, err = withCosts(d, v.costs, h.cfg.Seed+313); err != nil {
					return nil, fmt.Errorf("%s/%s: %w", name, v.name, err)
				}
				byCosts[v.costs] = vd
			}
			opts := core.DefaultOptions()
			opts.TopK = v.topK
			opts.DepartAt = v.depart * vd.Graph.TimePeriod()
			if v.index {
				opts.Index = warmIndex(vd, qs)
			}
			runs[j] = &variantRun{v: v, d: vd, depart: opts.DepartAt, s: core.NewSearcher(vd, vd.Forest.WuPalmer, opts)}
		}
		if err := timeRoundRobin(runs, qs, seqs); err != nil {
			return nil, fmt.Errorf("%s/%w", name, err)
		}

		plain := runs[0]
		smallerK := plain.answers
		for _, run := range runs {
			v, row := run.v, run.row
			row.Dataset, row.Variant, row.MaxVsPlain = d.Name, v.name, v.maxVsPlain
			row.VsPlain = row.MedianMicros / plain.row.MedianMicros
			row.Identical = sameAnswers(run.answers, plain.answers)
			row.Consistent = true
			switch {
			case v.topK > 0:
				row.Consistent = containsPoints(run.answers, smallerK)
				smallerK = run.answers
			case v.costs == rushHourCosts:
				if row.Consistent, err = agreeAcrossConfigs(run.d, qs, seqs, run.depart, run.answers); err != nil {
					return nil, fmt.Errorf("%s/%s cross-check: %w", name, v.name, err)
				}
			}
			rows = append(rows, row)
		}
	}
	return rows, nil
}

// variantRun is one variant's searcher and what timing it records.
type variantRun struct {
	v       latencyVariant
	d       *dataset.Dataset
	depart  float64 // absolute departure time
	s       *core.Searcher
	answers []answer
	times   []float64 // µs per query in the current pass
	row     LatencyRow
}

// timeRoundRobin answers the workload on every variant, twice. Within a
// pass it times query i on each variant in turn before query i+1, and
// each variant keeps the pass with the lower median.
func timeRoundRobin(runs []*variantRun, qs []gen.Query, seqs []route.Sequence) error {
	for _, run := range runs {
		run.answers = make([]answer, len(qs))
		run.times = make([]float64, len(qs))
		run.row = LatencyRow{Queries: len(qs)}
	}
	for pass := 0; pass < 2; pass++ {
		for i, q := range qs {
			for _, run := range runs {
				began := time.Now()
				res, err := run.s.Query(q.Start, seqs[i])
				if err != nil {
					return fmt.Errorf("%s: %w", run.v.name, err)
				}
				run.times[i] = float64(time.Since(began).Nanoseconds()) / 1000
				run.answers[i] = answerOf(res)
			}
		}
		for _, run := range runs {
			sum := stats.Summarize(run.times)
			if pass == 0 || sum.Median < run.row.MedianMicros {
				run.row.MedianMicros, run.row.P95Micros = sum.Median, sum.P95
			}
		}
	}
	for _, run := range runs {
		routes := 0
		for _, a := range run.answers {
			routes += len(a.lengths)
		}
		run.row.MeanRoutes = float64(routes) / float64(len(qs))
	}
	return nil
}

// templateQueries builds the template workload: every base query's
// category sequence replayed from `starts` random start vertices.
func templateQueries(d *dataset.Dataset, base []gen.Query, starts int, seed int64) []gen.Query {
	rng := rand.New(rand.NewSource(seed))
	out := make([]gen.Query, 0, len(base)*starts)
	n := d.Graph.NumVertices()
	for _, q := range base {
		for v := 0; v < starts; v++ {
			out = append(out, gen.Query{Start: graph.VertexID(rng.Intn(n)), Categories: q.Categories})
		}
	}
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// compileSequences compiles each query's category template once, the way
// Engine.SearchWith's matcher cache does in the serving path; recompiling
// per query would charge every variant an identical constant. Sequences
// depend only on the forest, so they serve every cost variant of d.
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

// warmIndex builds a category index over d with the workload's rows
// prewarmed, as WarmCategoryIndex (or a sidecar load) does before serving.
func warmIndex(d *dataset.Dataset, qs []gen.Query) *index.CategoryDistances {
	ci := index.New(d, 0)
	ci.EnsureRoots()
	seen := map[taxonomy.CategoryID]bool{}
	for _, q := range qs {
		for _, c := range q.Categories {
			if !seen[c] {
				seen[c] = true
				ci.Prewarm(c)
			}
		}
	}
	return ci
}

// withCosts returns d with its edge costs replaced as kind says.
func withCosts(d *dataset.Dataset, kind costKind, seed int64) (*dataset.Dataset, error) {
	var edits graph.Edits
	switch kind {
	case constantCosts:
		edits = constantProfileEdits(d)
	case rushHourCosts:
		edits.SetProfiles = gen.TimeProfiles(d, 0.5, seed)
	}
	g, err := d.Graph.Apply(edits)
	if err != nil {
		return nil, err
	}
	return dataset.New(d.Name, g, d.Forest)
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

// agreeAcrossConfigs answers the workload with BSSR w/o Opt and with the
// category index at the same departure, and reports whether both agree
// with ref (BSSR's answers) on every (length, semantic) point, bit for
// bit. Only score points are compared: the skyline contract guarantees
// one representative route per achieved point, and when two distinct
// routes tie on a point exactly, which one survives depends on
// exploration order — a legitimate difference between configurations,
// not an exactness violation.
func agreeAcrossConfigs(d *dataset.Dataset, qs []gen.Query, seqs []route.Sequence, depart float64, ref []answer) (bool, error) {
	withIdx := core.DefaultOptions()
	withIdx.Index = warmIndex(d, qs)
	for _, opts := range []core.Options{core.WithoutOptimizations(), withIdx} {
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

// answer is the comparable form of one query's answer.
type answer struct {
	lengths  []float64
	sems     []float64
	poiLists [][]int32
}

func answerOf(res *core.Result) answer {
	var a answer
	for _, r := range res.Routes {
		a.lengths = append(a.lengths, r.Length())
		a.sems = append(a.sems, r.Semantic())
		a.poiLists = append(a.poiLists, r.PoIs())
	}
	return a
}

// sameScores compares only the (length, semantic) score points,
// bit-exactly.
func (a answer) sameScores(b answer) bool {
	if len(a.lengths) != len(b.lengths) {
		return false
	}
	for i := range a.lengths {
		if a.lengths[i] != b.lengths[i] || a.sems[i] != b.sems[i] {
			return false
		}
	}
	return true
}

// equal compares score points bit-exactly and the routes' PoI sequences.
func (a answer) equal(b answer) bool {
	if !a.sameScores(b) {
		return false
	}
	for i := range a.poiLists {
		if len(a.poiLists[i]) != len(b.poiLists[i]) {
			return false
		}
		for j := range a.poiLists[i] {
			if a.poiLists[i][j] != b.poiLists[i][j] {
				return false
			}
		}
	}
	return true
}

func sameAnswers(a, b []answer) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !a[i].equal(b[i]) {
			return false
		}
	}
	return true
}

// containsPoints reports that, query by query, every (length, semantic)
// point of sub appears in sup — the top-k band-monotonicity check.
// Lengths compare with closeEnough rather than bit equality: the k = 1
// run keeps the Lemma 5.5 path filter while k > 1 runs must not, and the
// two traversals may tie-break equal-length shortest paths differently,
// shifting a route length by an ULP. Semantic scores are products of the
// same similarities either way and must match exactly.
func containsPoints(sup, sub []answer) bool {
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

// RenderLatency writes the variant table as text.
func RenderLatency(w io.Writer, rows []LatencyRow) {
	writeln(w, "Latency: serving variants vs plain BSSR (template workload, |Sq| = 3; best of two passes, index build excluded)")
	writeln(w, "%-8s %-16s %7s %10s %10s %7s %9s %7s %10s %11s",
		"Dataset", "Variant", "queries", "median", "p95", "routes", "vs-plain", "max", "identical", "consistent")
	for _, r := range rows {
		bound := "-"
		if r.MaxVsPlain > 0 {
			bound = fmt.Sprintf("%.2fx", r.MaxVsPlain)
		}
		writeln(w, "%-8s %-16s %7d %9.0fµs %9.0fµs %7.1f %8.2fx %7s %10v %11v",
			r.Dataset, r.Variant, r.Queries, r.MedianMicros, r.P95Micros, r.MeanRoutes,
			r.VsPlain, bound, r.Identical, r.Consistent)
	}
}

// CheckLatency enforces the variant table's gates on every dataset: each
// variant's row must be present, answers must be identical to plain where
// the table requires it, every cross-check the table requires must hold,
// and no gated median may exceed its bound times plain's median.
func CheckLatency(rows []LatencyRow) error {
	byDataset := map[string]map[string]LatencyRow{}
	for _, r := range rows {
		if byDataset[r.Dataset] == nil {
			byDataset[r.Dataset] = map[string]LatencyRow{}
		}
		byDataset[r.Dataset][r.Variant] = r
	}
	if len(byDataset) == 0 {
		return fmt.Errorf("latency check: no rows")
	}
	for ds, got := range byDataset {
		// Plain heads the table, so a missing plain row fails before any
		// median is compared with it.
		plain := got[variantPlain]
		for _, v := range latencyVariants {
			r, ok := got[v.name]
			switch {
			case !ok:
				return fmt.Errorf("latency check: dataset %s has no %s row", ds, v.name)
			case v.identical && !r.Identical:
				return fmt.Errorf("latency check: %s %s answers differ from plain", ds, v.name)
			case v.consistent && !r.Consistent && v.topK > 0:
				return fmt.Errorf("latency check: %s %s lost score points of the smaller k's answer", ds, v.name)
			case v.consistent && !r.Consistent:
				return fmt.Errorf("latency check: %s %s answers differ across BSSR, BSSR w/o Opt and category-index", ds, v.name)
			case v.maxVsPlain > 0 && r.MedianMicros > v.maxVsPlain*plain.MedianMicros:
				return fmt.Errorf("latency check: %s %s median %.0fµs exceeds %.2fx plain's %.0fµs",
					ds, v.name, r.MedianMicros, v.maxVsPlain, plain.MedianMicros)
			}
		}
	}
	return nil
}
