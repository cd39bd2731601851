package bench

import (
	"fmt"
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
// and the gates latencyRows holds its row to. Every top-k row is
// cross-checked against the next smaller k, and every rush-hour row
// across BSSR, BSSR w/o Opt and the category index.
type latencyVariant struct {
	name   string
	index  bool // answer with a category index prewarmed for the workload
	topK   int
	costs  costKind
	depart float64 // departure, as a fraction of the time period

	maxVsPlain float64 // bound on median / plain median; 0 = ungated
	identical  bool    // answers must be bit-identical to plain's
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
	{name: "topk-1", topK: 1, identical: true, maxVsPlain: 1.5},
	{name: "topk-2", topK: 2},
	{name: "topk-4", topK: 4},
	// One top-8 query must stay cheaper than 8 plain queries; smaller k
	// sit too close to break-even on some datasets to gate.
	{name: "topk-8", topK: 8, maxVsPlain: 8},
	{name: "rush-hour@0.05", costs: rushHourCosts, depart: 0.05},
	{name: "rush-hour@0.32", costs: rushHourCosts, depart: 0.32},
}

// variantResult is what one variant measured on one dataset.
type variantResult struct {
	queries      int
	median, p95  float64 // µs, of the faster pass
	meanRoutes   float64
	identical    bool // every answer matched plain's (PoI sequences and bit-equal scores)
	crossChecked bool // the variant's cross-check held; false when it has none
}

// medianGatePrefix starts the name of every median-bound gate; the other
// latency gates are exactness gates.
const medianGatePrefix = "median≤"

// latencyRows turns one dataset's results, parallel to latencyVariants,
// into rows. A top-k row's cross-check is band containment: every score
// point of the next smaller k's answer (plain's for k = 1) survives into
// it. A rush-hour row's is agreement of BSSR, BSSR w/o Opt and the
// category index on every score point. Median bounds are inclusive.
func latencyRows(dataset string, res []variantResult) []Row {
	plain := res[0].median
	rows := make([]Row, len(latencyVariants))
	for i, v := range latencyVariants {
		m := res[i]
		r := Row{Dataset: dataset, Scenario: v.name}
		r.Count("queries", float64(m.queries))
		r.Count("median_us", m.median)
		r.Count("p95_us", m.p95)
		r.Count("routes", m.meanRoutes)
		r.Count("vs_plain", m.median/plain)
		if v.identical {
			r.Gate("identical", m.identical)
		}
		switch {
		case v.topK > 0:
			r.Gate("contains-smaller-k", m.crossChecked)
		case v.costs == rushHourCosts:
			r.Gate("agrees-across-configs", m.crossChecked)
		}
		if v.maxVsPlain > 0 {
			r.Gate(fmt.Sprintf("%s%.2f×plain", medianGatePrefix, v.maxVsPlain), m.median <= v.maxVsPlain*plain)
		}
		rows[i] = r
	}
	return rows
}

// Latency measures the variant table for every configured dataset.
func (h *Harness) Latency() ([]Row, error) {
	const size = 3
	const starts = 10
	var rows []Row
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

		res := make([]variantResult, len(runs))
		smallerK := runs[0].answers
		for j, run := range runs {
			res[j] = run.res
			res[j].identical = sameAnswers(run.answers, runs[0].answers)
			switch {
			case run.v.topK > 0:
				res[j].crossChecked = containsPoints(run.answers, smallerK)
				smallerK = run.answers
			case run.v.costs == rushHourCosts:
				if res[j].crossChecked, err = agreeAcrossConfigs(run.d, qs, seqs, run.depart, run.answers); err != nil {
					return nil, fmt.Errorf("%s/%s cross-check: %w", name, run.v.name, err)
				}
			}
		}
		rows = append(rows, latencyRows(d.Name, res)...)
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
	res     variantResult
}

// timeRoundRobin answers the workload on every variant, twice. Within a
// pass it times query i on each variant in turn before query i+1, and
// each variant keeps the pass with the lower median.
func timeRoundRobin(runs []*variantRun, qs []gen.Query, seqs []route.Sequence) error {
	for _, run := range runs {
		run.answers = make([]answer, len(qs))
		run.times = make([]float64, len(qs))
		run.res = variantResult{queries: len(qs)}
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
			if pass == 0 || sum.Median < run.res.median {
				run.res.median, run.res.p95 = sum.Median, sum.P95
			}
		}
	}
	for _, run := range runs {
		routes := 0
		for _, a := range run.answers {
			routes += len(a.lengths)
		}
		run.res.meanRoutes = float64(routes) / float64(len(qs))
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

// warmIndex builds a category index over d with the tree roots' and the
// workload's rows prewarmed in one build round, as WarmCategoryIndex (or
// a sidecar load) does before serving.
func warmIndex(d *dataset.Dataset, qs []gen.Query) *index.CategoryDistances {
	ci := index.New(d, 0)
	cats := append([]taxonomy.CategoryID(nil), d.Forest.Roots()...)
	for _, q := range qs {
		cats = append(cats, q.Categories...)
	}
	ci.Prewarm(cats...)
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
