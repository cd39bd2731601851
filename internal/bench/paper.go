package bench

// The paper suite regenerates the evaluation of §7–§8 in one pass. It
// walks each (dataset, |Sq|) workload once, and every configuration the
// tables and figures compare answers every query once. Each row's
// scenario names the artifact it reproduces:
//
//	table5                dataset counts and build time
//	figure3 <alg> |Sq|=n  response time of BSSR, BSSR w/o Opt, PNE and
//	                      Dij; also Table 6's peak bytes (dataset footprint
//	                      plus the largest working memory of any query) and
//	                      the queries over the naive budget (dnf)
//	table7 |Sq|=n         NNinit: the first search radius with and without
//	                      it, its time, its seed routes and their ratio
//	table8 |Sq|=n         vertices settled by the proposed and the
//	                      distance-based queue
//	figure4 |Sq|=n        the §5.3.3 lower bounds over the initial weight sum
//	figure5 |Sq|=n        modified-Dijkstra runs with and without the cache
//	figure6 |Sq|=n        skyline sizes
//	figure9 Qn            the user study's answer ratios (survey.go)
//
// The paper's Table 6 is the figure3 bytes at |Sq| = 4, and its Figure 4
// is the largest |Sq|. With Config.Verify, every figure3 row but BSSR's
// gates on same-skyline: each query it finished returned BSSR's skyline.

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"slices"
	"strings"
	"time"

	"skysr/internal/core"
	"skysr/internal/dataset"
	"skysr/internal/gen"
	"skysr/internal/osr"
	"skysr/internal/route"
	"skysr/internal/stats"
)

// Indexes into suiteConfigs. The first four are Figure 3's algorithms;
// the rest are the ablations Tables 7–8 and Figure 5 compare BSSR with.
const (
	cfgBSSR = iota
	cfgNoOpt
	cfgPNE
	cfgDij
	cfgNoInit
	cfgDistanceQueue
	cfgNoCache
)

// suiteConfig is one way the suite answers a query: BSSR with opts, or
// the naive baseline on engine when opts is nil.
type suiteConfig struct {
	name   string
	opts   func() core.Options
	engine osr.Engine
}

var suiteConfigs = [...]suiteConfig{
	cfgBSSR:  {name: "BSSR", opts: core.DefaultOptions},
	cfgNoOpt: {name: "BSSR w/o Opt", opts: core.WithoutOptimizations},
	cfgPNE:   {name: "PNE", engine: osr.EnginePNE},
	cfgDij:   {name: "Dij", engine: osr.EngineDijkstra},
	// Table 7's "Existing" row; the bounds need NNinit's threshold.
	cfgNoInit:        {name: "no-init", opts: ablation(func(o *core.Options) { o.InitialSearch, o.LowerBounds = false, false })},
	cfgDistanceQueue: {name: "distance-queue", opts: ablation(func(o *core.Options) { o.ProposedQueue = false })},
	cfgNoCache:       {name: "no-cache", opts: ablation(func(o *core.Options) { o.Caching = false })},
}

// ablation returns full BSSR with off applied.
func ablation(off func(*core.Options)) func() core.Options {
	return func() core.Options {
		o := core.DefaultOptions()
		off(&o)
		return o
	}
}

// outcome is one configuration's answer to one query.
type outcome struct {
	elapsed time.Duration
	routes  []*route.Route // nil when dnf
	stats   core.Stats     // BSSR configurations only
	bytes   int64          // peak working memory
	dnf     bool           // the naive budget ran out
}

// run answers q. BSSR's time includes building its searcher; a naive
// baseline's excludes building its solver.
func (c suiteConfig) run(d *dataset.Dataset, q gen.Query, budget int64) (outcome, error) {
	if c.opts != nil {
		began := time.Now()
		res, err := core.NewSearcher(d, d.Forest.WuPalmer, c.opts()).QueryCategories(q.Start, q.Categories...)
		if err != nil {
			return outcome{}, err
		}
		return outcome{elapsed: time.Since(began), routes: res.Routes, stats: res.Stats,
			bytes: res.Stats.PeakMemoryBytes(d.Graph.NumVertices())}, nil
	}
	solver := osr.NewSolver(d, c.engine, d.Forest.WuPalmer, route.AggProduct)
	solver.Budget = budget
	began := time.Now()
	sky, err := solver.SkySRExact(q.Start, q.Categories)
	o := outcome{elapsed: time.Since(began), bytes: solver.MemoryFootprintBytes()}
	switch {
	case errors.Is(err, osr.ErrBudgetExceeded):
		o.dnf = true
	case err != nil:
		return outcome{}, err
	default:
		o.routes = sky.Routes()
	}
	return o, nil
}

// artifacts orders the suite's rows, by the first word of their scenario.
var artifacts = []string{"table5", "figure3", "table7", "table8", "figure4", "figure5", "figure6", "figure9"}

// Paper runs the suite and returns its rows, grouped by artifact.
func (h *Harness) Paper() ([]Row, error) {
	var rows []Row
	for _, name := range h.cfg.Datasets {
		began := time.Now()
		d, err := h.Dataset(name)
		if err != nil {
			return nil, err
		}
		rows = append(rows, table5Row(name, d, time.Since(began)))
		for _, size := range h.cfg.SeqSizes {
			qs, err := h.Workload(name, size)
			if err != nil {
				return nil, err
			}
			var outs [len(suiteConfigs)][]outcome
			for _, q := range qs {
				for c, sc := range suiteConfigs {
					o, err := sc.run(d, q, h.cfg.Budget)
					if err != nil {
						return nil, fmt.Errorf("%s |Sq|=%d %s: %w", name, size, sc.name, err)
					}
					outs[c] = append(outs[c], o)
				}
			}
			sq := fmt.Sprintf("|Sq|=%d", size)
			rows = append(rows, h.figure3Rows(name, sq, d.MemoryFootprintBytes(), &outs)...)
			rows = append(rows, ablationRows(name, sq, &outs)...)
		}
	}
	survey, err := figure9Rows(PaperSurvey())
	if err != nil {
		return nil, err
	}
	rows = append(rows, survey...)
	rank := func(r Row) int {
		artifact, _, _ := strings.Cut(r.Scenario, " ")
		return slices.Index(artifacts, artifact)
	}
	slices.SortStableFunc(rows, func(a, b Row) int { return cmp.Compare(rank(a), rank(b)) })
	return rows, nil
}

// table5Row summarizes one dataset.
func table5Row(name string, d *dataset.Dataset, build time.Duration) Row {
	st := d.Stats()
	r := Row{Dataset: name, Scenario: "table5"}
	r.Count("vertices", float64(st.RoadVertices))
	r.Count("pois", float64(st.PoIVertices))
	r.Count("edges", float64(st.Edges))
	r.Count("categories", float64(st.Categories))
	r.Count("trees", float64(st.Trees))
	r.Count("build_ms", float64(build.Microseconds())/1e3)
	return r
}

// figure3Rows reports Figure 3's algorithms on one workload.
func (h *Harness) figure3Rows(name, sq string, footprint int64, outs *[len(suiteConfigs)][]outcome) []Row {
	var rows []Row
	for c := cfgBSSR; c <= cfgDij; c++ {
		times := make([]float64, len(outs[c]))
		var peak int64
		dnf := 0
		same := true
		for i, o := range outs[c] {
			times[i] = float64(o.elapsed) / float64(time.Microsecond)
			peak = max(peak, o.bytes)
			if o.dnf {
				dnf++
			} else if !sameSkylines(o.routes, outs[cfgBSSR][i].routes) {
				same = false
			}
		}
		sum := stats.Summarize(times)
		r := Row{Dataset: name, Scenario: "figure3 " + suiteConfigs[c].name + " " + sq}
		r.Count("queries", float64(len(times)))
		r.Count("mean_us", sum.Mean)
		r.Count("median_us", sum.Median)
		r.Count("p95_us", sum.P95)
		r.Count("bytes", float64(footprint+peak))
		r.Count("dnf", float64(dnf))
		if h.cfg.Verify && c != cfgBSSR {
			r.Gate("same-skyline", same)
		}
		rows = append(rows, r)
	}
	return rows
}

// ablationRows reports what BSSR's statistics show on one workload, alone
// and against the ablations: Tables 7–8 and Figures 4–6. Means are sums
// in query order divided by their count.
func ablationRows(name, sq string, outs *[len(suiteConfigs)][]outcome) []Row {
	var (
		radius, radiusNoInit, initTime, initRoutes, ratio float64
		settled, settledDistance                          float64
		semantic, perfect                                 float64
		runs, runsNoCache, skysrs                         float64
		ratioN, boundsN, maxSkysrs                        int
	)
	for i, o := range outs[cfgBSSR] {
		st := o.stats
		radius += st.FirstMDijkstraRadius
		radiusNoInit += outs[cfgNoInit][i].stats.FirstMDijkstraRadius
		initTime += float64(st.InitTime) / float64(time.Microsecond)
		initRoutes += float64(st.InitRoutes)
		if st.InitRatio > 0 {
			ratio += st.InitRatio
			ratioN++
		}
		settled += float64(st.SettledVertices)
		settledDistance += float64(outs[cfgDistanceQueue][i].stats.SettledVertices)
		if lp := st.InitPerfectL; lp != 0 && !math.IsInf(lp, 1) {
			semantic += boundRatio(st.SemanticBound, lp)
			perfect += boundRatio(st.PerfectBound, lp)
			boundsN++
		}
		runs += float64(st.MDijkstraRuns)
		runsNoCache += float64(outs[cfgNoCache][i].stats.MDijkstraRuns)
		skysrs += float64(len(o.routes))
		maxSkysrs = max(maxSkysrs, len(o.routes))
	}
	n := float64(len(outs[cfgBSSR]))
	row := func(artifact string) Row { return Row{Dataset: name, Scenario: artifact + " " + sq} }
	t7, t8, f4, f5, f6 := row("table7"), row("table8"), row("figure4"), row("figure5"), row("figure6")
	t7.Count("weight_sum", radius/n)
	t7.Count("weight_sum_no_init", radiusNoInit/n)
	t7.Count("init_us", initTime/n)
	t7.Count("init_routes", initRoutes/n)
	t7.Count("ratio", meanOf(ratio, ratioN))
	t8.Count("settled_proposed", settled)
	t8.Count("settled_distance", settledDistance)
	f4.Count("semantic_ratio", meanOf(semantic, boundsN))
	f4.Count("perfect_ratio", meanOf(perfect, boundsN))
	f5.Count("runs_cache", runs/n)
	f5.Count("runs_no_cache", runsNoCache/n)
	f6.Count("mean_skysrs", skysrs/n)
	f6.Count("max_skysrs", float64(maxSkysrs))
	return []Row{t7, t8, f4, f5, f6}
}

// boundRatio is a lower bound over NNinit's perfect-route length. A bound
// that prunes everything is +Inf; its ratio is 1.
func boundRatio(bound, perfectL float64) float64 {
	if math.IsInf(bound, 1) {
		return 1
	}
	return bound / perfectL
}

// meanOf is sum/n, or 0 without samples.
func meanOf(sum float64, n int) float64 {
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}
