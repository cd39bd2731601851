package skysr

// bench_test.go times the work behind the paper's evaluation (§7–§8) at
// a laptop-friendly scale: Figure 3's four algorithms, whose queries
// Tables 6 and 7 also measure; one table of ablations (Table 8, Figures 4
// and 5, the path filter and the category index); Figures 6 and 9; and
// scenarios through the public API. The full sweep with configurable
// scale lives in cmd/skysr-bench.
//
// Run with: go test -bench=. -benchmem

import (
	"strconv"
	"sync"
	"testing"

	"skysr/internal/bench"
	"skysr/internal/core"
	"skysr/internal/dataset"
	"skysr/internal/gen"
	"skysr/internal/index"
	"skysr/internal/osr"
	"skysr/internal/route"
)

// benchState caches datasets and workloads across benchmarks.
var benchState struct {
	once     sync.Once
	err      error
	harness  *bench.Harness
	datasets map[string]*dataset.Dataset
	loads    map[string]map[int][]gen.Query
}

func benchSetup(b *testing.B) *bench.Harness {
	b.Helper()
	benchState.once.Do(func() {
		cfg := bench.DefaultConfig()
		cfg.Scale = 0.10
		cfg.Queries = 5
		cfg.Budget = 400_000
		h := bench.New(cfg)
		benchState.harness = h
		benchState.datasets = map[string]*dataset.Dataset{}
		benchState.loads = map[string]map[int][]gen.Query{}
		for _, name := range cfg.Datasets {
			d, err := h.Dataset(name)
			if err != nil {
				benchState.err = err
				return
			}
			benchState.datasets[name] = d
			benchState.loads[name] = map[int][]gen.Query{}
			for _, size := range cfg.SeqSizes {
				qs, err := h.Workload(name, size)
				if err != nil {
					benchState.err = err
					return
				}
				benchState.loads[name][size] = qs
			}
		}
	})
	if benchState.err != nil {
		b.Fatal(benchState.err)
	}
	return benchState.harness
}

// BenchmarkTable5DatasetBuild measures dataset generation, the setup cost
// behind Table 5's dataset summary.
func BenchmarkTable5DatasetBuild(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := gen.BuildPreset("cal", 0.05, int64(i)+1); err != nil {
			b.Fatal(err)
		}
	}
}

// figure3Algorithms are the four algorithms of Figure 3: BSSR with opts,
// or the naive baseline on engine when opts is nil.
var figure3Algorithms = []struct {
	name   string
	opts   func() core.Options
	engine osr.Engine
}{
	{name: "BSSR", opts: core.DefaultOptions},
	{name: "BSSR w/o Opt", opts: core.WithoutOptimizations},
	{name: "PNE", engine: osr.EnginePNE},
	{name: "Dij", engine: osr.EngineDijkstra},
}

// BenchmarkFigure3 measures per-query response time for each dataset,
// algorithm and sequence size — the cells of Figure 3. With -benchmem it
// also reports the allocations behind Table 6's memory comparison.
func BenchmarkFigure3(b *testing.B) {
	h := benchSetup(b)
	for _, name := range h.Config().Datasets {
		d := benchState.datasets[name]
		for _, alg := range figure3Algorithms {
			for _, size := range h.Config().SeqSizes {
				qs := benchState.loads[name][size]
				b.Run(name+"/"+alg.name+"/S"+strconv.Itoa(size), func(b *testing.B) {
					for i := 0; i < b.N; i++ {
						q := qs[i%len(qs)]
						if alg.opts != nil {
							s := core.NewSearcher(d, d.Forest.WuPalmer, alg.opts())
							if _, err := s.QueryCategories(q.Start, q.Categories...); err != nil {
								b.Fatal(err)
							}
							continue
						}
						solver := osr.NewSolver(d, alg.engine, d.Forest.WuPalmer, route.AggProduct)
						solver.Budget = h.Config().Budget
						if _, err := solver.SkySRExact(q.Start, q.Categories); err != nil && err != osr.ErrBudgetExceeded {
							b.Fatal(err)
						}
					}
				})
			}
		}
	}
}

// BenchmarkAblations times full BSSR against the same queries with one
// optimization changed, on the workload each comparison is measured on:
// the priority queue (Table 8), the minimum-distance lower bounds at the
// largest sequence size (Figure 4), on-the-fly caching (Figure 5), the
// Lemma 5.5 path filter, and the §9 category index. Index row builds are
// excluded (paid once per dataset), matching how an application would
// amortize them. Answers are identical in every mode; only the work
// differs.
func BenchmarkAblations(b *testing.B) {
	benchSetup(b)
	for _, mode := range []struct {
		name    string
		dataset string
		size    int
		set     func(o *core.Options)
		index   bool // answer with a category index prewarmed for the workload
	}{
		{name: "Table8PriorityQueue/proposed", dataset: "tokyo", size: 4},
		{name: "Table8PriorityQueue/distance-based", dataset: "tokyo", size: 4, set: func(o *core.Options) { o.ProposedQueue = false }},
		{name: "Figure4LowerBounds/with-bounds", dataset: "tokyo", size: 5},
		{name: "Figure4LowerBounds/without-bounds", dataset: "tokyo", size: 5, set: func(o *core.Options) { o.LowerBounds = false }},
		{name: "Figure5Caching/with-cache", dataset: "nyc", size: 4},
		{name: "Figure5Caching/without-cache", dataset: "nyc", size: 4, set: func(o *core.Options) { o.Caching = false }},
		{name: "PathFilter/with-filter", dataset: "tokyo", size: 4},
		{name: "PathFilter/without-filter", dataset: "tokyo", size: 4, set: func(o *core.Options) { o.DisablePathFilter = true }},
		{name: "CategoryIndex/with-index", dataset: "tokyo", size: 4, index: true},
		{name: "CategoryIndex/without-index", dataset: "tokyo", size: 4},
	} {
		b.Run(mode.name, func(b *testing.B) {
			d := benchState.datasets[mode.dataset]
			qs := benchState.loads[mode.dataset][mode.size]
			opts := core.DefaultOptions()
			if mode.set != nil {
				mode.set(&opts)
			}
			if mode.index {
				opts.Index = index.New(d, 0)
				opts.Index.EnsureRoots()
				for _, q := range qs {
					opts.Index.Prewarm(q.Categories...)
				}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				q := qs[i%len(qs)]
				s := core.NewSearcher(d, d.Forest.WuPalmer, opts)
				if _, err := s.QueryCategories(q.Start, q.Categories...); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFigure6SkySRCount measures full BSSR queries across the |Sq|
// sweep whose result cardinalities Figure 6 reports.
func BenchmarkFigure6SkySRCount(b *testing.B) {
	h := benchSetup(b)
	for _, size := range h.Config().SeqSizes {
		qs := benchState.loads["cal"][size]
		d := benchState.datasets["cal"]
		b.Run("S"+strconv.Itoa(size), func(b *testing.B) {
			total := 0
			for i := 0; i < b.N; i++ {
				q := qs[i%len(qs)]
				s := core.NewSearcher(d, d.Forest.WuPalmer, core.DefaultOptions())
				res, err := s.QueryCategories(q.Start, q.Categories...)
				if err != nil {
					b.Fatal(err)
				}
				total += len(res.Routes)
			}
			b.ReportMetric(float64(total)/float64(b.N), "skysrs/query")
		})
	}
}

// BenchmarkFigure9Survey measures the questionnaire aggregation of §8.
func BenchmarkFigure9Survey(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := bench.PaperSurvey()
		for _, q := range s.Questions {
			if _, err := s.Ratios(q.ID); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkTable1NYCExample measures the Table 1 scenario through the
// public API (the examples/nyctrip network shape).
func BenchmarkTable1NYCExample(b *testing.B) {
	eng, err := Generate("nyc", 0.05, 7)
	if err != nil {
		b.Fatal(err)
	}
	qs, err := eng.Workload(5, 3, 11)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.Search(qs[i%len(qs)]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable9UseCase measures the §7.5 use case: a destination query
// through the public API.
func BenchmarkTable9UseCase(b *testing.B) {
	eng, err := Generate("tokyo", 0.05, 7)
	if err != nil {
		b.Fatal(err)
	}
	qs, err := eng.Workload(5, 3, 13)
	if err != nil {
		b.Fatal(err)
	}
	dest := eng.RandomVertex(99)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := qs[i%len(qs)]
		q.Destination = dest
		q.HasDestination = true
		if _, err := eng.Search(q); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRatedQuery measures the three-criteria (§9 ratings) variant
// against the plain query on the same workload.
func BenchmarkRatedQuery(b *testing.B) {
	benchSetup(b)
	d := benchState.datasets["tokyo"]
	qs := benchState.loads["tokyo"][3]
	b.Run("plain", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			q := qs[i%len(qs)]
			s := core.NewSearcher(d, d.Forest.WuPalmer, core.DefaultOptions())
			if _, err := s.QueryCategories(q.Start, q.Categories...); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("rated", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			q := qs[i%len(qs)]
			s := core.NewSearcher(d, d.Forest.WuPalmer, core.DefaultOptions())
			seq := route.NewCategorySequence(d.Forest, d.Forest.WuPalmer, q.Categories...)
			if _, err := s.QueryRated(q.Start, seq); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkUnorderedQuery measures the §6 skyline-trip-planning variant.
func BenchmarkUnorderedQuery(b *testing.B) {
	benchSetup(b)
	d := benchState.datasets["tokyo"]
	qs := benchState.loads["tokyo"][3]
	for i := 0; i < b.N; i++ {
		q := qs[i%len(qs)]
		s := core.NewSearcher(d, d.Forest.WuPalmer, core.DefaultOptions())
		seq := route.NewCategorySequence(d.Forest, d.Forest.WuPalmer, q.Categories...)
		if _, err := s.QueryUnordered(q.Start, seq); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRunningExample measures the paper's Table 4 fixture end to end.
func BenchmarkRunningExample(b *testing.B) {
	eng, vq, cats := PaperExample()
	via := make([]Requirement, len(cats))
	for i, c := range cats {
		via[i] = Category(c)
	}
	q := Query{Start: vq, Via: via}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.Search(q); err != nil {
			b.Fatal(err)
		}
	}
}
