// Package metrics is a dependency-free metrics library with
// Prometheus-compatible text exposition (format version 0.0.4): counters,
// gauges, sampled gauge/counter functions, and fixed-bucket histograms.
// All hot-path operations (Inc, Add, Set, Observe) are lock-free atomics
// and allocation-free; the only locking happens at registration time and
// while rendering a scrape. A Registry is an http.Handler, so mounting
// GET /metrics is one line, and ParseText (parse.go) validates scrape
// output so tests and CI gates can assert on it without a Prometheus
// client dependency.
package metrics

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"net/http"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Label is one key="value" pair attached to a metric. Labels are fixed at
// registration: every distinct label combination is its own metric object,
// so the hot path never touches a label map.
type Label struct {
	Key, Value string
}

// L is shorthand for Label{Key: k, Value: v}.
func L(k, v string) Label { return Label{Key: k, Value: v} }

var (
	nameRe  = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)
	labelRe = regexp.MustCompile(`^[a-zA-Z_][a-zA-Z0-9_]*$`)
)

// collector renders one metric's sample lines. name is the family name,
// labels the pre-rendered `{k="v",...}` suffix (or "").
type collector interface {
	collect(w io.Writer, name, labels string) error
}

// series is one registered (labels, metric) pair within a family.
type series struct {
	labels string // pre-rendered, "" when unlabeled
	c      collector
}

// family is every series registered under one metric name, sharing a help
// string and a type.
type family struct {
	name, help, typ string
	series          []series
}

// Registry holds metric families and renders them in registration order.
// All methods are safe for concurrent use. Create one with New.
type Registry struct {
	mu    sync.Mutex
	fams  []*family
	index map[string]*family
}

// New returns an empty Registry.
func New() *Registry {
	return &Registry{index: make(map[string]*family)}
}

// register adds a series under name, creating the family on first use and
// panicking on invalid names, duplicate (name, labels) registration, or a
// help/type conflict — all programming errors caught at startup, never at
// scrape or observation time.
func (r *Registry) register(name, help, typ string, labels []Label, c collector) {
	if !nameRe.MatchString(name) {
		panic(fmt.Sprintf("metrics: invalid metric name %q", name))
	}
	for _, l := range labels {
		if !labelRe.MatchString(l.Key) {
			panic(fmt.Sprintf("metrics: invalid label name %q on %q", l.Key, name))
		}
	}
	rendered := renderLabels(labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.index[name]
	if f == nil {
		f = &family{name: name, help: help, typ: typ}
		r.index[name] = f
		r.fams = append(r.fams, f)
	} else if f.typ != typ || f.help != help {
		panic(fmt.Sprintf("metrics: %q re-registered with conflicting help or type", name))
	}
	for _, s := range f.series {
		if s.labels == rendered {
			panic(fmt.Sprintf("metrics: duplicate registration of %s%s", name, rendered))
		}
	}
	f.series = append(f.series, series{labels: rendered, c: c})
}

// renderLabels pre-renders a label set as `{k="v",...}`, escaping values.
func renderLabels(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range labels {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Key)
		b.WriteString(`="`)
		b.WriteString(escapeLabelValue(l.Value))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

func escapeLabelValue(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	var b strings.Builder
	for _, c := range v {
		switch c {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteRune(c)
		}
	}
	return b.String()
}

// WriteText renders every registered metric in the Prometheus text
// exposition format: families in registration order, each with its
// # HELP and # TYPE header, series in registration order within a family.
func (r *Registry) WriteText(w io.Writer) error {
	// Snapshot under the lock, render outside it: sampled gauge functions
	// may be arbitrarily slow, and late registrations must not race the
	// family/series slices while a scrape walks them.
	r.mu.Lock()
	fams := make([]family, len(r.fams))
	for i, f := range r.fams {
		fams[i] = family{name: f.name, help: f.help, typ: f.typ,
			series: append([]series(nil), f.series...)}
	}
	r.mu.Unlock()
	bw := bufio.NewWriter(w)
	for _, f := range fams {
		fmt.Fprintf(bw, "# HELP %s %s\n", f.name, escapeHelp(f.help))
		fmt.Fprintf(bw, "# TYPE %s %s\n", f.name, f.typ)
		for _, s := range f.series {
			if err := s.c.collect(bw, f.name, s.labels); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

func escapeHelp(h string) string {
	h = strings.ReplaceAll(h, "\\", `\\`)
	return strings.ReplaceAll(h, "\n", `\n`)
}

// ContentType is the Content-Type of the text exposition format.
const ContentType = "text/plain; version=0.0.4; charset=utf-8"

// ServeHTTP renders a scrape; a Registry mounts directly as GET /metrics.
func (r *Registry) ServeHTTP(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", ContentType)
	// Errors past this point are connection failures; the scraper retries.
	_ = r.WriteText(w)
}

// formatFloat renders a sample value: integers without an exponent,
// +Inf/-Inf/NaN in the exposition spelling.
func formatFloat(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case math.IsNaN(v):
		return "NaN"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// Counter is a monotonically increasing integer counter.
type Counter struct {
	v atomic.Int64
}

// Counter registers and returns a new counter. The name should end in
// _total by Prometheus convention.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	c := &Counter{}
	r.register(name, help, "counter", labels, c)
	return c
}

// Inc adds 1.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n, which must be non-negative (counters only go up).
func (c *Counter) Add(n int64) {
	if n < 0 {
		panic("metrics: counter decrement")
	}
	c.v.Add(n)
}

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

func (c *Counter) collect(w io.Writer, name, labels string) error {
	_, err := fmt.Fprintf(w, "%s%s %d\n", name, labels, c.v.Load())
	return err
}

// Gauge is an integer gauge: a value that can go up and down.
type Gauge struct {
	v atomic.Int64
}

// Gauge registers and returns a new gauge.
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	g := &Gauge{}
	r.register(name, help, "gauge", labels, g)
	return g
}

// Set stores v.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add adds n (may be negative).
func (g *Gauge) Add(n int64) { g.v.Add(n) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

func (g *Gauge) collect(w io.Writer, name, labels string) error {
	_, err := fmt.Fprintf(w, "%s%s %d\n", name, labels, g.v.Load())
	return err
}

// funcCollector samples fn at scrape time.
type funcCollector func() float64

func (fn funcCollector) collect(w io.Writer, name, labels string) error {
	_, err := fmt.Fprintf(w, "%s%s %s\n", name, labels, formatFloat(fn()))
	return err
}

// GaugeFunc registers a gauge whose value is sampled by calling fn at
// scrape time — the zero-hot-path-cost way to export a value something
// else already maintains (a pool occupancy count, a queue depth).
func (r *Registry) GaugeFunc(name, help string, fn func() float64, labels ...Label) {
	r.register(name, help, "gauge", labels, funcCollector(fn))
}

// CounterFunc registers a counter whose value is sampled by calling fn at
// scrape time. fn must be monotonically non-decreasing (typically it reads
// an existing atomic counter).
func (r *Registry) CounterFunc(name, help string, fn func() float64, labels ...Label) {
	r.register(name, help, "counter", labels, funcCollector(fn))
}

// Histogram is a fixed-bucket histogram. Bucket counts, the observation
// count and the sum are all atomics; Observe is lock-free and
// allocation-free. Buckets are cumulative in the exposition (le-labeled
// upper bounds, inclusive), matching Prometheus histogram semantics.
type Histogram struct {
	bounds []float64      // ascending finite upper bounds
	counts []atomic.Int64 // len(bounds)+1; last is the +Inf overflow bucket
	count  atomic.Int64
	sum    atomic.Uint64 // float64 bits, CAS-accumulated
	// exemplars holds at most one tagged observation per bucket
	// (last-writer-wins), rendered as an OpenMetrics-style exemplar suffix
	// on that bucket's sample line.
	exemplars []atomic.Pointer[exemplar]
}

// exemplar is one tagged observation pinned to a histogram bucket — the
// serving tier uses it to attach slow-query trace IDs to the latency
// bucket the query landed in.
type exemplar struct {
	labels string // pre-rendered {k="v"}
	value  float64
}

// Histogram registers and returns a new histogram with the given bucket
// upper bounds, which must be finite and strictly ascending. An implicit
// +Inf overflow bucket is always appended.
func (r *Registry) Histogram(name, help string, bounds []float64, labels ...Label) *Histogram {
	if len(bounds) == 0 {
		panic(fmt.Sprintf("metrics: histogram %q needs at least one bucket", name))
	}
	for i, b := range bounds {
		if math.IsNaN(b) || math.IsInf(b, 0) {
			panic(fmt.Sprintf("metrics: histogram %q has non-finite bucket %v", name, b))
		}
		if i > 0 && bounds[i-1] >= b {
			panic(fmt.Sprintf("metrics: histogram %q buckets not strictly ascending", name))
		}
	}
	for _, l := range labels {
		if l.Key == "le" {
			panic(fmt.Sprintf("metrics: histogram %q may not carry an le label", name))
		}
	}
	h := &Histogram{bounds: append([]float64(nil), bounds...)}
	h.counts = make([]atomic.Int64, len(bounds)+1)
	h.exemplars = make([]atomic.Pointer[exemplar], len(bounds)+1)
	r.register(name, help, "histogram", labels, h)
	return h
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v: le is inclusive
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, next) {
			return
		}
	}
}

// Exemplar tags the bucket v falls into with an OpenMetrics-style
// exemplar: a ` # {key="val"} value` suffix on that bucket's sample line.
// It does not observe v — call Observe separately. Last writer per bucket
// wins; the write is one atomic pointer store, so tagging is safe on the
// serving path. ParseText tolerates and validates the suffix, so scrape
// consumers that predate exemplars keep working.
func (h *Histogram) Exemplar(v float64, key, val string) {
	i := sort.SearchFloat64s(h.bounds, v)
	h.exemplars[i].Store(&exemplar{labels: renderLabels([]Label{L(key, val)}), value: v})
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sum.Load()) }

// Quantile estimates the q-quantile (q in [0, 1]) from the bucket counts
// by linear interpolation within the winning bucket, the standard
// Prometheus histogram_quantile estimate. Observations in the overflow
// bucket are attributed to the largest finite bound. Returns 0 with no
// observations. The snapshot is not atomic across buckets; under
// concurrent observation the estimate is approximate, which is all a
// monitoring quantile promises.
func (h *Histogram) Quantile(q float64) float64 {
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	counts := make([]int64, len(h.counts))
	var total int64
	for i := range h.counts {
		counts[i] = h.counts[i].Load()
		total += counts[i]
	}
	if total == 0 {
		return 0
	}
	rank := q * float64(total)
	var cum int64
	for i, c := range counts {
		cum += c
		if float64(cum) >= rank {
			if i == len(h.bounds) {
				return h.bounds[len(h.bounds)-1] // overflow bucket
			}
			lo := 0.0
			if i > 0 {
				lo = h.bounds[i-1]
			}
			hi := h.bounds[i]
			if c == 0 {
				return hi
			}
			frac := (rank - float64(cum-c)) / float64(c)
			return lo + (hi-lo)*frac
		}
	}
	return h.bounds[len(h.bounds)-1]
}

func (h *Histogram) collect(w io.Writer, name, labels string) error {
	// Cumulative le buckets; the inner labels merge with le.
	inner := strings.TrimSuffix(strings.TrimPrefix(labels, "{"), "}")
	var cum int64
	for i := range h.counts {
		cum += h.counts[i].Load()
		le := "+Inf"
		if i < len(h.bounds) {
			le = formatFloat(h.bounds[i])
		}
		sep := ""
		if inner != "" {
			sep = ","
		}
		if _, err := fmt.Fprintf(w, "%s_bucket{%s%sle=%q} %d", name, inner, sep, le, cum); err != nil {
			return err
		}
		if ex := h.exemplars[i].Load(); ex != nil {
			if _, err := fmt.Fprintf(w, " # %s %s", ex.labels, formatFloat(ex.value)); err != nil {
				return err
			}
		}
		if _, err := io.WriteString(w, "\n"); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(w, "%s_sum%s %s\n", name, labels, formatFloat(h.Sum())); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "%s_count%s %d\n", name, labels, h.count.Load())
	return err
}

// DefTimeBuckets is the default latency bucket layout, in seconds:
// exponential-ish from 100µs to 10s, suited to sub-millisecond indexed
// queries and multi-second unindexed ones alike.
var DefTimeBuckets = []float64{
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005,
	0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}
