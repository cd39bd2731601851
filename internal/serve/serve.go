// Package serve implements the hardened HTTP serving tier behind the
// skysr-serve command: the §8 prototype endpoints (route, batch, update,
// epoch, survey) wrapped in the robustness machinery a long-lived service
// needs — per-query deadlines threaded into the search core's
// cancellation seam, a bounded admission queue with Retry-After
// backpressure, panic-recovery middleware that converts handler panics
// into JSON 500s, and SIGTERM-style graceful drain with a budget
// (lifecycle.go). The package's tests drive it with fault injection
// enabled (a delayed or panicking search, a client that cancels
// mid-search or in the queue) and check that the tier recovers without
// goroutine or snapshot leaks.
//
// The tier is observable end to end: GET /metrics exposes the engine's
// search-stage instrumentation and the per-endpoint HTTP series in
// Prometheus text format (metrics.go), every log line goes through
// log/slog, a request's handler logging with its endpoint and trace ID
// bound, and Config.EnablePprof mounts the net/http/pprof handlers for
// live profiling.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"html/template"
	"log/slog"
	"math"
	"net/http"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"skysr"
	"skysr/internal/bench"
	"skysr/internal/metrics"
	"skysr/internal/trace"
)

// Config tunes a Server. The zero value serves with no per-query timeout
// and concurrency bounded at 2×GOMAXPROCS with a 4× wait queue.
type Config struct {
	// BaseOpts is the serving profile applied to every query
	// (skysr-serve sets UseCategoryIndex); per-request parameters layer
	// on top of it. /api/batch runs through Engine.SearchBatch, which
	// adds the category index and the shared m-Dijkstra cache to every
	// BSSR query whatever BaseOpts says.
	BaseOpts skysr.SearchOptions
	// QueryTimeout caps the compute time of one route query or batch
	// (the -query-timeout flag). Requests may lower it per call with
	// timeout_ms but never raise it. 0 means no server-side cap.
	QueryTimeout time.Duration
	// MaxConcurrent bounds the heavy requests (route, batch, update)
	// executing at once; 0 means 2×GOMAXPROCS. Each in-flight query holds
	// a pooled graph-sized searcher workspace, so this also bounds
	// transient memory.
	MaxConcurrent int
	// MaxQueue bounds the heavy requests waiting for an execution slot;
	// beyond it requests are rejected with 429 + Retry-After. 0 means
	// 4×MaxConcurrent.
	MaxQueue int
	// Logger receives the tier's log lines; a request's handler logs
	// through it with the request's endpoint and trace ID bound. nil
	// means a slog.TextHandler on stderr at info level. Tests and
	// embedded runners pass logx.Discard().
	Logger *slog.Logger
	// EnablePprof mounts the net/http/pprof handlers under /debug/pprof/
	// (the skysr-serve -pprof flag). Off by default: profiling endpoints
	// expose internals and can be heavy, so an operator opts in.
	EnablePprof bool

	// DisableTracing turns off per-request tracing and the flight
	// recorder entirely (the skysr-serve -no-trace flag). Tracing is on
	// by default: span synthesis happens once per query from counters the
	// search already keeps, so its cost sits inside the same ≤1.05×
	// envelope the metrics layer is gated on.
	DisableTracing bool
	// TraceCapacity is the flight recorder's ring size — how many recent
	// traces /api/debug/traces can serve; 0 means trace.DefaultCapacity.
	TraceCapacity int
	// SlowQuery is the latency at or above which a finished request is
	// always retained by the recorder and logged as a structured
	// slow-query warning (the -slow-query flag). 0 means 500ms; negative
	// disables the slow rule.
	SlowQuery time.Duration
	// TraceSample is the probability of retaining a fast successful
	// request (errors, cancellations, panics and slow requests are always
	// retained — tail sampling). 0 means 0.01; negative means never.
	TraceSample float64
}

// Server is the HTTP serving tier over one Engine. Create with New; it is
// safe for concurrent use.
type Server struct {
	eng *skysr.Engine
	cfg Config
	adm *admission
	log *slog.Logger
	reg *metrics.Registry // served on GET /metrics
	hm  *httpMetrics
	rec *trace.Recorder // flight recorder; nil when tracing is disabled

	mu     sync.Mutex
	survey *bench.Survey

	// draining flips once the lifecycle begins shutting down: heavy
	// endpoints reject new work immediately so the drain budget is spent
	// on in-flight requests only.
	draining atomic.Bool

	rejected atomic.Int64 // 429/503 admission rejections
	panics   atomic.Int64 // handler panics converted to 500s
	timeouts atomic.Int64 // searches that hit a deadline (504s)
}

// New returns a Server over eng with the given configuration and its own
// metrics registry. An engine reports its search-stage metrics to the
// first registry it is enabled on, so only the first Server built over
// eng serves them on GET /metrics.
func New(eng *skysr.Engine, cfg Config) *Server {
	if cfg.MaxConcurrent <= 0 {
		cfg.MaxConcurrent = 2 * runtime.GOMAXPROCS(0)
	}
	if cfg.MaxQueue <= 0 {
		cfg.MaxQueue = 4 * cfg.MaxConcurrent
	}
	if cfg.Logger == nil {
		cfg.Logger = slog.New(slog.NewTextHandler(os.Stderr, nil))
	}
	s := &Server{
		eng:    eng,
		cfg:    cfg,
		adm:    newAdmission(cfg.MaxConcurrent, cfg.MaxQueue),
		log:    cfg.Logger,
		reg:    metrics.New(),
		survey: bench.NewSurvey(bench.PaperQuestions()),
	}
	if !cfg.DisableTracing {
		slow := cfg.SlowQuery
		if slow == 0 {
			slow = 500 * time.Millisecond
		} else if slow < 0 {
			slow = 0
		}
		sample := cfg.TraceSample
		if sample == 0 {
			sample = 0.01
		} else if sample < 0 {
			sample = 0
		}
		s.rec = trace.NewRecorder(cfg.TraceCapacity, slow, sample)
	}
	// Engine metrics first, then the HTTP families: a scrape renders
	// families in registration order, so search counters lead the page.
	eng.EnableMetrics(s.reg)
	s.hm = newHTTPMetrics(s.reg)
	s.registerServerMetrics(s.reg)
	if s.rec != nil {
		s.registerTraceMetrics(s.reg)
	}
	return s
}

// Engine returns the engine the server answers from.
func (s *Server) Engine() *skysr.Engine { return s.eng }

// Handler returns the full middleware-wrapped handler: panic recovery
// outermost, then routing, with admission control on the heavy endpoints.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	s.registerRoutes(mux)
	return s.recoverPanics(mux)
}

// registerRoutes wires every endpoint; the tests use it too, so a handler
// cannot ship unregistered or untested. The heavy endpoints — the ones
// that check out searcher workspaces or rebuild snapshots — sit behind
// the admission queue; epoch, categories and survey bypass it so
// monitoring keeps working while the tier is saturated.
func (s *Server) registerRoutes(mux *http.ServeMux) {
	mux.HandleFunc("GET /{$}", s.instrument("index", s.handleIndex))
	mux.HandleFunc("GET /api/categories", s.instrument("categories", s.handleCategories))
	mux.HandleFunc("GET /api/route", s.instrument("route", s.admit(s.handleRoute)))
	mux.HandleFunc("POST /api/batch", s.instrument("batch", s.admit(s.handleBatch)))
	mux.HandleFunc("POST /api/update", s.instrument("update", s.admit(s.handleUpdate)))
	mux.HandleFunc("GET /api/epoch", s.instrument("epoch", s.handleEpoch))
	mux.HandleFunc("POST /api/survey", s.instrument("survey_post", s.handleSurveyPost))
	mux.HandleFunc("GET /api/survey", s.instrument("survey_get", s.handleSurveyGet))
	mux.HandleFunc("GET /metrics", s.instrument("metrics", s.handleMetrics))
	// Like /metrics, the trace endpoints bypass admission: inspecting why
	// queries are slow must keep working while the tier is saturated.
	mux.HandleFunc("GET /api/debug/traces", s.instrument("traces_list", s.handleTracesList))
	mux.HandleFunc("GET /api/debug/traces/{id}", s.instrument("traces_get", s.handleTracesGet))
	if s.cfg.EnablePprof {
		registerPprof(mux)
	}
}

// recoverPanics converts a handler panic into a JSON 500 instead of
// killing the connection (and, under http.Server, only the connection —
// but under a bare mux in tests, the process). http.ErrAbortHandler is
// re-raised: it is the sanctioned way to abort a response.
func (s *Server) recoverPanics(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			p := recover()
			if p == nil {
				return
			}
			if p == http.ErrAbortHandler {
				panic(p)
			}
			s.panics.Add(1)
			s.log.Error("panic recovered", "method", r.Method, "path", r.URL.Path,
				"panic", p, "stack", string(debug.Stack()))
			// If the handler already wrote a header this write fails;
			// nothing more can be done for that response.
			s.writeJSON(w, http.StatusInternalServerError, map[string]string{"error": "internal server error"})
		}()
		next.ServeHTTP(w, r)
	})
}

// queryContext derives the context a search runs under: the request
// context (so client disconnects and server drain cancel the search),
// bounded by the server's QueryTimeout and the request's own timeout_ms —
// whichever is tighter.
func (s *Server) queryContext(r *http.Request, timeoutMS int) (context.Context, context.CancelFunc) {
	d := s.cfg.QueryTimeout
	if timeoutMS > 0 {
		rd := time.Duration(timeoutMS) * time.Millisecond
		if d <= 0 || rd < d {
			d = rd
		}
	}
	if d <= 0 {
		return context.WithCancel(r.Context())
	}
	return context.WithTimeout(r.Context(), d)
}

// writeSearchError maps a search error onto HTTP semantics: a deadline is
// the server refusing to spend more compute (504), a cancellation means
// the client went away or the server is draining (503), anything else is
// a bad request. The request's trace (when sampled) is annotated with the
// same classification, so the flight recorder's tail sampling always
// keeps these outcomes.
func (s *Server) writeSearchError(w http.ResponseWriter, r *http.Request, err error) {
	tr := trace.FromContext(r.Context())
	switch {
	case errors.Is(err, skysr.ErrDeadlineExceeded):
		s.timeouts.Add(1)
		if tr != nil {
			tr.SetStatus(trace.StatusDeadline, err.Error())
		}
		s.writeJSON(w, http.StatusGatewayTimeout, map[string]string{"error": "query deadline exceeded"})
	case errors.Is(err, skysr.ErrSearchCancelled):
		if tr != nil {
			tr.SetStatus(trace.StatusCancelled, err.Error())
		}
		s.writeJSON(w, http.StatusServiceUnavailable, map[string]string{"error": "query cancelled"})
	default:
		if tr != nil {
			tr.SetStatus(trace.StatusError, err.Error())
		}
		s.writeJSON(w, http.StatusBadRequest, map[string]string{"error": err.Error()})
	}
}

var indexTmpl = template.Must(template.New("index").Parse(`<!doctype html>
<html><head><title>SkySR route suggestion</title></head>
<body>
<h1>SkySR route suggestion — {{.Name}}</h1>
<p>{{.Stats}}</p>
<form action="/api/route" method="GET">
  start vertex: <input name="start" value="0" size="6">
  categories (comma-separated): <input name="via" size="60"
    placeholder="Sushi Restaurant, Art Museum, Gift Shop">
  <input type="submit" value="Find skyline routes">
</form>
<p>Leaf categories: {{range .Leaves}}<code>{{.}}</code> {{end}}</p>
</body></html>`))

func (s *Server) handleIndex(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	err := indexTmpl.Execute(w, struct {
		Name   string
		Stats  string
		Leaves []string
	}{s.eng.Name(), s.eng.Stats(), s.eng.LeafCategories()})
	if err != nil {
		s.logger(r.Context()).Error("index render failed", "err", err)
	}
}

func (s *Server) handleCategories(w http.ResponseWriter, r *http.Request) {
	s.writeJSON(w, http.StatusOK, map[string]any{
		"all":    s.eng.Categories(),
		"leaves": s.eng.LeafCategories(),
	})
}

type routeResponse struct {
	ElapsedMS float64     `json:"elapsed_ms"`
	Routes    []routeJSON `json:"routes"`
}

type routeJSON struct {
	Rank     int       `json:"rank"`
	PoIs     []string  `json:"pois"`
	Length   float64   `json:"length"`
	Semantic float64   `json:"semantic"`
	Path     []int32   `json:"path,omitempty"`
	Lons     []float64 `json:"lons,omitempty"`
	Lats     []float64 `json:"lats,omitempty"`
}

// maxTopKPerRequest bounds one request's k: band maintenance is O(k) per
// pruning probe and large k widens the search, so a single request must
// not be able to ask for an effectively unbounded enumeration.
const maxTopKPerRequest = 64

// parseTopK validates an optional k parameter (0 means unset → classic).
func parseTopK(raw string) (int, error) {
	if raw == "" {
		return 0, nil
	}
	k, err := strconv.Atoi(raw)
	if err != nil || k < 1 || k > maxTopKPerRequest {
		return 0, fmt.Errorf("k must be in [1, %d]", maxTopKPerRequest)
	}
	return k, nil
}

// parseDepart validates an optional depart parameter (empty means 0).
func parseDepart(raw string) (float64, error) {
	if raw == "" {
		return 0, nil
	}
	d, err := strconv.ParseFloat(raw, 64)
	if err != nil || d < 0 || math.IsNaN(d) || math.IsInf(d, 0) {
		return 0, fmt.Errorf("depart must be a non-negative finite number")
	}
	return d, nil
}

// maxTimeoutMS bounds a request's timeout_ms field; the server-side
// QueryTimeout caps the effective value anyway, this just rejects
// nonsense early.
const maxTimeoutMS = 600_000

// parseTimeoutMS validates an optional timeout_ms parameter (0 = server
// default).
func parseTimeoutMS(raw string) (int, error) {
	if raw == "" {
		return 0, nil
	}
	ms, err := strconv.Atoi(raw)
	if err != nil || ms < 1 || ms > maxTimeoutMS {
		return 0, fmt.Errorf("timeout_ms must be in [1, %d]", maxTimeoutMS)
	}
	return ms, nil
}

func (s *Server) handleRoute(w http.ResponseWriter, r *http.Request) {
	qv := r.URL.Query()
	start, err := strconv.Atoi(qv.Get("start"))
	if err != nil {
		s.writeJSON(w, http.StatusBadRequest, map[string]string{"error": "bad start vertex"})
		return
	}
	var dest *int
	if destRaw := qv.Get("dest"); destRaw != "" {
		d, err := strconv.Atoi(destRaw)
		if err != nil {
			s.writeJSON(w, http.StatusBadRequest, map[string]string{"error": "bad dest vertex"})
			return
		}
		dest = &d
	}
	k, err := parseTopK(qv.Get("k"))
	if err != nil {
		s.writeJSON(w, http.StatusBadRequest, map[string]string{"error": err.Error()})
		return
	}
	depart, err := parseDepart(qv.Get("depart"))
	if err != nil {
		s.writeJSON(w, http.StatusBadRequest, map[string]string{"error": err.Error()})
		return
	}
	timeoutMS, err := parseTimeoutMS(qv.Get("timeout_ms"))
	if err != nil {
		s.writeJSON(w, http.StatusBadRequest, map[string]string{"error": err.Error()})
		return
	}
	q, err := s.makeQuery(start, strings.Split(qv.Get("via"), ","), dest, qv.Get("unordered") == "1")
	if err != nil {
		s.writeJSON(w, http.StatusBadRequest, map[string]string{"error": err.Error()})
		return
	}
	ctx, cancel := s.queryContext(r, timeoutMS)
	defer cancel()
	opts := s.cfg.BaseOpts
	opts.ExpandPaths = qv.Get("expand") == "1"
	opts.TopK = k
	opts.DepartAt = depart
	opts.Context = ctx
	ans, err := s.eng.SearchWith(q, opts)
	if err != nil {
		s.writeSearchError(w, r, err)
		return
	}
	s.writeJSON(w, http.StatusOK, s.routeResponseOf(ans))
}

// makeQuery validates and assembles one query from request parameters.
func (s *Server) makeQuery(start int, via []string, dest *int, unordered bool) (skysr.Query, error) {
	if start < 0 || start >= s.eng.NumVertices() {
		return skysr.Query{}, fmt.Errorf("bad start vertex")
	}
	q := skysr.Query{Start: int32(start), Unordered: unordered}
	for _, name := range via {
		if trimmed := strings.TrimSpace(name); trimmed != "" {
			q.Via = append(q.Via, skysr.Category(trimmed))
		}
	}
	if len(q.Via) == 0 {
		return skysr.Query{}, fmt.Errorf("via is required")
	}
	if dest != nil {
		if *dest < 0 || *dest >= s.eng.NumVertices() {
			return skysr.Query{}, fmt.Errorf("bad dest vertex")
		}
		q.Destination = int32(*dest)
		q.HasDestination = true
	}
	return q, nil
}

// maxBatch bounds one /api/batch request; production clients should chunk
// larger workloads.
const maxBatch = 4096

type batchQueryJSON struct {
	Start     int      `json:"start"`
	Via       []string `json:"via"`
	Dest      *int     `json:"dest,omitempty"`
	Unordered bool     `json:"unordered,omitempty"`
	// K asks for ranked top-k alternatives for this query (0 = classic
	// skyline), capped at maxTopKPerRequest like the route endpoint.
	K int `json:"k,omitempty"`
	// Depart is this query's departure time at its start vertex (0 =
	// period start); meaningful on time-dependent datasets.
	Depart float64 `json:"depart,omitempty"`
}

type batchRequest struct {
	// Workers bounds the batch's concurrency; 0 means one per CPU.
	Workers int `json:"workers"`
	// TimeoutMS caps the whole batch's compute time in milliseconds,
	// bounded by the server's -query-timeout; 0 means the server default.
	TimeoutMS int              `json:"timeout_ms,omitempty"`
	Queries   []batchQueryJSON `json:"queries"`
}

type batchResponse struct {
	ElapsedMS float64         `json:"elapsed_ms"`
	Answers   []routeResponse `json:"answers"`
}

// maxBatchWorkers bounds one batch's concurrency (each worker holds a
// graph-sized pooled searcher workspace); the default of 0 is clamped to
// it too, so many-core hosts cannot exceed it implicitly.
const maxBatchWorkers = 64

// maxBodyBytes caps every JSON request body. A maxBatch-sized batch fits
// comfortably in it, so no handler buffers more than that before its own
// size checks can even run.
const maxBodyBytes = 4 << 20

// decodeBody decodes r's JSON body into v, reading at most maxBodyBytes.
// On failure it answers 413 for an oversized body, its message ending in
// advice, or 400 for malformed JSON, and returns false.
func (s *Server) decodeBody(w http.ResponseWriter, r *http.Request, v any, advice string) bool {
	err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes)).Decode(v)
	var tooLarge *http.MaxBytesError
	switch {
	case err == nil:
		return true
	case errors.As(err, &tooLarge):
		s.writeJSON(w, http.StatusRequestEntityTooLarge,
			map[string]string{"error": fmt.Sprintf("body exceeds %d bytes%s", tooLarge.Limit, advice)})
	default:
		s.writeJSON(w, http.StatusBadRequest, map[string]string{"error": "bad JSON"})
	}
	return false
}

func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	var body batchRequest
	if !s.decodeBody(w, r, &body, "; chunk the batch") {
		return
	}
	if len(body.Queries) == 0 {
		s.writeJSON(w, http.StatusBadRequest, map[string]string{"error": "queries is required"})
		return
	}
	if len(body.Queries) > maxBatch {
		s.writeJSON(w, http.StatusBadRequest, map[string]string{"error": fmt.Sprintf("batch exceeds %d queries", maxBatch)})
		return
	}
	if body.Workers < 0 || body.Workers > maxBatchWorkers {
		s.writeJSON(w, http.StatusBadRequest, map[string]string{"error": fmt.Sprintf("workers must be in [0, %d]", maxBatchWorkers)})
		return
	}
	if body.TimeoutMS < 0 || body.TimeoutMS > maxTimeoutMS {
		s.writeJSON(w, http.StatusBadRequest, map[string]string{"error": fmt.Sprintf("timeout_ms must be in [0, %d]", maxTimeoutMS)})
		return
	}
	workers := body.Workers
	if workers == 0 {
		workers = min(runtime.GOMAXPROCS(0), maxBatchWorkers)
	}
	queries := make([]skysr.Query, len(body.Queries))
	perQuery := make([]skysr.SearchOptions, len(body.Queries))
	for i, bq := range body.Queries {
		q, err := s.makeQuery(bq.Start, bq.Via, bq.Dest, bq.Unordered)
		if err != nil {
			s.writeJSON(w, http.StatusBadRequest, map[string]string{"error": fmt.Sprintf("query %d: %v", i, err)})
			return
		}
		// Unlike the route endpoint's string parameter, an absent JSON k
		// decodes to 0, so 0 must stay legal here and means "classic".
		if bq.K < 0 || bq.K > maxTopKPerRequest {
			s.writeJSON(w, http.StatusBadRequest, map[string]string{"error": fmt.Sprintf("query %d: k must be in [0, %d] (0 or omitted = classic skyline)", i, maxTopKPerRequest)})
			return
		}
		if bq.Depart < 0 || math.IsNaN(bq.Depart) || math.IsInf(bq.Depart, 0) {
			s.writeJSON(w, http.StatusBadRequest, map[string]string{"error": fmt.Sprintf("query %d: depart must be a non-negative finite number", i)})
			return
		}
		queries[i] = q
		perQuery[i] = s.cfg.BaseOpts
		perQuery[i].TopK = bq.K
		perQuery[i].DepartAt = bq.Depart
	}
	ctx, cancel := s.queryContext(r, body.TimeoutMS)
	defer cancel()
	began := time.Now()
	answers, err := s.eng.SearchBatch(queries, skysr.BatchOptions{Workers: workers, PerQuery: perQuery, Context: ctx})
	if err != nil {
		s.writeSearchError(w, r, err)
		return
	}
	resp := batchResponse{ElapsedMS: float64(time.Since(began).Microseconds()) / 1000}
	for _, ans := range answers {
		resp.Answers = append(resp.Answers, s.routeResponseOf(ans))
	}
	s.writeJSON(w, http.StatusOK, resp)
}

// routeResponseOf converts an answer into its JSON form.
func (s *Server) routeResponseOf(ans *skysr.Answer) routeResponse {
	resp := routeResponse{ElapsedMS: float64(ans.Elapsed.Microseconds()) / 1000}
	for _, rt := range ans.Routes {
		rj := routeJSON{Rank: rt.Rank, PoIs: rt.PoINames, Length: rt.LengthScore, Semantic: rt.SemanticScore, Path: rt.Path}
		for _, p := range rt.PoIs {
			lon, lat := s.eng.Position(p)
			rj.Lons = append(rj.Lons, lon)
			rj.Lats = append(rj.Lats, lat)
		}
		resp.Routes = append(resp.Routes, rj)
	}
	return resp
}

// edgeJSON is one edge operand of an update request.
type edgeJSON struct {
	U int32   `json:"u"`
	V int32   `json:"v"`
	W float64 `json:"w,omitempty"`
}

// poiJSON is one PoI operand of an update request.
type poiJSON struct {
	V          int32    `json:"v"`
	Categories []string `json:"categories"`
}

// profileJSON is one time-profile operand of an update request: parallel
// breakpoint times (in [0, period), ascending) and costs.
type profileJSON struct {
	U     int32     `json:"u"`
	V     int32     `json:"v"`
	Times []float64 `json:"times"`
	Costs []float64 `json:"costs"`
}

// updateRequest is the JSON form of one skysr.UpdateBatch.
type updateRequest struct {
	SetWeights    []edgeJSON    `json:"set_weights,omitempty"`
	AddEdges      []edgeJSON    `json:"add_edges,omitempty"`
	RemoveEdges   []edgeJSON    `json:"remove_edges,omitempty"`
	SetProfiles   []profileJSON `json:"set_profiles,omitempty"`
	ClearProfiles []edgeJSON    `json:"clear_profiles,omitempty"`
	AddPoIs       []poiJSON     `json:"add_pois,omitempty"`
	RemovePoIs    []int32       `json:"remove_pois,omitempty"`
	Recategorize  []poiJSON     `json:"recategorize,omitempty"`
}

// updateResponse echoes skysr.UpdateResult.
type updateResponse struct {
	Epoch             int64 `json:"epoch"`
	WeightsChanged    int   `json:"weights_changed"`
	EdgesAdded        int   `json:"edges_added"`
	EdgesRemoved      int   `json:"edges_removed"`
	ProfilesSet       int   `json:"profiles_set"`
	ProfilesCleared   int   `json:"profiles_cleared"`
	PoIsAdded         int   `json:"pois_added"`
	PoIsRemoved       int   `json:"pois_removed"`
	PoIsRecategorized int   `json:"pois_recategorized"`
	GraphRebuilt      bool  `json:"graph_rebuilt"`
	IndexInvalidated  bool  `json:"index_invalidated"`
	RowsCarried       int   `json:"rows_carried"`
	RowsDirtied       int   `json:"rows_dirtied"`
}

// maxUpdateEdits bounds one /api/update request.
const maxUpdateEdits = 4096

func (s *Server) handleUpdate(w http.ResponseWriter, r *http.Request) {
	var body updateRequest
	if !s.decodeBody(w, r, &body, "; split the update") {
		return
	}
	batch := new(skysr.UpdateBatch)
	for _, e := range body.SetWeights {
		batch.SetEdgeWeight(e.U, e.V, e.W)
	}
	for _, e := range body.AddEdges {
		batch.AddEdge(e.U, e.V, e.W)
	}
	for _, e := range body.RemoveEdges {
		batch.RemoveEdge(e.U, e.V)
	}
	for _, p := range body.SetProfiles {
		batch.SetEdgeProfile(p.U, p.V, p.Times, p.Costs)
	}
	for _, e := range body.ClearProfiles {
		batch.ClearEdgeProfile(e.U, e.V)
	}
	for _, p := range body.AddPoIs {
		batch.AddPoI(p.V, p.Categories...)
	}
	for _, v := range body.RemovePoIs {
		batch.RemovePoI(v)
	}
	for _, p := range body.Recategorize {
		batch.Recategorize(p.V, p.Categories...)
	}
	if batch.Len() == 0 {
		s.writeJSON(w, http.StatusBadRequest, map[string]string{"error": "empty update batch"})
		return
	}
	if batch.Len() > maxUpdateEdits {
		s.writeJSON(w, http.StatusBadRequest, map[string]string{"error": fmt.Sprintf("batch exceeds %d edits", maxUpdateEdits)})
		return
	}
	res, err := s.eng.ApplyUpdates(batch)
	if err != nil {
		s.writeJSON(w, http.StatusBadRequest, map[string]string{"error": err.Error()})
		return
	}
	s.logger(r.Context()).Info("update applied",
		"epoch", res.Epoch, "edits", batch.Len(),
		"rows_carried", res.RowsCarried, "rows_dirtied", res.RowsDirtied)
	s.writeJSON(w, http.StatusOK, updateResponse{
		Epoch:             res.Epoch,
		WeightsChanged:    res.WeightsChanged,
		EdgesAdded:        res.EdgesAdded,
		EdgesRemoved:      res.EdgesRemoved,
		ProfilesSet:       res.ProfilesSet,
		ProfilesCleared:   res.ProfilesCleared,
		PoIsAdded:         res.PoIsAdded,
		PoIsRemoved:       res.PoIsRemoved,
		PoIsRecategorized: res.PoIsRecategorized,
		GraphRebuilt:      res.GraphRebuilt,
		IndexInvalidated:  res.IndexInvalidated,
		RowsCarried:       res.RowsCarried,
		RowsDirtied:       res.RowsDirtied,
	})
}

func (s *Server) handleEpoch(w http.ResponseWriter, r *http.Request) {
	st := s.eng.CategoryIndexStats()
	s.writeJSON(w, http.StatusOK, map[string]any{
		"epoch":          s.eng.Epoch(),
		"live_snapshots": s.eng.LiveSnapshots(),
		"index": map[string]any{
			"rows_built":    st.RowsBuilt,
			"rows_carried":  st.RowsCarried,
			"rows_repaired": st.RowsRepaired,
			"from_sidecar":  st.FromSidecar,
		},
		"serving": map[string]any{
			"in_flight":      s.adm.inFlightCount(),
			"queue_depth":    s.adm.queueDepth(),
			"max_concurrent": s.adm.maxConcurrent(),
			"max_queue":      s.adm.maxQueue,
			"rejected":       s.rejected.Load(),
			"panics":         s.panics.Load(),
			"timeouts":       s.timeouts.Load(),
			"draining":       s.draining.Load(),
		},
	})
}

type surveyPost struct {
	Question string `json:"question"`
	Option   int    `json:"option"`
}

func (s *Server) handleSurveyPost(w http.ResponseWriter, r *http.Request) {
	var body surveyPost
	if !s.decodeBody(w, r, &body, "") {
		return
	}
	s.mu.Lock()
	err := s.survey.Record(bench.SurveyResponse{QuestionID: body.Question, Option: body.Option})
	s.mu.Unlock()
	if err != nil {
		s.writeJSON(w, http.StatusBadRequest, map[string]string{"error": err.Error()})
		return
	}
	s.writeJSON(w, http.StatusOK, map[string]string{"status": "recorded"})
}

func (s *Server) handleSurveyGet(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := map[string]any{}
	for _, q := range bench.PaperQuestions() {
		n := s.survey.Respondents(q.ID)
		entry := map[string]any{"text": q.Text, "respondents": n}
		if n > 0 {
			ratios, err := s.survey.Ratios(q.ID)
			if err == nil {
				entry["ratios"] = map[string]float64{
					q.Options[0]: ratios[0],
					q.Options[1]: ratios[1],
					q.Options[2]: ratios[2],
				}
			}
		}
		out[q.ID] = entry
	}
	s.writeJSON(w, http.StatusOK, out)
}

func (s *Server) writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	if err := json.NewEncoder(w).Encode(v); err != nil {
		s.log.Warn("encode response failed", "err", err)
	}
}
