package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"skysr"
	"skysr/internal/faults"
	"skysr/internal/logx"
	"skysr/internal/metrics"
	"skysr/internal/trace"
)

// tracedServer builds a server that retains every finished trace
// (sample=1), so the list/get assertions are deterministic.
func tracedServer(t *testing.T, cfg Config) (*Server, http.Handler) {
	t.Helper()
	eng, _, _ := skysr.PaperExample()
	if cfg.Logger == nil {
		cfg.Logger = logx.Discard()
	}
	if cfg.TraceSample == 0 {
		cfg.TraceSample = 1
	}
	s := New(eng, cfg)
	return s, s.Handler()
}

const tracedRouteURL = "/api/route?start=0&via=Asian+Restaurant,Arts+%26+Entertainment,Gift+Shop"

func listTraces(t *testing.T, mux http.Handler, query string) tracesListResponse {
	t.Helper()
	rec := httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest("GET", "/api/debug/traces"+query, nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("traces list status = %d: %s", rec.Code, rec.Body.String())
	}
	var out tracesListResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
		t.Fatalf("traces list body: %v", err)
	}
	return out
}

func TestTracesListAndGet(t *testing.T) {
	_, mux := tracedServer(t, Config{})
	rec := httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest("GET", tracedRouteURL, nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("route status = %d: %s", rec.Code, rec.Body.String())
	}

	out := listTraces(t, mux, "")
	if len(out.Traces) != 1 {
		t.Fatalf("traces = %d, want 1", len(out.Traces))
	}
	sum := out.Traces[0]
	if sum.Name != "route" || sum.Status != "ok" {
		t.Errorf("summary = %+v, want name=route status=ok", sum)
	}
	if sum.Spans < 2 {
		t.Errorf("spans = %d, want root + search at least", sum.Spans)
	}
	if out.Capacity != trace.DefaultCapacity || out.KeptTotal != 1 {
		t.Errorf("envelope = %+v", out)
	}

	// Full tree by ID: the root holds a search span that mirrors the
	// query's stages — this is the "explain" payload.
	rec = httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest("GET", "/api/debug/traces/"+sum.ID, nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("trace get status = %d: %s", rec.Code, rec.Body.String())
	}
	var full trace.TraceJSON
	if err := json.Unmarshal(rec.Body.Bytes(), &full); err != nil {
		t.Fatal(err)
	}
	if full.ID != sum.ID {
		t.Errorf("trace id = %q, want %q", full.ID, sum.ID)
	}
	if len(full.Root.Children) != 1 || full.Root.Children[0].Name != "search" {
		t.Fatalf("root children = %+v, want one search span", full.Root.Children)
	}
	search := full.Root.Children[0]
	if search.Attrs["md_runs"] == "" || search.Attrs["popped"] == "" {
		t.Errorf("search span attrs missing counters: %v", search.Attrs)
	}
	var legs int
	for _, c := range search.Children {
		if strings.HasPrefix(c.Name, "leg[") {
			legs++
		}
	}
	if legs != 3 {
		t.Errorf("leg spans = %d, want 3 (one per category)", legs)
	}

	// Unparseable and unknown IDs are client errors, not 500s.
	rec = httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest("GET", "/api/debug/traces/nothex", nil))
	if rec.Code != http.StatusBadRequest {
		t.Errorf("bad id status = %d, want 400", rec.Code)
	}
	rec = httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest("GET", "/api/debug/traces/00000000deadbeef", nil))
	if rec.Code != http.StatusNotFound {
		t.Errorf("unknown id status = %d, want 404", rec.Code)
	}
}

func TestTracesDisabled(t *testing.T) {
	eng, _, _ := skysr.PaperExample()
	s := New(eng, Config{Logger: logx.Discard(), DisableTracing: true})
	mux := s.Handler()
	for _, path := range []string{"/api/debug/traces", "/api/debug/traces/0123456789abcdef"} {
		rec := httptest.NewRecorder()
		mux.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
		if rec.Code != http.StatusNotFound {
			t.Errorf("%s status = %d, want 404 when tracing is disabled", path, rec.Code)
		}
	}
}

// TestSlowQueryRetainedAndLogged turns sampling off entirely and makes
// every query "slow": tail sampling must still keep it, the slow-query
// warning must carry the trace ID, and the latency histogram must expose
// the trace ID as an exemplar that ParseText accepts.
func TestSlowQueryRetainedAndLogged(t *testing.T) {
	var logBuf bytes.Buffer
	s, mux := tracedServer(t, Config{
		Logger:      slog.New(slog.NewTextHandler(&logBuf, &slog.HandlerOptions{Level: slog.LevelWarn})),
		SlowQuery:   time.Nanosecond, // everything is slow
		TraceSample: -1,              // never sample; only tail rules keep
	})
	rec := httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest("GET", tracedRouteURL, nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("route status = %d", rec.Code)
	}

	out := listTraces(t, mux, "")
	if len(out.Traces) != 1 || out.Traces[0].Kept != "slow" {
		t.Fatalf("traces = %+v, want one kept=slow", out.Traces)
	}
	id := out.Traces[0].ID

	logLine := logBuf.String()
	if !strings.Contains(logLine, "slow query") || !strings.Contains(logLine, "trace="+id) {
		t.Errorf("slow-query log line missing or untagged: %q", logLine)
	}

	var scrape bytes.Buffer
	if err := s.reg.WriteText(&scrape); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(scrape.String(), `# {trace_id="`+id+`"}`) {
		t.Error("latency histogram lacks the slow query's trace_id exemplar")
	}
	if _, err := metrics.ParseText(scrape.Bytes()); err != nil {
		t.Errorf("scrape with exemplars does not parse: %v", err)
	}
}

// debugLogger writes every line at debug level and above into buf.
func debugLogger(buf *bytes.Buffer) *slog.Logger {
	return slog.New(slog.NewTextHandler(buf, &slog.HandlerOptions{Level: slog.LevelDebug}))
}

// TestRequestLogKeys reads the line a traced route request writes at
// debug level: instrument binds the endpoint and the request's trace ID
// next to the line's own keys.
func TestRequestLogKeys(t *testing.T) {
	var logBuf bytes.Buffer
	_, mux := tracedServer(t, Config{Logger: debugLogger(&logBuf), SlowQuery: -1})
	rec := httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest("GET", tracedRouteURL, nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("route status = %d", rec.Code)
	}
	out := listTraces(t, mux, "")
	if len(out.Traces) != 1 {
		t.Fatalf("traces = %+v, want the route request's", out.Traces)
	}

	served, _ := logLine(t, logBuf.String(), "request served", "route")
	for k, want := range map[string]string{
		"trace": out.Traces[0].ID, "method": "GET", "path": "/api/route", "status": "200",
	} {
		if served[k] != want {
			t.Errorf("request served: %s = %q, want %q in %v", k, served[k], want, served)
		}
	}
	if _, err := time.ParseDuration(served["elapsed"]); err != nil {
		t.Errorf("request served: elapsed %q: %v", served["elapsed"], err)
	}
}

// TestUpdateLogKeys reads the line the update handler writes through the
// logger instrument put in its request's context: next to the handler's
// own keys it carries the endpoint and the update's trace ID, both bound
// one layer up.
func TestUpdateLogKeys(t *testing.T) {
	var logBuf bytes.Buffer
	_, mux := tracedServer(t, Config{Logger: debugLogger(&logBuf), SlowQuery: -1})
	applyUpdate(t, mux)
	out := listTraces(t, mux, "")
	if len(out.Traces) != 1 || out.Traces[0].Name != "update" {
		t.Fatalf("traces = %+v, want the update request's", out.Traces)
	}

	updated, _ := logLine(t, logBuf.String(), "update applied", "update")
	if updated["trace"] != out.Traces[0].ID {
		t.Errorf("update applied: trace = %q, want %q", updated["trace"], out.Traces[0].ID)
	}
	if updated["epoch"] != "1" || updated["edits"] != "1" {
		t.Errorf("update applied: epoch %q, edits %q, want 1 and 1", updated["epoch"], updated["edits"])
	}
	for _, k := range []string{"rows_carried", "rows_dirtied"} {
		if _, ok := updated[k]; !ok {
			t.Errorf("update applied: no %s in %v", k, updated)
		}
	}
}

// TestSlowQueryLogKeyOrder reads the slow-query warning finishTrace
// writes through the chain instrument builds, endpoint bound once per
// endpoint and trace once per request: the bound keys lead, in that
// order, ahead of the line's own.
func TestSlowQueryLogKeyOrder(t *testing.T) {
	var logBuf bytes.Buffer
	_, mux := tracedServer(t, Config{Logger: debugLogger(&logBuf), SlowQuery: time.Nanosecond})
	rec := httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest("GET", tracedRouteURL, nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("route status = %d", rec.Code)
	}
	out := listTraces(t, mux, "")
	if len(out.Traces) != 1 {
		t.Fatalf("traces = %+v, want the route request's", out.Traces)
	}

	slow, keys := logLine(t, logBuf.String(), "slow query", "route")
	want := "time level msg endpoint trace elapsed threshold status kept reason"
	if got := strings.Join(keys, " "); got != want {
		t.Errorf("slow query keys = %q, want %q", got, want)
	}
	if slow["trace"] != out.Traces[0].ID {
		t.Errorf("slow query: trace = %q, want %q", slow["trace"], out.Traces[0].ID)
	}
}

// TestRequestLoggerInContext checks the handoff from instrument to the
// handlers: logger returns the logger withLogger put in a context, its
// bound keys included, and the server's own logger for a context that
// has none.
func TestRequestLoggerInContext(t *testing.T) {
	var logBuf bytes.Buffer
	s, _ := tracedServer(t, Config{Logger: debugLogger(&logBuf)})
	rl := s.log.With("endpoint", "route")
	ctx := withLogger(context.Background(), rl)
	if s.logger(ctx) != rl {
		t.Error("logger did not return the context's logger")
	}
	s.logger(ctx).Info("handled")
	if !strings.Contains(logBuf.String(), `msg=handled endpoint=route`) {
		t.Errorf("context logger lost its bound key: %q", logBuf.String())
	}
	if s.logger(context.Background()) != s.log {
		t.Error("logger on an empty context did not fall back to the server's logger")
	}
}

// logLine returns the keys of the one slog text line in out with message
// msg from the given endpoint, as a map and in the order the line has them.
func logLine(t *testing.T, out, msg, endpoint string) (map[string]string, []string) {
	t.Helper()
	type line struct {
		kv   map[string]string
		keys []string
	}
	var found []line
	for _, text := range strings.Split(strings.TrimSpace(out), "\n") {
		l := line{kv: map[string]string{}}
		for rest := text; rest != ""; {
			k, v, _ := strings.Cut(rest, "=")
			l.keys = append(l.keys, k)
			if q, err := strconv.QuotedPrefix(v); err == nil {
				l.kv[k], _ = strconv.Unquote(q)
				rest = strings.TrimPrefix(v[len(q):], " ")
			} else {
				l.kv[k], rest, _ = strings.Cut(v, " ")
			}
		}
		if l.kv["msg"] == msg && l.kv["endpoint"] == endpoint {
			found = append(found, l)
		}
	}
	if len(found) != 1 {
		t.Fatalf("%d %q lines from endpoint %s, want 1:\n%s", len(found), msg, endpoint, out)
	}
	return found[0].kv, found[0].keys
}

// TestErrorTracesRetained drives the three failure shapes — timeout,
// handler panic and plain bad request — with sampling off, and checks the
// recorder keeps each with the right status annotation.
func TestErrorTracesRetained(t *testing.T) {
	_, mux := tracedServer(t, Config{SlowQuery: -1, TraceSample: -1})

	// Deadline: slow the search down and give it 1ms.
	restore := faults.Set(faults.MDijkstraRun, func(int64) { time.Sleep(5 * time.Millisecond) })
	rec := httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest("GET", tracedRouteURL+"&timeout_ms=1", nil))
	restore()
	if rec.Code != http.StatusGatewayTimeout {
		t.Fatalf("status = %d, want 504", rec.Code)
	}

	// Panic inside the search core.
	restore = faults.Set(faults.RoutePop, func(int64) { panic("injected fault") })
	rec = httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest("GET", tracedRouteURL, nil))
	restore()
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("status = %d, want 500", rec.Code)
	}

	// Bad request (unknown category).
	rec = httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest("GET", "/api/route?start=0&via=No+Such+Category", nil))
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("status = %d, want 400", rec.Code)
	}

	// A successful request with sampling off must NOT be retained.
	rec = httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest("GET", tracedRouteURL, nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d, want 200", rec.Code)
	}

	out := listTraces(t, mux, "")
	got := map[string]int{}
	for _, sum := range out.Traces {
		got[sum.Status]++
		if sum.Kept != "error" {
			t.Errorf("trace %s kept=%q, want error", sum.ID, sum.Kept)
		}
	}
	want := map[string]int{"deadline": 1, "panic": 1, "error": 1}
	if len(out.Traces) != 3 {
		t.Fatalf("traces = %+v, want exactly the three failures", out.Traces)
	}
	for st, n := range want {
		if got[st] != n {
			t.Errorf("status %q count = %d, want %d (have %v)", st, got[st], n, got)
		}
	}
}

// TestTraceListLimit checks ?limit= truncation and newest-first order.
func TestTraceListLimit(t *testing.T) {
	_, mux := tracedServer(t, Config{})
	for i := 0; i < 3; i++ {
		rec := httptest.NewRecorder()
		mux.ServeHTTP(rec, httptest.NewRequest("GET", tracedRouteURL, nil))
		if rec.Code != http.StatusOK {
			t.Fatalf("route status = %d", rec.Code)
		}
	}
	out := listTraces(t, mux, "?limit=2")
	if len(out.Traces) != 2 {
		t.Fatalf("limited traces = %d, want 2", len(out.Traces))
	}
	if out.KeptTotal != 3 {
		t.Errorf("kept_total = %d, want 3", out.KeptTotal)
	}
	rec := httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest("GET", "/api/debug/traces?limit=bogus", nil))
	if rec.Code != http.StatusBadRequest {
		t.Errorf("bad limit status = %d, want 400", rec.Code)
	}
}

// TestTraceMetricsRegistered checks the recorder's counters land on the
// scrape page alongside the HTTP families.
func TestTraceMetricsRegistered(t *testing.T) {
	s, mux := tracedServer(t, Config{})
	rec := httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest("GET", tracedRouteURL, nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("route status = %d", rec.Code)
	}
	var scrape bytes.Buffer
	if err := s.reg.WriteText(&scrape); err != nil {
		t.Fatal(err)
	}
	samples, err := metrics.ParseText(scrape.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if samples["skysr_trace_kept_total"] != 1 {
		t.Errorf("skysr_trace_kept_total = %v, want 1", samples["skysr_trace_kept_total"])
	}
	if samples["skysr_trace_recorder_len"] != 1 {
		t.Errorf("skysr_trace_recorder_len = %v, want 1", samples["skysr_trace_recorder_len"])
	}
}

// TestLongNamesEchoShort sends category and question names far longer
// than any real one to every endpoint that names them in an error: each
// must answer 400 with a short body, and the error traces the recorder
// keeps must stay short too, however much the requests carried.
func TestLongNamesEchoShort(t *testing.T) {
	_, mux := tracedServer(t, Config{SlowQuery: -1, TraceSample: -1})
	long := strings.Repeat("x", 1<<20)
	for _, req := range []*http.Request{
		httptest.NewRequest("GET", "/api/route?start=0&via="+long[:200<<10], nil),
		httptest.NewRequest("POST", "/api/batch", strings.NewReader(`{"queries":[{"start":0,"via":["`+long+`"]}]}`)),
		httptest.NewRequest("POST", "/api/survey", strings.NewReader(`{"question":"`+long+`","option":1}`)),
		httptest.NewRequest("POST", "/api/update", strings.NewReader(`{"add_pois":[{"v":0,"categories":["`+long+`"]}]}`)),
	} {
		rec := httptest.NewRecorder()
		mux.ServeHTTP(rec, req)
		if rec.Code != http.StatusBadRequest || rec.Body.Len() > 1024 {
			t.Errorf("%s %s: status %d with a %d-byte body, want a short 400", req.Method, req.URL.Path, rec.Code, rec.Body.Len())
		}
	}
	rec := httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest("GET", "/api/debug/traces", nil))
	if rec.Code != http.StatusOK || rec.Body.Len() > 4096 {
		t.Errorf("trace list: status %d with a %d-byte body, want a short 200", rec.Code, rec.Body.Len())
	}
	if out := listTraces(t, mux, ""); len(out.Traces) != 3 {
		t.Errorf("kept traces %+v, want the route, batch and update errors", out.Traces)
	}
}
