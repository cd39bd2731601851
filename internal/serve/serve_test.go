package serve

import (
	"context"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"skysr"
	"skysr/internal/faults"
	"skysr/internal/logx"
)

func testServer(t *testing.T) (*Server, http.Handler) {
	t.Helper()
	eng, _, _ := skysr.PaperExample()
	// Discard logs: the fault-injection tests would otherwise dump every
	// recovered panic's stack into the test output.
	s := New(eng, Config{Logger: logx.Discard()})
	return s, s.Handler()
}

// leakCheck fails the test if it ends with more goroutines than it
// started with. Registered before the server under test so its cleanup
// runs last (cleanups are LIFO), after the server's own teardown.
func leakCheck(t *testing.T) {
	t.Helper()
	base := runtime.NumGoroutine()
	t.Cleanup(func() {
		deadline := time.Now().Add(5 * time.Second)
		for time.Now().Before(deadline) {
			if runtime.NumGoroutine() <= base {
				return
			}
			time.Sleep(10 * time.Millisecond)
		}
		buf := make([]byte, 1<<20)
		n := runtime.Stack(buf, true)
		t.Errorf("goroutine leak: %d goroutines, started with %d\n%s", runtime.NumGoroutine(), base, buf[:n])
	})
}

func TestIndexPage(t *testing.T) {
	_, mux := testServer(t)
	rec := httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest("GET", "/", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d", rec.Code)
	}
	body := rec.Body.String()
	if !strings.Contains(body, "SkySR") || !strings.Contains(body, "Gift Shop") {
		t.Errorf("index page missing content: %q", body[:min(200, len(body))])
	}
}

func TestCategoriesEndpoint(t *testing.T) {
	_, mux := testServer(t)
	rec := httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest("GET", "/api/categories", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d", rec.Code)
	}
	var out map[string][]string
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	if len(out["all"]) != 7 {
		t.Errorf("all categories = %d, want 7 (paper example forest)", len(out["all"]))
	}
	if len(out["leaves"]) == 0 {
		t.Error("no leaves returned")
	}
}

func TestRouteEndpoint(t *testing.T) {
	_, mux := testServer(t)
	rec := httptest.NewRecorder()
	req := httptest.NewRequest("GET",
		"/api/route?start=0&via=Asian+Restaurant,Arts+%26+Entertainment,Gift+Shop&expand=1", nil)
	mux.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d: %s", rec.Code, rec.Body.String())
	}
	var out routeResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	if len(out.Routes) != 2 {
		t.Fatalf("routes = %d, want 2 (Table 4)", len(out.Routes))
	}
	// Sorted by length: 10.5 then 13.
	if out.Routes[0].Length != 10.5 || out.Routes[1].Length != 13 {
		t.Errorf("lengths = %v, %v", out.Routes[0].Length, out.Routes[1].Length)
	}
	if len(out.Routes[0].Path) == 0 {
		t.Error("expand=1 should include paths")
	}
	if len(out.Routes[0].Lons) != len(out.Routes[0].PoIs) {
		t.Error("positions missing")
	}
}

func TestRouteEndpointTopK(t *testing.T) {
	_, mux := testServer(t)
	get := func(url string) routeResponse {
		t.Helper()
		rec := httptest.NewRecorder()
		mux.ServeHTTP(rec, httptest.NewRequest("GET", url, nil))
		if rec.Code != http.StatusOK {
			t.Fatalf("status = %d: %s", rec.Code, rec.Body.String())
		}
		var out routeResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
			t.Fatal(err)
		}
		return out
	}
	base := "/api/route?start=0&via=Asian+Restaurant,Arts+%26+Entertainment,Gift+Shop"
	one := get(base)
	three := get(base + "&k=3")
	if len(three.Routes) < len(one.Routes) {
		t.Fatalf("k=3 returned %d routes, fewer than the skyline's %d", len(three.Routes), len(one.Routes))
	}
	for i, rt := range three.Routes {
		if rt.Rank != i+1 {
			t.Errorf("route %d has rank %d", i, rt.Rank)
		}
		if i > 0 && rt.Length < three.Routes[i-1].Length {
			t.Errorf("routes not length-sorted at %d", i)
		}
	}
	// The k=1 form is the classic answer.
	explicit := get(base + "&k=1")
	if len(explicit.Routes) != len(one.Routes) {
		t.Errorf("k=1 returned %d routes, want %d", len(explicit.Routes), len(one.Routes))
	}
	// Out-of-range k values are rejected.
	for _, bad := range []string{"&k=0", "&k=-2", "&k=65", "&k=zz"} {
		rec := httptest.NewRecorder()
		mux.ServeHTTP(rec, httptest.NewRequest("GET", base+bad, nil))
		if rec.Code != http.StatusBadRequest {
			t.Errorf("k%s status = %d, want 400", bad, rec.Code)
		}
	}
}

func TestRouteEndpointWithDestination(t *testing.T) {
	_, mux := testServer(t)
	rec := httptest.NewRecorder()
	req := httptest.NewRequest("GET",
		"/api/route?start=0&dest=0&via=Asian+Restaurant,Arts+%26+Entertainment,Gift+Shop", nil)
	mux.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d: %s", rec.Code, rec.Body.String())
	}
	var out routeResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	if len(out.Routes) == 0 {
		t.Fatal("no routes with destination")
	}
}

func TestRouteEndpointErrors(t *testing.T) {
	_, mux := testServer(t)
	cases := map[string]string{
		"bad start":        "/api/route?start=xx&via=Gift+Shop",
		"start range":      "/api/route?start=9999&via=Gift+Shop",
		"missing via":      "/api/route?start=0",
		"unknown category": "/api/route?start=0&via=Nonexistent",
		"bad dest":         "/api/route?start=0&via=Gift+Shop&dest=zz",
		"bad timeout":      "/api/route?start=0&via=Gift+Shop&timeout_ms=0",
		"huge timeout":     "/api/route?start=0&via=Gift+Shop&timeout_ms=99999999",
	}
	for name, url := range cases {
		t.Run(name, func(t *testing.T) {
			rec := httptest.NewRecorder()
			mux.ServeHTTP(rec, httptest.NewRequest("GET", url, nil))
			if rec.Code != http.StatusBadRequest {
				t.Errorf("status = %d, want 400", rec.Code)
			}
		})
	}
}

func TestBatchEndpoint(t *testing.T) {
	_, mux := testServer(t)
	body := `{"workers":4,"queries":[
		{"start":0,"via":["Asian Restaurant","Arts & Entertainment","Gift Shop"]},
		{"start":0,"via":["Gift Shop"]},
		{"start":0,"via":["Asian Restaurant","Arts & Entertainment","Gift Shop"]}]}`
	rec := httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest("POST", "/api/batch", strings.NewReader(body)))
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d: %s", rec.Code, rec.Body.String())
	}
	var out batchResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	if len(out.Answers) != 3 {
		t.Fatalf("answers = %d, want 3", len(out.Answers))
	}
	// Answers arrive in query order: 1st and 3rd are the Table 4 query.
	for _, i := range []int{0, 2} {
		if len(out.Answers[i].Routes) != 2 ||
			out.Answers[i].Routes[0].Length != 10.5 || out.Answers[i].Routes[1].Length != 13 {
			t.Errorf("answer %d = %+v, want the Table 4 skyline", i, out.Answers[i].Routes)
		}
	}
	if len(out.Answers[1].Routes) == 0 {
		t.Error("single-category query returned no routes")
	}
}

func TestBatchEndpointTopK(t *testing.T) {
	_, mux := testServer(t)
	body := `{"queries":[
		{"start":0,"via":["Asian Restaurant","Arts & Entertainment","Gift Shop"]},
		{"start":0,"via":["Asian Restaurant","Arts & Entertainment","Gift Shop"],"k":4}]}`
	rec := httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest("POST", "/api/batch", strings.NewReader(body)))
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d: %s", rec.Code, rec.Body.String())
	}
	var out batchResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	if len(out.Answers) != 2 {
		t.Fatalf("answers = %d, want 2", len(out.Answers))
	}
	if len(out.Answers[1].Routes) < len(out.Answers[0].Routes) {
		t.Errorf("k=4 answer has %d routes, fewer than the skyline's %d",
			len(out.Answers[1].Routes), len(out.Answers[0].Routes))
	}
	rec = httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest("POST", "/api/batch",
		strings.NewReader(`{"queries":[{"start":0,"via":["Gift Shop"],"k":100}]}`)))
	if rec.Code != http.StatusBadRequest {
		t.Errorf("oversized k status = %d, want 400", rec.Code)
	}
}

func TestBatchEndpointErrors(t *testing.T) {
	_, mux := testServer(t)
	cases := map[string]string{
		"bad JSON":         `notjson`,
		"no queries":       `{"queries":[]}`,
		"bad start":        `{"queries":[{"start":9999,"via":["Gift Shop"]}]}`,
		"missing via":      `{"queries":[{"start":0}]}`,
		"unknown category": `{"queries":[{"start":0,"via":["Nonexistent"]}]}`,
		"bad dest":         `{"queries":[{"start":0,"via":["Gift Shop"],"dest":-2}]}`,
		"bad workers":      `{"workers":1000,"queries":[{"start":0,"via":["Gift Shop"]}]}`,
		"bad timeout":      `{"timeout_ms":-1,"queries":[{"start":0,"via":["Gift Shop"]}]}`,
	}
	for name, body := range cases {
		t.Run(name, func(t *testing.T) {
			rec := httptest.NewRecorder()
			mux.ServeHTTP(rec, httptest.NewRequest("POST", "/api/batch", strings.NewReader(body)))
			if rec.Code != http.StatusBadRequest {
				t.Errorf("status = %d, want 400: %s", rec.Code, rec.Body.String())
			}
		})
	}
}

func TestBatchEndpointBodyTooLarge(t *testing.T) {
	_, mux := testServer(t)
	big := `{"queries":[{"start":0,"via":["` + strings.Repeat("x", 4<<20) + `"]}]}`
	rec := httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest("POST", "/api/batch", strings.NewReader(big)))
	if rec.Code != http.StatusRequestEntityTooLarge {
		t.Errorf("status = %d, want 413", rec.Code)
	}
	if !strings.Contains(rec.Body.String(), "chunk the batch") {
		t.Errorf("body = %s, want an oversized-body message", rec.Body.String())
	}
}

func TestSurveyEndpoints(t *testing.T) {
	_, mux := testServer(t)

	// Empty survey renders with zero respondents.
	rec := httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest("GET", "/api/survey", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d", rec.Code)
	}

	// Record two responses.
	for _, body := range []string{
		`{"question":"Q1","option":1}`,
		`{"question":"Q1","option":2}`,
	} {
		rec := httptest.NewRecorder()
		mux.ServeHTTP(rec, httptest.NewRequest("POST", "/api/survey", strings.NewReader(body)))
		if rec.Code != http.StatusOK {
			t.Fatalf("POST status = %d: %s", rec.Code, rec.Body.String())
		}
	}

	// Bad posts fail.
	for _, body := range []string{`{"question":"Q1","option":7}`, `{"question":"QX","option":1}`, `notjson`} {
		rec := httptest.NewRecorder()
		mux.ServeHTTP(rec, httptest.NewRequest("POST", "/api/survey", strings.NewReader(body)))
		if rec.Code != http.StatusBadRequest {
			t.Errorf("POST %q status = %d, want 400", body, rec.Code)
		}
	}
	// An oversized post is refused before it is read in full.
	rec = httptest.NewRecorder()
	big := `{"question":"` + strings.Repeat("a", 4<<20) + `","option":1}`
	mux.ServeHTTP(rec, httptest.NewRequest("POST", "/api/survey", strings.NewReader(big)))
	if rec.Code != http.StatusRequestEntityTooLarge || rec.Body.Len() > 1024 {
		t.Errorf("oversized POST status = %d with a %d-byte body, want a short 413", rec.Code, rec.Body.Len())
	}

	// Ratios reflect the two recorded answers.
	rec = httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest("GET", "/api/survey", nil))
	var out map[string]struct {
		Respondents int                `json:"respondents"`
		Ratios      map[string]float64 `json:"ratios"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	if out["Q1"].Respondents != 2 {
		t.Errorf("Q1 respondents = %d, want 2", out["Q1"].Respondents)
	}
	if out["Q1"].Ratios["I love it"] != 0.5 {
		t.Errorf("Q1 ratios = %v", out["Q1"].Ratios)
	}
}

func TestUpdateEndpoint(t *testing.T) {
	_, mux := testServer(t)

	// The paper example's Table 4 skyline before any update.
	query := func() routeResponse {
		rec := httptest.NewRecorder()
		mux.ServeHTTP(rec, httptest.NewRequest("GET",
			"/api/route?start=0&via=Asian+Restaurant,Arts+%26+Entertainment,Gift+Shop", nil))
		if rec.Code != http.StatusOK {
			t.Fatalf("route status = %d: %s", rec.Code, rec.Body.String())
		}
		var out routeResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
			t.Fatal(err)
		}
		return out
	}
	before := query()
	if len(before.Routes) != 2 || before.Routes[0].Length != 10.5 {
		t.Fatalf("pre-update skyline = %+v, want the Table 4 shape", before.Routes)
	}

	// Raise one road weight; the server keeps serving on the new epoch.
	rec := httptest.NewRecorder()
	body := `{"set_weights":[{"u":0,"v":1,"w":100}]}`
	mux.ServeHTTP(rec, httptest.NewRequest("POST", "/api/update", strings.NewReader(body)))
	if rec.Code != http.StatusOK {
		t.Fatalf("update status = %d: %s", rec.Code, rec.Body.String())
	}
	var res updateResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &res); err != nil {
		t.Fatal(err)
	}
	if res.Epoch != 1 || res.WeightsChanged != 1 {
		t.Fatalf("update response = %+v, want epoch 1 with one weight change", res)
	}

	// The epoch endpoint reflects the new version.
	rec = httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest("GET", "/api/epoch", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("epoch status = %d", rec.Code)
	}
	var epochOut struct {
		Epoch int64 `json:"epoch"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &epochOut); err != nil {
		t.Fatal(err)
	}
	if epochOut.Epoch != 1 {
		t.Fatalf("epoch = %d, want 1", epochOut.Epoch)
	}
}

func TestUpdateEndpointErrors(t *testing.T) {
	_, mux := testServer(t)
	cases := map[string]string{
		"bad JSON":         `notjson`,
		"empty batch":      `{}`,
		"unknown vertex":   `{"set_weights":[{"u":0,"v":9999,"w":1}]}`,
		"missing edge":     `{"remove_edges":[{"u":0,"v":0}]}`,
		"unknown category": `{"recategorize":[{"v":6,"categories":["No Such Place"]}]}`,
	}
	for name, body := range cases {
		t.Run(name, func(t *testing.T) {
			rec := httptest.NewRecorder()
			mux.ServeHTTP(rec, httptest.NewRequest("POST", "/api/update", strings.NewReader(body)))
			if rec.Code != http.StatusBadRequest {
				t.Errorf("status = %d, want 400: %s", rec.Code, rec.Body.String())
			}
		})
	}
	rec := httptest.NewRecorder()
	big := `{"add_pois":[{"v":6,"categories":["` + strings.Repeat("x", 4<<20) + `"]}]}`
	mux.ServeHTTP(rec, httptest.NewRequest("POST", "/api/update", strings.NewReader(big)))
	if rec.Code != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized update status = %d, want 413: %s", rec.Code, rec.Body.String())
	}
}

func TestTimeDependentEndpoints(t *testing.T) {
	s, mux := testServer(t)

	// Attach a varying profile to a real edge via the update endpoint.
	ts, ws := s.eng.Neighbors(0)
	if len(ts) == 0 {
		t.Fatal("vertex 0 has no edges")
	}
	u, v, w := int32(0), ts[0], ws[0]
	period := s.eng.TimePeriod()
	body := strings.NewReader(
		`{"set_profiles":[{"u":` + itoa(u) + `,"v":` + itoa(v) +
			`,"times":[0,` + ftoa(period/2) + `],"costs":[` + ftoa(w) + `,` + ftoa(3*w) + `]}]}`)
	rec := httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest("POST", "/api/update", body))
	if rec.Code != http.StatusOK {
		t.Fatalf("set_profiles status = %d: %s", rec.Code, rec.Body.String())
	}
	var up map[string]any
	if err := json.Unmarshal(rec.Body.Bytes(), &up); err != nil {
		t.Fatal(err)
	}
	if up["profiles_set"].(float64) != 1 {
		t.Fatalf("profiles_set = %v", up["profiles_set"])
	}
	if !s.eng.HasTimeProfiles() {
		t.Fatal("engine has no profiles after update")
	}

	// depart flows through the route endpoint.
	for _, raw := range []string{"", "&depart=0", "&depart=" + ftoa(period/2)} {
		rec := httptest.NewRecorder()
		mux.ServeHTTP(rec, httptest.NewRequest("GET",
			"/api/route?start=0&via=Asian+Restaurant,Gift+Shop"+raw, nil))
		if rec.Code != http.StatusOK {
			t.Fatalf("route depart %q status = %d: %s", raw, rec.Code, rec.Body.String())
		}
	}
	rec = httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest("GET", "/api/route?start=0&via=Gift+Shop&depart=-3", nil))
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("negative depart accepted: %d", rec.Code)
	}

	// Per-query depart in a batch.
	rec = httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest("POST", "/api/batch", strings.NewReader(
		`{"queries":[{"start":0,"via":["Gift Shop"]},{"start":0,"via":["Gift Shop"],"depart":`+ftoa(period/2)+`}]}`)))
	if rec.Code != http.StatusOK {
		t.Fatalf("batch depart status = %d: %s", rec.Code, rec.Body.String())
	}
	rec = httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest("POST", "/api/batch", strings.NewReader(
		`{"queries":[{"start":0,"via":["Gift Shop"],"depart":-1}]}`)))
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("batch negative depart accepted: %d", rec.Code)
	}

	// Invalid profiles are rejected; clear_profiles detaches.
	rec = httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest("POST", "/api/update", strings.NewReader(
		`{"set_profiles":[{"u":`+itoa(u)+`,"v":`+itoa(v)+`,"times":[5,1],"costs":[1,1]}]}`)))
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("unsorted profile accepted: %d", rec.Code)
	}
	rec = httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest("POST", "/api/update", strings.NewReader(
		`{"clear_profiles":[{"u":`+itoa(u)+`,"v":`+itoa(v)+`}]}`)))
	if rec.Code != http.StatusOK {
		t.Fatalf("clear_profiles status = %d: %s", rec.Code, rec.Body.String())
	}
	if s.eng.HasTimeProfiles() {
		t.Fatal("profile survived clear_profiles")
	}
}

func itoa(v int32) string { return strconv.Itoa(int(v)) }

func ftoa(f float64) string { return strconv.FormatFloat(f, 'g', -1, 64) }

// TestQueryTimeout injects a per-m-Dijkstra-run delay and asks for a 1ms
// budget: the first checkpoint after the delay observes the expired
// deadline, the search unwinds through the cancellation seam, and the
// handler answers 504. The engine must stay fully usable afterwards.
func TestQueryTimeout(t *testing.T) {
	leakCheck(t)
	s, mux := testServer(t)
	restore := faults.Set(faults.MDijkstraRun, func(int64) { time.Sleep(5 * time.Millisecond) })
	defer restore()

	rec := httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest("GET",
		"/api/route?start=0&via=Asian+Restaurant,Arts+%26+Entertainment,Gift+Shop&timeout_ms=1", nil))
	if rec.Code != http.StatusGatewayTimeout {
		t.Fatalf("status = %d, want 504: %s", rec.Code, rec.Body.String())
	}
	if n := s.timeouts.Load(); n != 1 {
		t.Errorf("timeouts counter = %d, want 1", n)
	}

	// Batch-level timeout_ms behaves the same.
	rec = httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest("POST", "/api/batch", strings.NewReader(
		`{"timeout_ms":1,"queries":[{"start":0,"via":["Asian Restaurant","Arts & Entertainment","Gift Shop"]}]}`)))
	if rec.Code != http.StatusGatewayTimeout {
		t.Fatalf("batch status = %d, want 504: %s", rec.Code, rec.Body.String())
	}

	// With the fault gone, the same request succeeds and snapshots are clean.
	restore()
	rec = httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest("GET",
		"/api/route?start=0&via=Asian+Restaurant,Arts+%26+Entertainment,Gift+Shop", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("post-timeout status = %d: %s", rec.Code, rec.Body.String())
	}
	applyUpdate(t, mux)
	if n := s.eng.LiveSnapshots(); n != 1 {
		t.Errorf("live snapshots = %d, want 1 (timed-out queries must release their pins)", n)
	}
}

// TestPanicRecovery injects a panic into the search core and checks the
// middleware converts it into a JSON 500 without crashing the server or
// leaking the query's snapshot pin.
func TestPanicRecovery(t *testing.T) {
	leakCheck(t)
	s, mux := testServer(t)
	restore := faults.Set(faults.RoutePop, func(int64) { panic("injected fault") })
	defer restore()

	// A single-category query finishes in the initial expansion without
	// ever popping, so the multi-category query is the one that reaches
	// the RoutePop site.
	rec := httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest("GET",
		"/api/route?start=0&via=Asian+Restaurant,Arts+%26+Entertainment,Gift+Shop", nil))
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("status = %d, want 500: %s", rec.Code, rec.Body.String())
	}
	var out map[string]string
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
		t.Fatalf("500 body is not JSON: %v", err)
	}
	if n := s.panics.Load(); n != 1 {
		t.Errorf("panics counter = %d, want 1", n)
	}

	// Batch workers run on their own goroutines where middleware cannot
	// reach; SearchBatch itself converts the panic into a 400-path error.
	rec = httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest("POST", "/api/batch",
		strings.NewReader(`{"queries":[{"start":0,"via":["Asian Restaurant","Arts & Entertainment","Gift Shop"]}]}`)))
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("batch status = %d, want 400: %s", rec.Code, rec.Body.String())
	}
	if !strings.Contains(rec.Body.String(), "panicked") {
		t.Errorf("batch error body = %s, want a panic message", rec.Body.String())
	}

	restore()
	rec = httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest("GET", "/api/route?start=0&via=Gift+Shop", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("post-panic status = %d: %s", rec.Code, rec.Body.String())
	}
	applyUpdate(t, mux)
	if n := s.eng.LiveSnapshots(); n != 1 {
		t.Errorf("live snapshots = %d, want 1 (panicked queries must release their pins)", n)
	}
}

// TestAdmissionSaturation fills the single execution slot and the
// single-deep queue, then checks the next request is rejected immediately
// with 429 + Retry-After rather than queueing unboundedly.
func TestAdmissionSaturation(t *testing.T) {
	leakCheck(t)
	eng, _, _ := skysr.PaperExample()
	s := New(eng, Config{MaxConcurrent: 1, MaxQueue: 1})
	h := s.Handler()

	gate := make(chan struct{})
	entered := make(chan struct{}, 4)
	restore := faults.Set(faults.RoutePop, func(n int64) {
		if n == 1 {
			entered <- struct{}{}
			<-gate
		}
	})
	defer restore()
	defer close(gate)

	var wg sync.WaitGroup
	codes := make([]int, 2)
	firstDone := make(chan struct{})
	for i := range codes {
		if i == 1 {
			// The first request holds the slot before the second queues.
			select {
			case <-entered:
			case <-firstDone:
				t.Fatalf("first request answered %d without reaching the search", codes[0])
			case <-time.After(5 * time.Second):
				t.Fatal("first request neither reached the search nor answered")
			}
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if i == 0 {
				defer close(firstDone)
			}
			rec := httptest.NewRecorder()
			// The multi-category query reaches the RoutePop site (a
			// single-category one finishes in the initial expansion).
			h.ServeHTTP(rec, httptest.NewRequest("GET",
				"/api/route?start=0&via=Asian+Restaurant,Arts+%26+Entertainment,Gift+Shop", nil))
			codes[i] = rec.Code
		}(i)
	}

	// Wait for the second request to be counted as queued.
	deadline := time.Now().Add(5 * time.Second)
	for s.adm.queueDepth() != 1 {
		if time.Now().After(deadline) {
			t.Fatalf("second request never queued (depth = %d)", s.adm.queueDepth())
		}
		time.Sleep(time.Millisecond)
	}

	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/api/route?start=0&via=Gift+Shop", nil))
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("saturated status = %d, want 429: %s", rec.Code, rec.Body.String())
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Error("429 response missing Retry-After")
	}
	if n := s.rejected.Load(); n != 1 {
		t.Errorf("rejected counter = %d, want 1", n)
	}

	// The epoch endpoint bypasses admission and reports the saturation.
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/api/epoch", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("epoch status under load = %d", rec.Code)
	}
	var epochOut struct {
		Serving struct {
			InFlight      int64 `json:"in_flight"`
			QueueDepth    int64 `json:"queue_depth"`
			MaxConcurrent int   `json:"max_concurrent"`
			MaxQueue      int   `json:"max_queue"`
			Rejected      int64 `json:"rejected"`
		} `json:"serving"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &epochOut); err != nil {
		t.Fatal(err)
	}
	sv := epochOut.Serving
	if sv.InFlight != 1 || sv.QueueDepth != 1 || sv.MaxConcurrent != 1 || sv.MaxQueue != 1 || sv.Rejected != 1 {
		t.Errorf("serving block = %+v, want in_flight 1, queue_depth 1, caps 1/1, rejected 1", sv)
	}

	// Release the gate: both held requests complete successfully.
	close(entered)
	gate <- struct{}{} // wake the first request
	wg.Wait()
	for i, code := range codes {
		if code != http.StatusOK {
			t.Errorf("request %d status = %d, want 200", i, code)
		}
	}
}

// assertCancelAftermath checks what one cancelled request must leave
// behind on a server that keeps failure traces only: a single retained
// trace with status cancelled, nothing queued or running, and no snapshot
// pin.
func assertCancelAftermath(t *testing.T, s *Server, mux http.Handler) {
	t.Helper()
	if out := listTraces(t, mux, ""); len(out.Traces) != 1 || out.Traces[0].Status != "cancelled" {
		t.Errorf("traces = %+v, want one with status cancelled", out.Traces)
	}
	if depth, running := s.adm.queueDepth(), s.adm.inFlightCount(); depth != 0 || running != 0 {
		t.Errorf("queue depth %d, in flight %d after the cancel, want 0 and 0", depth, running)
	}
	applyUpdate(t, mux)
	if n := s.eng.LiveSnapshots(); n != 1 {
		t.Errorf("live snapshots = %d after an update, want 1 (a cancelled request must release its pin)", n)
	}
}

// applyUpdate moves the engine to a new version, retiring the one a
// failed request ran on unless that request still pins it.
func applyUpdate(t *testing.T, mux http.Handler) {
	t.Helper()
	rec := httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest("POST", "/api/update", strings.NewReader(`{"set_weights":[{"u":0,"v":1,"w":9}]}`)))
	if rec.Code != http.StatusOK {
		t.Fatalf("update status = %d: %s", rec.Code, rec.Body.String())
	}
}

// TestClientCancelMidSearch cancels a route request's context from inside
// its search, as a client that walks away mid-query does: the search
// unwinds through the cancellation seam and the handler answers 503.
func TestClientCancelMidSearch(t *testing.T) {
	leakCheck(t)
	s, mux := tracedServer(t, Config{SlowQuery: -1, TraceSample: -1})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	// The core checks the context right after this hook, so the search
	// stops at the start of its second m-Dijkstra run, the first having
	// done real work.
	restore := faults.Set(faults.MDijkstraRun, func(n int64) {
		if n == 2 {
			cancel()
		}
	})
	rec := httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest("GET", tracedRouteURL, nil).WithContext(ctx))
	restore()
	if rec.Code != http.StatusServiceUnavailable || !strings.Contains(rec.Body.String(), "query cancelled") {
		t.Fatalf("status = %d: %s, want 503 query cancelled", rec.Code, rec.Body.String())
	}
	assertCancelAftermath(t, s, mux)
}

// TestClientAbandonsQueue cancels a request while it waits in the
// admission queue behind one that holds the only execution slot: the
// waiter answers 503 without ever searching, and the holder still
// finishes with 200.
func TestClientAbandonsQueue(t *testing.T) {
	leakCheck(t)
	s, mux := tracedServer(t, Config{MaxConcurrent: 1, MaxQueue: 1, SlowQuery: -1, TraceSample: -1})
	entered, gate := make(chan struct{}), make(chan struct{})
	restore := faults.Set(faults.RoutePop, func(n int64) {
		if n == 1 {
			close(entered)
			<-gate
		}
	})
	defer restore()

	held := make(chan int, 1)
	go func() {
		rec := httptest.NewRecorder()
		mux.ServeHTTP(rec, httptest.NewRequest("GET", tracedRouteURL, nil))
		held <- rec.Code
	}()
	select {
	case <-entered:
	case code := <-held:
		t.Fatalf("the slot holder finished with %d without reaching the pop loop", code)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	queued := make(chan *httptest.ResponseRecorder, 1)
	go func() {
		rec := httptest.NewRecorder()
		mux.ServeHTTP(rec, httptest.NewRequest("GET", "/api/route?start=0&via=Gift+Shop", nil).WithContext(ctx))
		queued <- rec
	}()
	deadline := time.Now().Add(5 * time.Second)
	for s.adm.queueDepth() != 1 {
		if time.Now().After(deadline) {
			close(gate)
			t.Fatalf("second request never queued (depth = %d)", s.adm.queueDepth())
		}
		time.Sleep(time.Millisecond)
	}
	cancel()
	rec := <-queued
	if rec.Code != http.StatusServiceUnavailable || !strings.Contains(rec.Body.String(), "abandoned while queued") {
		t.Errorf("abandoned request: status %d: %s, want 503 abandoned while queued", rec.Code, rec.Body.String())
	}
	close(gate)
	if code := <-held; code != http.StatusOK {
		t.Errorf("slot holder status = %d, want 200", code)
	}
	restore()
	assertCancelAftermath(t, s, mux)
}

// TestDrainingRejectsHeavyEndpoints flips the draining flag and checks
// heavy endpoints answer 503 + Retry-After while monitoring stays up.
func TestDrainingRejectsHeavyEndpoints(t *testing.T) {
	s, mux := testServer(t)
	s.draining.Store(true)
	for _, req := range []*http.Request{
		httptest.NewRequest("GET", "/api/route?start=0&via=Gift+Shop", nil),
		httptest.NewRequest("POST", "/api/batch", strings.NewReader(`{"queries":[{"start":0,"via":["Gift Shop"]}]}`)),
		httptest.NewRequest("POST", "/api/update", strings.NewReader(`{"set_weights":[{"u":0,"v":1,"w":2}]}`)),
	} {
		rec := httptest.NewRecorder()
		mux.ServeHTTP(rec, req)
		if rec.Code != http.StatusServiceUnavailable {
			t.Errorf("%s %s status = %d, want 503", req.Method, req.URL.Path, rec.Code)
		}
		if rec.Header().Get("Retry-After") == "" {
			t.Errorf("%s %s missing Retry-After", req.Method, req.URL.Path)
		}
	}
	rec := httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest("GET", "/api/epoch", nil))
	if rec.Code != http.StatusOK {
		t.Errorf("epoch status while draining = %d, want 200", rec.Code)
	}
	var out struct {
		Serving struct {
			Draining bool `json:"draining"`
		} `json:"serving"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	if !out.Serving.Draining {
		t.Error("epoch endpoint does not report draining")
	}
}

// TestGracefulDrain runs the full lifecycle on a real listener: serve a
// request, cancel the lifecycle context, and check Serve drains and
// returns without leaking its goroutines.
func TestGracefulDrain(t *testing.T) {
	leakCheck(t)
	eng, _, _ := skysr.PaperExample()
	s := New(eng, Config{QueryTimeout: 5 * time.Second})

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- s.Serve(ctx, ln, HTTPConfig{DrainTimeout: 5 * time.Second}) }()

	url := "http://" + ln.Addr().String() + "/api/route?start=0&via=Gift+Shop"
	resp, err := http.Get(url)
	if err != nil {
		cancel()
		t.Fatalf("request against live server: %v", err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("live status = %d", resp.StatusCode)
	}
	http.DefaultClient.CloseIdleConnections()

	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Serve returned %v after drain, want nil", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Serve did not return after drain")
	}
	if !s.draining.Load() {
		t.Error("server not marked draining after shutdown")
	}
	if n := s.eng.LiveSnapshots(); n != 1 {
		t.Errorf("live snapshots after drain = %d, want 1", n)
	}
}
