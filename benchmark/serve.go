package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"

	"skysr"
	"skysr/internal/logx"
	"skysr/internal/serve"
	"skysr/internal/trace"
)

// httpTarget is the skysr-serve deployment under test: serve.New over the
// engine, on a loopback listener, with the tier's default admission and a
// 5 s query timeout, and a client limited to serveConns connections.
type httpTarget struct {
	hs     *http.Server
	base   string
	client *http.Client
	served chan error
}

// startServer starts the tier. traceAll keeps every request's trace in a
// ring of the given capacity; otherwise tracing runs at its 0.01 default.
func startServer(eng *skysr.Engine, traceAll bool, capacity int) (*httpTarget, error) {
	cfg := serve.Config{
		BaseOpts:     deployment(),
		QueryTimeout: 5 * time.Second,
		Logger:       logx.Discard(),
	}
	if traceAll {
		cfg.TraceSample, cfg.TraceCapacity = 1, capacity
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	h := &httpTarget{
		hs:     &http.Server{Handler: serve.New(eng, cfg).Handler(), ReadHeaderTimeout: 5 * time.Second},
		base:   "http://" + ln.Addr().String(),
		served: make(chan error, 1),
		client: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost:     serveConns,
			MaxIdleConnsPerHost: serveConns,
			DisableCompression:  true,
		}},
	}
	go func() { h.served <- h.hs.Serve(ln) }()
	return h, nil
}

// close shuts the server down and waits for it to stop serving.
func (h *httpTarget) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := h.hs.Shutdown(ctx)
	h.client.CloseIdleConnections()
	if serr := <-h.served; !errors.Is(serr, http.ErrServerClosed) {
		return serr
	}
	return err
}

// routeReply is the part of a /api/route response the benchmark reads.
type routeReply struct {
	ElapsedMS float64 `json:"elapsed_ms"`
	Routes    []struct {
		Length   float64 `json:"length"`
		Semantic float64 `json:"semantic"`
	} `json:"routes"`
}

func (h *httpTarget) get(path string, into any) error {
	resp, err := h.client.Get(h.base + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		_, _ = io.Copy(io.Discard, resp.Body) // drain so the connection is reused
		return fmt.Errorf("GET %s: status %d", strings.SplitN(path, "?", 2)[0], resp.StatusCode)
	}
	if into == nil {
		_, err = io.Copy(io.Discard, resp.Body)
		return err
	}
	return json.NewDecoder(resp.Body).Decode(into)
}

// routePath renders plan query i as a /api/route request.
func routePath(plan *Plan, i int) string {
	pq := plan.Queries[i%len(plan.Queries)]
	v := url.Values{}
	v.Set("start", strconv.Itoa(int(pq.Start)))
	v.Set("via", strings.Join(plan.Via[pq.Via], ","))
	if pq.HasDest {
		v.Set("dest", strconv.Itoa(int(pq.Dest)))
	}
	if pq.Unordered {
		v.Set("unordered", "1")
	}
	if pq.K > 0 {
		v.Set("k", strconv.Itoa(pq.K))
	}
	if pq.Depart > 0 {
		v.Set("depart", strconv.FormatFloat(pq.Depart, 'g', -1, 64))
	}
	return "/api/route?" + v.Encode()
}

// counters reads the tier's admission rejections and query timeouts from
// GET /metrics.
func (h *httpTarget) counters() (rejected, timeouts float64, err error) {
	resp, err := h.client.Get(h.base + "/metrics")
	if err != nil {
		return 0, 0, err
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		name, val, ok := strings.Cut(sc.Text(), " ")
		if !ok {
			continue
		}
		switch name {
		case "skysr_http_rejected_total":
			rejected, err = strconv.ParseFloat(val, 64)
		case "skysr_http_timeouts_total":
			timeouts, err = strconv.ParseFloat(val, 64)
		}
		if err != nil {
			return 0, 0, fmt.Errorf("parse /metrics %s: %w", name, err)
		}
	}
	return rejected, timeouts, sc.Err()
}

// serverTraces pulls every trace the flight recorder holds.
func (h *httpTarget) serverTraces() ([]trace.TraceJSON, error) {
	var list struct {
		Traces []trace.Summary `json:"traces"`
	}
	if err := h.get("/api/debug/traces", &list); err != nil {
		return nil, err
	}
	out := make([]trace.TraceJSON, 0, len(list.Traces))
	for _, s := range list.Traces {
		var t trace.TraceJSON
		if err := h.get("/api/debug/traces/"+s.ID, &t); err != nil {
			return nil, err
		}
		out = append(out, t)
	}
	return out, nil
}

// runServe drives serve-ordered over HTTP. The measured run is an open
// loop at serveRate for half the budget (the latency metrics, timed from
// each request's due time) and then a closed loop on serveConns
// connections (throughput). A replay (b.ops > 0) and the untraced half of
// a traced run use the closed loop only, so both sides of the tracing
// overhead ratio see the same load.
func runServe(c *child, eng *skysr.Engine, b budget, tr *tracer) (_ *pass, err error) {
	p := newPass()
	plan := c.in.Plan
	paths := make([]string, len(plan.Queries))
	for i := range paths {
		paths[i] = routePath(plan, i)
	}
	// A traced replay keeps every request's server trace, warm-up
	// included, as the client side does.
	capacity := 0
	if tr != nil {
		capacity = c.w.warmup + b.ops
	}
	h, err := startServer(eng, tr != nil, capacity)
	if err != nil {
		return nil, err
	}
	defer func() {
		if cerr := h.close(); cerr != nil && err == nil {
			err = fmt.Errorf("stop server: %w", cerr)
		}
	}()
	request := func(i int) (time.Duration, error) {
		span := tr.begin("http.request", nil)
		t0 := time.Now()
		var reply routeReply
		err := h.get(paths[i%len(paths)], &reply)
		d := time.Since(t0)
		tr.end(span)
		if err != nil {
			return d, err
		}
		p.serve.add(d, time.Duration(reply.ElapsedMS*float64(time.Millisecond)))
		return d, nil
	}
	p.warm(c.w.warmup, request)
	rej0, to0, err := h.counters()
	if err != nil {
		return nil, err
	}
	first := c.w.warmup
	if b.ops == 0 && !c.traceMode {
		// Open loop first: n requests due at a fixed rate, latency from due.
		n := max(b.minOps, int(serveRate*b.seconds/2))
		res := openLoop(realClock{}, serveRate, n, serveConns, func(j int) error {
			_, err := request(first + j)
			return err
		})
		for j := 0; j < n; j++ {
			p.record(res.Latency[j], res.Err[j])
		}
		p.lag = res.Lag
		first += n
		open := p.latency
		p.latency = nil
		p.measure(budget{seconds: b.seconds / 2, minOps: 20}, first, serveConns, request)
		p.ops += n
		p.latency = open
	} else {
		p.measure(b, first, serveConns, request)
	}
	rej1, to1, err := h.counters()
	if err != nil {
		return nil, err
	}
	p.serve.rejected, p.serve.timeouts = rej1-rej0, to1-to0
	if tr != nil {
		st, err := h.serverTraces()
		if err != nil {
			return nil, fmt.Errorf("pull server traces: %w", err)
		}
		tr.addServer(st)
	}
	if c.verify != nil {
		if err := c.verify("answers", c.in.Dataset, func(idx []int) ([][]point, error) {
			out := make([][]point, len(idx))
			for j, i := range idx {
				var reply routeReply
				if err := h.get(paths[i%len(paths)], &reply); err != nil {
					return nil, err
				}
				for _, r := range reply.Routes {
					out[j] = append(out[j], point{r.Length, r.Semantic})
				}
				sortPoints(out[j])
			}
			return out, nil
		}); err != nil {
			return nil, err
		}
	}
	return p, nil
}
