package resilience

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/telemetry"
)

// countHandler is a slog.Handler counting the records it receives.
type countHandler struct{ n *atomic.Int64 }

func (countHandler) Enabled(context.Context, slog.Level) bool    { return true }
func (h countHandler) Handle(context.Context, slog.Record) error { h.n.Add(1); return nil }
func (h countHandler) WithAttrs([]slog.Attr) slog.Handler        { return h }
func (h countHandler) WithGroup(string) slog.Handler             { return h }

func get(t *testing.T, url string) (*http.Response, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, string(body)
}

// A panicking handler gets a 500 and the server keeps serving.
func TestRecoverSurvivesPanic(t *testing.T) {
	st := NewStats()
	mux := http.NewServeMux()
	mux.HandleFunc("/boom", func(w http.ResponseWriter, r *http.Request) {
		panic("kaboom")
	})
	mux.HandleFunc("/ok", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, "fine")
	})
	var logged atomic.Int64
	h := Wrap(mux, Options{Stats: st, Logger: slog.New(countHandler{n: &logged})})
	ts := httptest.NewServer(h)
	defer ts.Close()

	resp, body := get(t, ts.URL+"/boom")
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("panic handler: status %d, body %q", resp.StatusCode, body)
	}
	var e map[string]string
	if err := json.Unmarshal([]byte(body), &e); err != nil || e["error"] == "" {
		t.Fatalf("panic response not a JSON error: %q", body)
	}
	// Server is still alive and serving.
	resp, body = get(t, ts.URL+"/ok")
	if resp.StatusCode != http.StatusOK || body != "fine" {
		t.Fatalf("server did not survive panic: %d %q", resp.StatusCode, body)
	}
	if n := st.Snapshot().Panics; n != 1 {
		t.Fatalf("panics counter = %d", n)
	}
	m := scrape(t, st)
	if m["rne_http_panics_total"] != 1 {
		t.Fatalf("rne_http_panics_total = %v", m["rne_http_panics_total"])
	}
	if m[`rne_http_requests_total{class="5xx"}`] != 1 || m[`rne_http_requests_total{class="2xx"}`] != 1 {
		t.Fatalf("status classes wrong: %v", m)
	}
	if logged.Load() == 0 {
		t.Fatal("panic was not logged")
	}
}

// Requests past the in-flight cap get 429 + Retry-After.
func TestLimiterShedsPastCap(t *testing.T) {
	st := NewStats()
	const cap = 4
	release := make(chan struct{})
	entered := make(chan struct{}, cap)
	slow := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		entered <- struct{}{}
		<-release
		w.WriteHeader(http.StatusOK)
	})
	h := Wrap(slow, Options{MaxInFlight: cap, RetryAfter: 2 * time.Second, Stats: st})
	ts := httptest.NewServer(h)
	defer ts.Close()

	var wg sync.WaitGroup
	for i := 0; i < cap; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Get(ts.URL)
			if err == nil {
				resp.Body.Close()
			}
		}()
	}
	// Wait until the cap is fully occupied.
	for i := 0; i < cap; i++ {
		select {
		case <-entered:
		case <-time.After(5 * time.Second):
			t.Fatal("handlers did not start")
		}
	}
	resp, body := get(t, ts.URL)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("saturated request: status %d body %q", resp.StatusCode, body)
	}
	if m := scrape(t, st); m["rne_http_in_flight_requests"] != cap || m["rne_http_requests_shed_total"] != 1 {
		t.Fatalf("in flight %v, shed %v: want %d and 1",
			m["rne_http_in_flight_requests"], m["rne_http_requests_shed_total"], cap)
	}
	// The hint is jittered ±20% around the configured 2s so shed
	// clients spread their retries instead of stampeding in lockstep.
	ra := resp.Header.Get("Retry-After")
	secs, err := strconv.ParseFloat(ra, 64)
	if err != nil || secs < 1.6-1e-9 || secs > 2.4+1e-9 {
		t.Fatalf("Retry-After = %q, want a number in [1.6, 2.4]", ra)
	}
	close(release)
	wg.Wait()
	if shed := st.Snapshot().Shed; shed != 1 {
		t.Fatalf("shed counter = %d", shed)
	}
}

// The deadline middleware turns an over-budget handler into a 503.
func TestTimeoutDeadline(t *testing.T) {
	stuck := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case <-r.Context().Done():
		case <-time.After(10 * time.Second):
		}
	})
	h := Wrap(stuck, Options{Timeout: 50 * time.Millisecond})
	ts := httptest.NewServer(h)
	defer ts.Close()
	resp, body := get(t, ts.URL)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d body %q", resp.StatusCode, body)
	}
}

// Graceful shutdown drains a slow in-flight request to completion.
func TestShutdownDrainsInFlight(t *testing.T) {
	started := make(chan struct{})
	slow := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		close(started)
		time.Sleep(300 * time.Millisecond)
		fmt.Fprint(w, "drained")
	})
	st := NewStats()
	srv := &http.Server{Handler: Wrap(slow, Options{Stats: st})}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)

	type result struct {
		status int
		body   string
		err    error
	}
	resCh := make(chan result, 1)
	go func() {
		resp, err := http.Get("http://" + ln.Addr().String())
		if err != nil {
			resCh <- result{err: err}
			return
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		resCh <- result{status: resp.StatusCode, body: string(b)}
	}()

	<-started
	shutdownDone := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		shutdownDone <- srv.Shutdown(ctx)
	}()

	res := <-resCh
	if res.err != nil {
		t.Fatalf("in-flight request failed during shutdown: %v", res.err)
	}
	if res.status != http.StatusOK || res.body != "drained" {
		t.Fatalf("in-flight request not drained: %d %q", res.status, res.body)
	}
	if err := <-shutdownDone; err != nil {
		t.Fatalf("shutdown: %v", err)
	}
}

// With the static cap full, health, metrics and admin requests still
// run and a data request is shed.
func TestStaticCapAdmitsCriticalRoutes(t *testing.T) {
	release := make(chan struct{})
	entered := make(chan struct{})
	mux := http.NewServeMux()
	mux.HandleFunc("/hold", func(w http.ResponseWriter, r *http.Request) {
		close(entered)
		<-release
	})
	ok := func(w http.ResponseWriter, r *http.Request) {}
	for _, path := range []string{"/healthz", "/readyz", "/metrics", "/admin/reload", "/distance"} {
		mux.HandleFunc(path, ok)
	}
	h := Wrap(mux, Options{MaxInFlight: 1})
	ts := httptest.NewServer(h)
	defer ts.Close()
	held := make(chan struct{})
	go func() {
		defer close(held)
		if resp, err := http.Get(ts.URL + "/hold"); err == nil {
			resp.Body.Close()
		}
	}()
	<-entered
	for _, c := range []struct {
		method, path string
		want         int
	}{
		{http.MethodGet, "/healthz", http.StatusOK},
		{http.MethodGet, "/readyz", http.StatusOK},
		{http.MethodGet, "/metrics", http.StatusOK},
		{http.MethodPost, "/admin/reload", http.StatusOK},
		{http.MethodGet, "/distance", http.StatusTooManyRequests},
	} {
		req, _ := http.NewRequest(c.method, ts.URL+c.path, nil)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Errorf("%s %s: %v", c.method, c.path, err)
			continue
		}
		resp.Body.Close()
		if resp.StatusCode != c.want {
			t.Errorf("%s %s with the cap full: status %d, want %d", c.method, c.path, resp.StatusCode, c.want)
		}
	}
	// The critical requests took no slot and gave none back: the held
	// request still holds the only one.
	if n := len(h.(*pass).sem); n != 1 {
		t.Errorf("%d slots taken while only the held request holds one", n)
	}
	close(release)
	<-held
}

// scrape reads st's series as a /metrics client does.
func scrape(t *testing.T, st *Stats) map[string]float64 {
	t.Helper()
	rec := httptest.NewRecorder()
	st.Registry().Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	m, err := telemetry.ParseExposition(rec.Body)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// Counters stay consistent under concurrent load (run with -race).
func TestStatsConcurrent(t *testing.T) {
	st := NewStats()
	ok := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
	})
	h := Wrap(ok, Options{Stats: st, MaxInFlight: 64})
	ts := httptest.NewServer(h)
	defer ts.Close()

	const workers, per = 8, 25
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				resp, err := http.Get(ts.URL)
				if err == nil {
					io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
				}
			}
		}()
	}
	wg.Wait()
	if snap := st.Snapshot(); snap.Requests != workers*per || snap.InFlight != 0 {
		t.Fatalf("snapshot %+v, want %d requests and none in flight", snap, workers*per)
	}
	m := scrape(t, st)
	for key, want := range map[string]float64{
		"rne_http_request_duration_seconds_count": workers * per,
		`rne_http_requests_total{class="2xx"}`:    workers * per,
		"rne_http_in_flight_requests":             0,
	} {
		if m[key] != want {
			t.Fatalf("%s = %v, want %v", key, m[key], want)
		}
	}
	if mean := m["rne_http_request_duration_seconds_sum"] / m["rne_http_request_duration_seconds_count"]; !(mean > 0) {
		t.Fatalf("mean latency %v", mean)
	}
	if m["rne_uptime_seconds"] <= 0 {
		t.Fatalf("uptime %v", m["rne_uptime_seconds"])
	}
}

func TestRequestIDMintsAndEchoes(t *testing.T) {
	var seen string
	h := Wrap(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		seen = telemetry.RequestIDFrom(r.Context())
	}), Options{})
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/", nil))
	id := rec.Header().Get(telemetry.RequestIDHeader)
	if id == "" || id != seen {
		t.Fatalf("header %q, context %q: want one fresh ID in both", id, seen)
	}
}

func TestRequestIDPropagatesClientID(t *testing.T) {
	var seen string
	h := Wrap(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		seen = telemetry.RequestIDFrom(r.Context())
	}), Options{})
	req := httptest.NewRequest("GET", "/", nil)
	req.Header.Set(telemetry.RequestIDHeader, "upstream-42.a_b")
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if seen != "upstream-42.a_b" || rec.Header().Get(telemetry.RequestIDHeader) != seen {
		t.Fatalf("client ID not propagated: context %q header %q", seen, rec.Header().Get(telemetry.RequestIDHeader))
	}
}

// Hostile header values are replaced, not echoed: no log injection.
func TestRequestIDSanitizesHostileValues(t *testing.T) {
	for _, bad := range []string{
		"evil\nX-Injected: 1", "spaces here", strings.Repeat("a", 65), "quote\"",
	} {
		h := Wrap(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}), Options{})
		req := httptest.NewRequest("GET", "/", nil)
		req.Header["X-Request-Id"] = []string{bad}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if got := rec.Header().Get(telemetry.RequestIDHeader); got == bad || got == "" {
			t.Fatalf("hostile ID %q handled as %q, want fresh replacement", bad, got)
		}
	}
}

func readSpans(t *testing.T, path string) []telemetry.SpanRecord {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var out []telemetry.SpanRecord
	for _, line := range bytes.Split(raw, []byte("\n")) {
		if len(line) == 0 {
			continue
		}
		var rec telemetry.SpanRecord
		if err := json.Unmarshal(line, &rec); err != nil {
			t.Fatalf("bad span line %q: %v", line, err)
		}
		out = append(out, rec)
	}
	return out
}

// With a tracer, every request gets a handler span that continues the
// caller's trace and carries the request ID and status, plus an
// admission child span inside it.
func TestWrapTracesHandlerSpan(t *testing.T) {
	path := filepath.Join(t.TempDir(), "spans.jsonl")
	tr, err := telemetry.NewRequestTracer(telemetry.TraceConfig{Path: path, Service: "server"})
	if err != nil {
		t.Fatal(err)
	}
	inner := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		// The handler sees the span and can hang children off it.
		span := telemetry.SpanFromContext(r.Context())
		if span == nil {
			t.Error("no span in handler context")
		}
		span.Event("shed", "test detail")
		w.WriteHeader(http.StatusTeapot)
	})
	srv := httptest.NewServer(Wrap(inner, Options{Tracer: tr}))
	defer srv.Close()

	req, _ := http.NewRequest(http.MethodGet, srv.URL+"/distance", nil)
	remote := telemetry.SpanContext{
		TraceID: [16]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16},
		SpanID:  [8]byte{1, 2, 3, 4, 5, 6, 7, 8},
		Sampled: true,
	}
	telemetry.InjectTraceParent(req.Header, remote)
	req.Header.Set(telemetry.RequestIDHeader, "req-42")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	tr.Close()

	spans := readSpans(t, path)
	if len(spans) != 2 {
		t.Fatalf("wrote %d spans, want handler + admission", len(spans))
	}
	var handler, admission *telemetry.SpanRecord
	for i := range spans {
		switch spans[i].Name {
		case "GET /distance":
			handler = &spans[i]
		case "admission":
			admission = &spans[i]
		}
	}
	if handler == nil || admission == nil {
		t.Fatalf("missing spans: %+v", spans)
	}
	if handler.TraceID != remote.TraceIDString() || handler.ParentID != remote.SpanIDString() {
		t.Fatalf("inbound traceparent not honored: %+v", handler)
	}
	if handler.Attrs["request_id"] != "req-42" || handler.HTTPStatus != http.StatusTeapot {
		t.Fatalf("handler span incomplete: %+v", handler)
	}
	if len(handler.Events) != 1 || handler.Events[0].Name != "shed" {
		t.Fatalf("span event lost: %+v", handler.Events)
	}
	if admission.ParentID != handler.SpanID {
		t.Fatalf("admission span not a child of the handler span")
	}
	if admission.DurationUS > handler.DurationUS {
		t.Fatalf("admission (%v) longer than handler (%v)", admission.DurationUS, handler.DurationUS)
	}
}

// Without a tracer the handler's context carries no span, and marking
// admission on the missing span is safe.
func TestWrapUntracedPlantsNoSpan(t *testing.T) {
	inner := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		span := telemetry.SpanFromContext(r.Context())
		if span != nil {
			t.Error("untraced request carries a span")
		}
		span.MarkAdmitted()
		fmt.Fprint(w, "ok")
	})
	srv := httptest.NewServer(Wrap(inner, Options{}))
	defer srv.Close()
	resp, err := http.Get(srv.URL)
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("untraced serving broken: %v %v", resp, err)
	}
	resp.Body.Close()
}

// BenchmarkWrap is the serving pass alone, around a handler that does
// nothing, with the default options and a Stats, as the replicas run it.
func BenchmarkWrap(b *testing.B) {
	h := Wrap(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}), Options{Stats: NewStats()})
	req := httptest.NewRequest(http.MethodGet, "/distance?s=1&t=2", nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.ServeHTTP(httptest.NewRecorder(), req)
	}
}
