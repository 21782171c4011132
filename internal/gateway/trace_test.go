package gateway

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/telemetry"
)

// headerLog records what one stub backend saw per request, so tests
// can assert on propagated correlation headers.
type headerLog struct {
	mu   sync.Mutex
	reqs []http.Header
}

func (l *headerLog) add(h http.Header) {
	l.mu.Lock()
	l.reqs = append(l.reqs, h.Clone())
	l.mu.Unlock()
}

func (l *headerLog) all() []http.Header {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]http.Header(nil), l.reqs...)
}

// stubBackend is an httptest server standing in for a replica, with a
// scripted /distance and /batch behavior.
func stubBackend(t *testing.T, handler http.HandlerFunc) (*httptest.Server, *headerLog) {
	t.Helper()
	log := &headerLog{}
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/readyz" {
			w.WriteHeader(http.StatusOK)
			return
		}
		log.add(r.Header)
		handler(w, r)
	}))
	t.Cleanup(ts.Close)
	return ts, log
}

func okDistance(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	fmt.Fprint(w, `{"distance": 1.5}`)
}

// okBatch answers any batch with zeros of the right length.
func okBatch(w http.ResponseWriter, r *http.Request) {
	ss, _, err := decodeBatch(r)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(map[string]any{"distances": make([]float64, len(ss))})
}

func readSpans(t *testing.T, path string) []telemetry.SpanRecord {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var out []telemetry.SpanRecord
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var rec telemetry.SpanRecord
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			t.Fatalf("bad span line: %v", err)
		}
		out = append(out, rec)
	}
	return out
}

// waitSpans polls until the tracer has persisted at least n spans —
// hedge losers and canceled legs close asynchronously.
func waitSpans(t *testing.T, gw *Gateway, n int64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for gw.Tracer().Written() < n {
		if time.Now().After(deadline) {
			t.Fatalf("only %d spans written, want >= %d", gw.Tracer().Written(), n)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// srcOwnedBy finds a source vertex whose ring owner is the given
// backend id, so tests can steer which replica a request lands on.
func srcOwnedBy(t *testing.T, gw *Gateway, id string) int32 {
	t.Helper()
	for src := int32(0); src < 4096; src++ {
		if b := gw.pick(src, nil); b != nil && b.id == id {
			return src
		}
	}
	t.Fatalf("no vertex in [0,4096) routes to backend %s", id)
	return 0
}

func spansNamed(spans []telemetry.SpanRecord, name string) []telemetry.SpanRecord {
	var out []telemetry.SpanRecord
	for _, s := range spans {
		if s.Name == name {
			out = append(out, s)
		}
	}
	return out
}

func hostOf(u string) string {
	return u[len("http://"):]
}

// A hedged /distance must leave both attempt spans in the trace — the
// winner with its status, the loser closed with its cancellation —
// all under one root whose trace the client could look up.
func TestHedgeLoserSpanStillClosed(t *testing.T) {
	slowRelease := make(chan struct{})
	t.Cleanup(func() { close(slowRelease) })
	slow, _ := stubBackend(t, func(w http.ResponseWriter, r *http.Request) {
		select {
		case <-r.Context().Done(): // loser: canceled once the hedge wins
		case <-slowRelease:
		}
	})
	fast, _ := stubBackend(t, okDistance)

	spanPath := filepath.Join(t.TempDir(), "gw.spans.jsonl")
	gw := newGateway(t, Config{
		Backends:       []string{slow.URL, fast.URL},
		HealthInterval: time.Hour,
		Hedge:          true,
		HedgeMinDelay:  time.Millisecond,
		HedgeMaxDelay:  5 * time.Millisecond, // cold start: hedge fires fast
		Trace:          telemetry.TraceConfig{Path: spanPath},
	})
	ts := httptest.NewServer(gw.Handler())
	defer ts.Close()

	src := srcOwnedBy(t, gw, hostOf(slow.URL)) // primary = the slow one
	resp, err := http.Get(fmt.Sprintf("%s/distance?s=%d&t=1", ts.URL, src))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("hedged distance status %d", resp.StatusCode)
	}

	// handler + admission + 2 attempts; the loser closes after the
	// handler returned, so wait rather than read immediately.
	waitSpans(t, gw, 4)
	gw.Close()
	spans := readSpans(t, spanPath)

	roots := spansNamed(spans, "GET /distance")
	if len(roots) != 1 {
		t.Fatalf("want one root span, got %d", len(roots))
	}
	root := roots[0]
	attempts := spansNamed(spans, "backend /distance")
	if len(attempts) != 2 {
		t.Fatalf("want two attempt spans (winner + loser), got %d", len(attempts))
	}
	kinds := map[string]telemetry.SpanRecord{}
	for _, a := range attempts {
		if a.TraceID != root.TraceID || a.ParentID != root.SpanID {
			t.Fatalf("attempt span not parented under the root: %+v", a)
		}
		kinds[a.Attrs["kind"]] = a
	}
	primary, okP := kinds["primary"]
	hedge, okH := kinds["hedge"]
	if !okP || !okH {
		t.Fatalf("attempt kinds wrong: %v", kinds)
	}
	if primary.Attrs["backend"] != hostOf(slow.URL) || hedge.Attrs["backend"] != hostOf(fast.URL) {
		t.Fatalf("backend attribution wrong: primary=%q hedge=%q",
			primary.Attrs["backend"], hedge.Attrs["backend"])
	}
	// The loser was canceled mid-call: closed with an error, never
	// leaked open.
	if primary.Error == "" {
		t.Fatalf("loser span has no error: %+v", primary)
	}
	if hedge.HTTPStatus != http.StatusOK {
		t.Fatalf("winner span status %d", hedge.HTTPStatus)
	}
}

// A 206 partial /batch must carry the failed shard's attempt span with
// its error, and the root span must be annotated with the degradation.
func TestPartialBatchFailedShardSpan(t *testing.T) {
	bad, _ := stubBackend(t, func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "shard broken", http.StatusInternalServerError)
	})
	good, _ := stubBackend(t, okBatch)

	spanPath := filepath.Join(t.TempDir(), "gw.spans.jsonl")
	gw := newGateway(t, Config{
		Backends:       []string{bad.URL, good.URL},
		HealthInterval: time.Hour,
		RetryBudget:    -1, // no retry: the failed shard degrades immediately
		Trace:          telemetry.TraceConfig{Path: spanPath},
	})
	ts := httptest.NewServer(gw.Handler())
	defer ts.Close()

	srcBad := srcOwnedBy(t, gw, hostOf(bad.URL))
	srcGood := srcOwnedBy(t, gw, hostOf(good.URL))
	resp, out := postBatch(t, ts, batchBody([][2]int32{{srcBad, 1}, {srcGood, 2}}))
	if resp.StatusCode != http.StatusPartialContent || out["partial"] != true {
		t.Fatalf("want 206 partial, got %d %v", resp.StatusCode, out)
	}

	waitSpans(t, gw, 4)
	gw.Close()
	spans := readSpans(t, spanPath)

	roots := spansNamed(spans, "POST /batch")
	if len(roots) != 1 {
		t.Fatalf("want one root span, got %d", len(roots))
	}
	root := roots[0]
	if root.Attrs["pair_errors"] != "1" {
		t.Fatalf("root span not annotated with pair_errors: %+v", root)
	}
	partialEvent := false
	for _, e := range root.Events {
		if e.Name == "partial" {
			partialEvent = true
		}
	}
	if !partialEvent {
		t.Fatalf("root span lacks the partial event: %+v", root.Events)
	}
	var failed, served int
	for _, a := range spansNamed(spans, "backend /batch") {
		if a.ParentID != root.SpanID {
			t.Fatalf("shard attempt not parented under the root: %+v", a)
		}
		if a.Attrs["kind"] != "shard" {
			t.Fatalf("attempt kind %q, want shard", a.Attrs["kind"])
		}
		if a.Error != "" {
			failed++
		} else if a.HTTPStatus == http.StatusOK {
			served++
		}
	}
	if failed != 1 || served != 1 {
		t.Fatalf("want 1 failed + 1 served shard span, got failed=%d served=%d", failed, served)
	}
}

// A client cancel mid-retry must close every span that was opened:
// the failed primary, the in-flight retry, and the root.
func TestClientCancelMidRetrySpansClosed(t *testing.T) {
	failFast, _ := stubBackend(t, func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "boom", http.StatusInternalServerError)
	})
	retryEntered := make(chan struct{}, 1)
	hang, _ := stubBackend(t, func(w http.ResponseWriter, r *http.Request) {
		select {
		case retryEntered <- struct{}{}:
		default:
		}
		<-r.Context().Done()
	})

	spanPath := filepath.Join(t.TempDir(), "gw.spans.jsonl")
	gw := newGateway(t, Config{
		Backends:       []string{failFast.URL, hang.URL},
		HealthInterval: time.Hour,
		Trace:          telemetry.TraceConfig{Path: spanPath},
	})
	ts := httptest.NewServer(gw.Handler())
	defer ts.Close()

	src := srcOwnedBy(t, gw, hostOf(failFast.URL)) // primary fails, retry hangs
	ctx, cancel := context.WithCancel(context.Background())
	req, _ := http.NewRequestWithContext(ctx,
		http.MethodGet, fmt.Sprintf("%s/distance?s=%d&t=1", ts.URL, src), nil)
	done := make(chan error, 1)
	go func() {
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			resp.Body.Close()
		}
		done <- err
	}()
	select {
	case <-retryEntered: // the retry leg is in flight on the hanging backend
	case <-time.After(5 * time.Second):
		t.Fatal("retry never reached the second backend")
	}
	cancel()
	if err := <-done; err == nil {
		t.Fatal("canceled request unexpectedly succeeded")
	}

	// Root + admission + primary attempt + retry attempt, all closed.
	waitSpans(t, gw, 4)
	gw.Close()
	spans := readSpans(t, spanPath)
	attempts := spansNamed(spans, "backend /distance")
	if len(attempts) != 2 {
		t.Fatalf("want 2 attempt spans, got %d", len(attempts))
	}
	kinds := map[string]telemetry.SpanRecord{}
	for _, a := range attempts {
		kinds[a.Attrs["kind"]] = a
	}
	if kinds["primary"].Error == "" {
		t.Fatalf("failed primary span lacks its error: %+v", kinds["primary"])
	}
	if kinds["retry"].Error == "" {
		t.Fatalf("canceled retry span lacks its error: %+v", kinds["retry"])
	}
	if len(spansNamed(spans, "GET /distance")) != 1 {
		t.Fatal("root span missing")
	}
}

// The gateway's request ID must ride every leg — primary and retry —
// and the retry must be marked with the attempt header. This holds
// with tracing disabled: correlation is not a tracing feature.
func TestRequestIDAndAttemptHeaderOnEveryLeg(t *testing.T) {
	bad, badLog := stubBackend(t, func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "boom", http.StatusInternalServerError)
	})
	good, goodLog := stubBackend(t, okDistance)

	gw := newGateway(t, Config{ // note: no Trace config
		Backends:       []string{bad.URL, good.URL},
		HealthInterval: time.Hour,
	})
	ts := httptest.NewServer(gw.Handler())
	defer ts.Close()

	src := srcOwnedBy(t, gw, hostOf(bad.URL))
	req, _ := http.NewRequest(http.MethodGet,
		fmt.Sprintf("%s/distance?s=%d&t=1", ts.URL, src), nil)
	req.Header.Set(telemetry.RequestIDHeader, "corr-1")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("retried distance status %d", resp.StatusCode)
	}

	badSaw, goodSaw := badLog.all(), goodLog.all()
	if len(badSaw) != 1 || len(goodSaw) != 1 {
		t.Fatalf("legs wrong: primary saw %d, retry saw %d", len(badSaw), len(goodSaw))
	}
	if got := badSaw[0].Get(telemetry.RequestIDHeader); got != "corr-1" {
		t.Fatalf("primary leg request id %q", got)
	}
	if got := goodSaw[0].Get(telemetry.RequestIDHeader); got != "corr-1" {
		t.Fatalf("retry leg request id %q", got)
	}
	if got := badSaw[0].Get(telemetry.AttemptHeader); got != "" {
		t.Fatalf("primary leg marked as attempt %q", got)
	}
	if got := goodSaw[0].Get(telemetry.AttemptHeader); got != "retry" {
		t.Fatalf("retry leg attempt header %q, want retry", got)
	}
	// No tracing configured: nothing must be injected.
	if got := badSaw[0].Get(telemetry.TraceParentHeader); got != "" {
		t.Fatalf("traceparent %q injected with tracing off", got)
	}
}

// With tracing on, each leg carries a distinct traceparent (its own
// attempt span) within the same trace.
func TestTraceParentDistinctPerLeg(t *testing.T) {
	bad, badLog := stubBackend(t, func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "boom", http.StatusInternalServerError)
	})
	good, goodLog := stubBackend(t, okDistance)

	spanPath := filepath.Join(t.TempDir(), "gw.spans.jsonl")
	gw := newGateway(t, Config{
		Backends:       []string{bad.URL, good.URL},
		HealthInterval: time.Hour,
		Trace:          telemetry.TraceConfig{Path: spanPath},
	})
	ts := httptest.NewServer(gw.Handler())
	defer ts.Close()

	src := srcOwnedBy(t, gw, hostOf(bad.URL))
	resp, err := http.Get(fmt.Sprintf("%s/distance?s=%d&t=1", ts.URL, src))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	p1, ok1 := telemetry.ExtractTraceParent(badLog.all()[0])
	p2, ok2 := telemetry.ExtractTraceParent(goodLog.all()[0])
	if !ok1 || !ok2 {
		t.Fatal("a leg is missing its traceparent")
	}
	if p1.TraceID != p2.TraceID {
		t.Fatal("legs carry different trace IDs")
	}
	if p1.SpanID == p2.SpanID {
		t.Fatal("legs share a span ID: attempts are not distinct spans")
	}
	if !p1.Sampled || !p2.Sampled {
		t.Fatal("sampled flag not propagated")
	}
}
