package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/index"
	"repro/internal/telemetry"
)

func newTestServer(t *testing.T, withIndex bool) (*httptest.Server, *core.Model) {
	t.Helper()
	g, err := gen.Grid(10, 10, gen.DefaultConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	opt := core.DefaultOptions(1)
	opt.Dim = 16
	opt.Epochs = 3
	opt.VertexSampleRatio = 20
	opt.FineTuneRounds = 1
	opt.HierSampleCap = 5000
	opt.ValidationPairs = 100
	m, _, err := core.Build(g, opt)
	if err != nil {
		t.Fatal(err)
	}
	var idx *index.Tree
	if withIndex {
		targets := make([]int32, 0, g.NumVertices()/2)
		for v := int32(0); v < int32(g.NumVertices()); v += 2 {
			targets = append(targets, v)
		}
		idx, err = index.Build(m, targets)
		if err != nil {
			t.Fatal(err)
		}
	}
	srv, err := New(m, idx)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return ts, m
}

func getJSON(t *testing.T, url string, wantStatus int) map[string]any {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != wantStatus {
		t.Fatalf("GET %s: status %d, want %d", url, resp.StatusCode, wantStatus)
	}
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return out
}

// scrapeMetrics reads base's /metrics through the exposition parser.
func scrapeMetrics(t *testing.T, base string) map[string]float64 {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	m, err := telemetry.ParseExposition(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestHealth(t *testing.T) {
	ts, m := newTestServer(t, true)
	out := getJSON(t, ts.URL+"/healthz", http.StatusOK)
	if out["status"] != "ok" {
		t.Fatalf("health: %v", out)
	}
	if int(out["vertices"].(float64)) != m.NumVertices() {
		t.Fatal("vertex count wrong")
	}
	if int(out["dim"].(float64)) != m.Dim() {
		t.Fatal("dim wrong")
	}
	if want := m.Hierarchy().MaxDepth() + 1; int(out["levels"].(float64)) != want {
		t.Fatalf("levels = %v, want %d", out["levels"], want)
	}
	if out["spatial"] != true {
		t.Fatal("spatial flag wrong")
	}
	if out["guard"] != false {
		t.Fatal("guard flag wrong")
	}
	if _, ok := out["compact"]; ok {
		t.Fatalf("health still reports the removed compact flag: %v", out)
	}
}

func TestDistanceEndpoint(t *testing.T) {
	ts, m := newTestServer(t, false)
	out := getJSON(t, ts.URL+"/distance?s=3&t=42", http.StatusOK)
	want := m.Estimate(3, 42)
	if got := out["distance"].(float64); math.Abs(got-want) > 1e-9 {
		t.Fatalf("distance %v, want %v", got, want)
	}
	// Error cases.
	getJSON(t, ts.URL+"/distance?s=3", http.StatusBadRequest)
	getJSON(t, ts.URL+"/distance?s=abc&t=1", http.StatusBadRequest)
	getJSON(t, ts.URL+fmt.Sprintf("/distance?s=%d&t=1", m.NumVertices()), http.StatusBadRequest)
}

func TestBatchEndpoint(t *testing.T) {
	ts, m := newTestServer(t, false)
	body, _ := json.Marshal(map[string]any{"pairs": [][2]int32{{0, 1}, {2, 3}, {4, 5}}})
	resp, err := http.Post(ts.URL+"/batch", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch status %d", resp.StatusCode)
	}
	var out struct {
		Distances []float64 `json:"distances"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if len(out.Distances) != 3 {
		t.Fatalf("got %d distances", len(out.Distances))
	}
	for i, p := range [][2]int32{{0, 1}, {2, 3}, {4, 5}} {
		if want := m.Estimate(p[0], p[1]); math.Abs(out.Distances[i]-want) > 1e-9 {
			t.Fatalf("pair %d: %v vs %v", i, out.Distances[i], want)
		}
	}

	// Error cases: bad JSON, empty batch, out-of-range vertex.
	for _, bad := range []string{`{`, `{"pairs":[]}`, `{"pairs":[[0,99999]]}`} {
		resp, err := http.Post(ts.URL+"/batch", "application/json", bytes.NewReader([]byte(bad)))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("bad batch %q: status %d", bad, resp.StatusCode)
		}
	}
}

func TestKNNAndRangeEndpoints(t *testing.T) {
	ts, m := newTestServer(t, true)
	out := getJSON(t, ts.URL+"/knn?s=1&k=3", http.StatusOK)
	targets := out["targets"].([]any)
	if len(targets) != 3 {
		t.Fatalf("knn returned %d targets", len(targets))
	}
	dists := out["distances"].([]any)
	prev := -1.0
	for _, d := range dists {
		if d.(float64) < prev {
			t.Fatal("knn distances not sorted")
		}
		prev = d.(float64)
	}

	tau := m.Scale() * 0.2
	out = getJSON(t, fmt.Sprintf("%s/range?s=1&tau=%f", ts.URL, tau), http.StatusOK)
	for _, v := range out["targets"].([]any) {
		if m.Estimate(1, int32(v.(float64))) > tau {
			t.Fatal("range result outside tau")
		}
	}

	// Error cases.
	getJSON(t, ts.URL+"/knn?s=1&k=0", http.StatusBadRequest)
	getJSON(t, ts.URL+"/knn?s=1&k=100000", http.StatusBadRequest)
	getJSON(t, ts.URL+"/range?s=1&tau=-5", http.StatusBadRequest)
	getJSON(t, ts.URL+"/range?s=1", http.StatusBadRequest)
}

func TestSpatialEndpointsWithoutIndex(t *testing.T) {
	ts, _ := newTestServer(t, false)
	getJSON(t, ts.URL+"/knn?s=1&k=3", http.StatusNotImplemented)
	getJSON(t, ts.URL+"/range?s=1&tau=10", http.StatusNotImplemented)
}

func TestConcurrentRequests(t *testing.T) {
	ts, _ := newTestServer(t, true)
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				resp, err := http.Get(fmt.Sprintf("%s/distance?s=%d&t=%d", ts.URL, w*3, i*7))
				if err != nil {
					errs <- err
					return
				}
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					errs <- fmt.Errorf("status %d", resp.StatusCode)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(nil, nil); err == nil {
		t.Fatal("nil model accepted")
	}
}

func TestReadyzReadyAndDegraded(t *testing.T) {
	ts, m := newTestServer(t, true)
	out := getJSON(t, ts.URL+"/readyz", http.StatusOK)
	if out["status"] != "ready" {
		t.Fatalf("with index: %v", out)
	}
	meta, ok := out["model"].(map[string]any)
	if !ok {
		t.Fatalf("readyz has no model metadata: %v", out)
	}
	if int(meta["vertices"].(float64)) != m.NumVertices() || int(meta["dim"].(float64)) != m.Dim() {
		t.Fatalf("readyz model metadata wrong: %v", meta)
	}

	ts2, _ := newTestServer(t, false)
	out = getJSON(t, ts2.URL+"/readyz", http.StatusOK)
	if out["status"] != "degraded" {
		t.Fatalf("without index: %v", out)
	}
	if reasons, ok := out["degraded"].([]any); !ok || len(reasons) == 0 {
		t.Fatalf("degraded reasons missing: %v", out)
	}
	if _, ok := out["model"].(map[string]any); !ok {
		t.Fatalf("degraded readyz has no model metadata: %v", out)
	}
}

// /metrics counts requests by status class and route; an unguarded
// server exports no guard series.
func TestMetricsCountRequests(t *testing.T) {
	ts, _ := newTestServer(t, false)
	getJSON(t, ts.URL+"/distance?s=1&t=2", http.StatusOK)
	getJSON(t, ts.URL+"/distance?s=-9&t=2", http.StatusBadRequest)
	m := scrapeMetrics(t, ts.URL)
	for key, want := range map[string]float64{
		"rne_http_request_duration_seconds_count":                  2,
		`rne_http_requests_total{class="2xx"}`:                     1,
		`rne_http_requests_total{class="4xx"}`:                     1,
		`rne_http_route_duration_seconds_count{route="/distance"}`: 2,
		"rne_http_in_flight_requests":                              1, // the scrape itself
	} {
		if m[key] != want {
			t.Fatalf("%s = %v, want %v", key, m[key], want)
		}
	}
	for key := range m {
		if strings.HasPrefix(key, "rne_guard_") {
			t.Fatalf("unguarded server exports %s", key)
		}
	}
}

func TestBatchBodyTooLargeGets413(t *testing.T) {
	g, err := gen.Grid(6, 6, gen.DefaultConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	opt := core.DefaultOptions(2)
	opt.Dim = 8
	opt.Epochs = 1
	opt.VertexSampleRatio = 5
	opt.FineTuneRounds = 1
	opt.HierSampleCap = 1000
	opt.ValidationPairs = 50
	m, _, err := core.Build(g, opt)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewWithConfig(m, nil, Config{MaxBatchBytes: 64})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)

	// Under the cap works.
	small, _ := json.Marshal(map[string]any{"pairs": [][2]int32{{0, 1}}})
	resp, err := http.Post(ts.URL+"/batch", "application/json", bytes.NewReader(small))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("small batch: status %d", resp.StatusCode)
	}

	// Over the cap gets a specific 413, not a generic 400.
	pairs := make([][2]int32, 64)
	big, _ := json.Marshal(map[string]any{"pairs": pairs})
	resp, err = http.Post(ts.URL+"/batch", "application/json", bytes.NewReader(big))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized batch: status %d, want 413", resp.StatusCode)
	}
	var e map[string]string
	if err := json.NewDecoder(resp.Body).Decode(&e); err != nil || e["error"] == "" {
		t.Fatalf("413 body not a JSON error: %v %v", e, err)
	}
}

func TestHandlerSurvivesBurstPastCap(t *testing.T) {
	// A tiny in-flight cap under a concurrent burst: every request gets
	// either a successful answer or a well-formed 429, and the server
	// keeps serving afterwards.
	g, err := gen.Grid(6, 6, gen.DefaultConfig(4))
	if err != nil {
		t.Fatal(err)
	}
	opt := core.DefaultOptions(4)
	opt.Dim = 8
	opt.Epochs = 1
	opt.VertexSampleRatio = 5
	opt.FineTuneRounds = 1
	opt.HierSampleCap = 1000
	opt.ValidationPairs = 50
	m, _, err := core.Build(g, opt)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewWithConfig(m, nil, Config{MaxInFlight: 2})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)

	var wg sync.WaitGroup
	bad := make(chan string, 64)
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Get(ts.URL + "/distance?s=0&t=5")
			if err != nil {
				bad <- err.Error()
				return
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusTooManyRequests {
				bad <- fmt.Sprintf("status %d", resp.StatusCode)
			}
		}()
	}
	wg.Wait()
	close(bad)
	for msg := range bad {
		t.Fatal(msg)
	}
	getJSON(t, ts.URL+"/healthz", http.StatusOK)
}
