package gateway

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/alt"
	"repro/internal/batchwire"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/hybrid"
	"repro/internal/server"
)

func buildModel(t *testing.T) (*graph.Graph, *core.Model) {
	t.Helper()
	g, err := gen.Grid(8, 8, gen.DefaultConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	opt := core.DefaultOptions(1)
	opt.Dim = 8
	opt.Epochs = 2
	opt.VertexSampleRatio = 10
	opt.FineTuneRounds = 1
	opt.HierSampleCap = 2000
	opt.ValidationPairs = 50
	m, _, err := core.Build(g, opt)
	if err != nil {
		t.Fatal(err)
	}
	return g, m
}

// newBackend spins up a real rneserver replica over m.
func newBackend(t *testing.T, m *core.Model, guard *hybrid.Estimator, version string) *httptest.Server {
	t.Helper()
	srv, err := server.NewFromSet(server.ModelSet{Model: m, Guard: guard, Version: version}, server.Config{})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return ts
}

func newGateway(t *testing.T, cfg Config) *Gateway {
	t.Helper()
	gw, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { gw.Close() })
	return gw
}

func postBatch(t *testing.T, ts *httptest.Server, body string) (*http.Response, map[string]any) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/batch", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return resp, out
}

func batchBody(pairs [][2]int32) string {
	var ss, ts []int32
	for _, p := range pairs {
		ss, ts = append(ss, p[0]), append(ts, p[1])
	}
	return string(batchwire.AppendRequest(nil, ss, ts))
}

// decodeBatch is a fake replica's request decoder.
func decodeBatch(r *http.Request) ([]int32, []int32, error) {
	body, err := io.ReadAll(r.Body)
	if err != nil {
		return nil, nil, err
	}
	return batchwire.DecodePairs(body, nil, nil)
}

func TestRingStableAndMinimallyDisruptive(t *testing.T) {
	ids := []string{"a:1", "b:1", "c:1"}
	r := newRing(ids, 64)
	all := func(i int) bool { return true }
	owners := make([]int, 1000)
	counts := make([]int, len(ids))
	for v := int32(0); v < 1000; v++ {
		owners[v] = r.walk(v, all)
		if owners[v] != r.walk(v, all) {
			t.Fatalf("ring not deterministic at key %d", v)
		}
		counts[owners[v]]++
	}
	for i, c := range counts {
		if c == 0 {
			t.Fatalf("backend %d owns no keys out of 1000", i)
		}
	}
	// Ejecting backend 0 must only move backend 0's keys.
	for v := int32(0); v < 1000; v++ {
		moved := r.walk(v, func(i int) bool { return i != 0 })
		if owners[v] != 0 && moved != owners[v] {
			t.Fatalf("key %d moved from %d to %d though its owner stayed healthy", v, owners[v], moved)
		}
		if owners[v] == 0 && moved == 0 {
			t.Fatalf("key %d still routed to the ejected backend", v)
		}
	}
}

func TestFanOutMergesInOrder(t *testing.T) {
	_, m := buildModel(t)
	b1 := newBackend(t, m, nil, "v1")
	b2 := newBackend(t, m, nil, "v1")
	gw := newGateway(t, Config{
		Backends:       []string{b1.URL, b2.URL},
		HealthInterval: time.Hour, // probes quiet; this test is pure routing
	})
	ts := httptest.NewServer(gw.Handler())
	defer ts.Close()

	pairs := make([][2]int32, 40)
	for i := range pairs {
		pairs[i] = [2]int32{int32(i % 64), int32((i*7 + 3) % 64)}
	}
	resp, out := postBatch(t, ts, batchBody(pairs))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch status %d: %v", resp.StatusCode, out)
	}
	got := out["distances"].([]any)
	if len(got) != len(pairs) {
		t.Fatalf("merged %d distances, want %d", len(got), len(pairs))
	}
	for i, p := range pairs {
		if got[i].(float64) != m.Estimate(p[0], p[1]) {
			t.Fatalf("distance %d out of order or wrong: %v", i, got[i])
		}
	}
	// The batch must actually have been split: both replicas served.
	for _, b := range gw.backends {
		if b.requests.Value() == 0 {
			t.Fatalf("backend %s received no fan-out traffic", b.id)
		}
	}
}

func TestFanOutMergesGuardBounds(t *testing.T) {
	g, m := buildModel(t)
	lt, err := alt.Build(g, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	guard, err := hybrid.New(m, lt)
	if err != nil {
		t.Fatal(err)
	}
	b1 := newBackend(t, m, guard, "v1")
	b2 := newBackend(t, m, guard, "v1")
	gw := newGateway(t, Config{
		Backends:       []string{b1.URL, b2.URL},
		HealthInterval: time.Hour,
	})
	ts := httptest.NewServer(gw.Handler())
	defer ts.Close()

	pairs := [][2]int32{{0, 9}, {13, 60}, {33, 2}, {50, 41}, {8, 8}, {21, 5}}
	resp, out := postBatch(t, ts, batchBody(pairs))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch status %d: %v", resp.StatusCode, out)
	}
	lo, lookLo := out["lo"].([]any)
	hi, lookHi := out["hi"].([]any)
	if !lookLo || !lookHi {
		t.Fatalf("guarded fan-out lost the certified bounds: %v", out)
	}
	if _, ok := out["clamped_count"]; !ok {
		t.Fatalf("guarded fan-out lost clamped_count: %v", out)
	}
	dist := out["distances"].([]any)
	for i := range pairs {
		d, l, h := dist[i].(float64), lo[i].(float64), hi[i].(float64)
		if d < l-1e-9 || d > h+1e-9 {
			t.Fatalf("pair %d: merged distance %v escapes merged bounds [%v,%v]", i, d, l, h)
		}
	}
}

func TestBatchServedWithBackendDown(t *testing.T) {
	_, m := buildModel(t)
	b1 := newBackend(t, m, nil, "v1")
	b2 := newBackend(t, m, nil, "v1")
	gw := newGateway(t, Config{
		Backends:       []string{b1.URL, b2.URL},
		HealthInterval: time.Hour, // passive detection only
		EjectAfter:     1,
	})
	ts := httptest.NewServer(gw.Handler())
	defer ts.Close()

	b2.Close() // one of two replicas drops dead

	pairs := make([][2]int32, 20)
	for i := range pairs {
		pairs[i] = [2]int32{int32(i * 3 % 64), int32((i + 11) % 64)}
	}
	// First request: sub-batches owned by the dead backend fail once and
	// retry onto the survivor — the client still sees a full 200.
	resp, out := postBatch(t, ts, batchBody(pairs))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch with one dead backend: status %d: %v", resp.StatusCode, out)
	}
	got := out["distances"].([]any)
	for i, p := range pairs {
		if got[i].(float64) != m.Estimate(p[0], p[1]) {
			t.Fatalf("distance %d wrong after failover: %v", i, got[i])
		}
	}
	if gw.ejections.Value() == 0 {
		t.Fatal("dead backend was not ejected")
	}
	if gw.HealthyBackends() != 1 {
		t.Fatalf("healthy backends = %d, want 1", gw.HealthyBackends())
	}
	// Second request: the ejected backend is skipped at routing time, so
	// the request succeeds with no retries needed.
	before := gw.retries.Value()
	resp, out = postBatch(t, ts, batchBody(pairs))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch after ejection: status %d: %v", resp.StatusCode, out)
	}
	if gw.retries.Value() != before {
		t.Fatalf("post-ejection batch still needed retries (%d -> %d)", before, gw.retries.Value())
	}

	// /readyz reports the degradation without going unready.
	rresp, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	var ready map[string]any
	json.NewDecoder(rresp.Body).Decode(&ready)
	rresp.Body.Close()
	if rresp.StatusCode != http.StatusOK || ready["status"] != "degraded" {
		t.Fatalf("readyz with one backend down: %d %v", rresp.StatusCode, ready)
	}
}

func TestEjectedBackendRevivedByProbe(t *testing.T) {
	_, m := buildModel(t)
	b1 := newBackend(t, m, nil, "v1")

	// A backend that can be toggled unhealthy: while down it answers 503
	// to everything, which the gateway counts as failure.
	var down atomic.Bool
	srv, err := server.NewFromSet(server.ModelSet{Model: m, Version: "v1"}, server.Config{})
	if err != nil {
		t.Fatal(err)
	}
	inner := srv.Handler()
	flaky := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if down.Load() {
			http.Error(w, "down for maintenance", http.StatusServiceUnavailable)
			return
		}
		inner.ServeHTTP(w, r)
	}))
	defer flaky.Close()

	gw := newGateway(t, Config{
		Backends:       []string{b1.URL, flaky.URL},
		HealthInterval: 5 * time.Millisecond,
		BackoffBase:    time.Millisecond,
		BackoffMax:     5 * time.Millisecond,
		EjectAfter:     2,
	})
	ts := httptest.NewServer(gw.Handler())
	defer ts.Close()

	down.Store(true)
	waitFor(t, "ejection", func() bool { return gw.HealthyBackends() == 1 })

	down.Store(false)
	waitFor(t, "revival", func() bool { return gw.HealthyBackends() == 2 })
	if gw.revivals.Value() == 0 {
		t.Fatal("revival not counted")
	}

	// Restored backend serves traffic again.
	resp, out := postBatch(t, ts, batchBody([][2]int32{{0, 5}, {40, 9}}))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch after revival: %d %v", resp.StatusCode, out)
	}
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

func TestAllBackendsDownIs503(t *testing.T) {
	_, m := buildModel(t)
	b1 := newBackend(t, m, nil, "v1")
	gw := newGateway(t, Config{
		Backends:       []string{b1.URL},
		HealthInterval: time.Hour,
		EjectAfter:     1,
	})
	ts := httptest.NewServer(gw.Handler())
	defer ts.Close()
	b1.Close()

	// First request ejects via the passive path (502 to the client, the
	// retry has nowhere to go)...
	resp, _ := postBatch(t, ts, batchBody([][2]int32{{0, 5}}))
	if resp.StatusCode != http.StatusBadGateway {
		t.Fatalf("batch with sole backend dead = %d, want 502", resp.StatusCode)
	}
	// ...after which routing finds no healthy backend at all.
	resp, _ = postBatch(t, ts, batchBody([][2]int32{{0, 5}}))
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("batch with empty fleet = %d, want 503", resp.StatusCode)
	}
	rresp, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	rresp.Body.Close()
	if rresp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("readyz with empty fleet = %d, want 503", rresp.StatusCode)
	}
}

func TestDistanceProxyAndBadRequestRelay(t *testing.T) {
	_, m := buildModel(t)
	b1 := newBackend(t, m, nil, "v1")
	b2 := newBackend(t, m, nil, "v1")
	gw := newGateway(t, Config{
		Backends:       []string{b1.URL, b2.URL},
		HealthInterval: time.Hour,
	})
	ts := httptest.NewServer(gw.Handler())
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/distance?s=3&t=42")
	if err != nil {
		t.Fatal(err)
	}
	var out map[string]any
	json.NewDecoder(resp.Body).Decode(&out)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("proxied /distance = %d %v", resp.StatusCode, out)
	}
	if out["distance"].(float64) != m.Estimate(3, 42) {
		t.Fatalf("proxied distance %v, want %v", out["distance"], m.Estimate(3, 42))
	}

	// A backend 400 (vertex out of range) is the client's fault and must
	// be relayed, not treated as backend failure.
	resp, err = http.Get(ts.URL + "/distance?s=3&t=100000")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("out-of-range via proxy = %d, want 400", resp.StatusCode)
	}
	if gw.HealthyBackends() != 2 {
		t.Fatal("a relayed 400 must not count against backend health")
	}
	resp, out = postBatch(t, ts, batchBody([][2]int32{{0, 100000}}))
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("out-of-range batch via gateway = %d %v, want 400", resp.StatusCode, out)
	}
}

func TestGatewayMetricsAndStatzSurface(t *testing.T) {
	_, m := buildModel(t)
	b1 := newBackend(t, m, nil, "v1")
	gw := newGateway(t, Config{
		Backends:       []string{b1.URL},
		HealthInterval: time.Hour,
	})
	ts := httptest.NewServer(gw.Handler())
	defer ts.Close()

	postBatch(t, ts, batchBody([][2]int32{{0, 5}}))

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body := make([]byte, 1<<20)
	n, _ := resp.Body.Read(body)
	resp.Body.Close()
	text := string(body[:n])
	for _, want := range []string{
		"rne_gateway_backend_healthy{backend=",
		"rne_gateway_backend_requests_total{backend=",
		"rne_http_requests_total",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("/metrics missing %q", want)
		}
	}

	sresp, err := http.Get(ts.URL + "/statz")
	if err != nil {
		t.Fatal(err)
	}
	var snap map[string]any
	if err := json.NewDecoder(sresp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	sresp.Body.Close()
	for _, key := range []string{"uptime_seconds", "requests", "by_status_class"} {
		if _, ok := snap[key]; !ok {
			t.Fatalf("/statz missing %q: %v", key, snap)
		}
	}
}

func TestBackoffJitterSpreadsReprobes(t *testing.T) {
	gw := newGateway(t, Config{
		Backends:       []string{"http://127.0.0.1:59998"},
		HealthInterval: time.Hour,
		BackoffJitter:  0.5,
	})
	const d = time.Second
	lo, hi := time.Duration(float64(d)*0.5), time.Duration(float64(d)*1.5)
	seen := map[time.Duration]bool{}
	for i := 0; i < 64; i++ {
		j := gw.jittered(d)
		if j < lo || j > hi {
			t.Fatalf("jittered(%v) = %v outside [%v, %v]", d, j, lo, hi)
		}
		seen[j] = true
	}
	if len(seen) < 2 {
		t.Fatal("jitter produced a constant re-probe delay")
	}

	// Negative jitter disables the spread entirely.
	exact := newGateway(t, Config{
		Backends:       []string{"http://127.0.0.1:59997"},
		HealthInterval: time.Hour,
		BackoffJitter:  -1,
	})
	if got := exact.jittered(d); got != d {
		t.Fatalf("disabled jitter changed the delay: %v", got)
	}
}

// TestClientCancelNotCountedAgainstBackend pins the cancellation
// semantics of the fan-out: the client's context is propagated into
// backend sub-requests (abandoning them promptly), and a sub-request
// that dies because the *client* went away is counted as a cancel, not
// as a backend failure — so impatient clients can never eject a
// healthy replica.
func TestClientCancelNotCountedAgainstBackend(t *testing.T) {
	// A backend that never answers until the sub-request is abandoned:
	// only context propagation can unblock the proxy path. It drains the
	// body first (as a real replica would) — net/http only watches for
	// client disconnects once the request body is consumed.
	stuck := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body)
		<-r.Context().Done()
	}))
	defer stuck.Close()
	gw := newGateway(t, Config{
		Backends:       []string{stuck.URL},
		HealthInterval: time.Hour,
		EjectAfter:     1,
	})
	ts := httptest.NewServer(gw.Handler())
	defer ts.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, ts.URL+"/distance?s=1&t=2", nil)
	if err != nil {
		t.Fatal(err)
	}
	if resp, err := http.DefaultClient.Do(req); err == nil {
		resp.Body.Close()
		t.Fatal("expected the client deadline to abort the request")
	}
	b := gw.backends[0]
	waitFor(t, "cancel accounting", func() bool { return b.cancels.Value() >= 1 })
	if gw.HealthyBackends() != 1 {
		t.Fatal("client cancellation ejected the backend")
	}
	if b.failures.Value() != 0 {
		t.Fatalf("client cancellation counted as backend failure (%d)", b.failures.Value())
	}

	// Same discipline on the /batch fan-out path.
	ctx2, cancel2 := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel2()
	req2, err := http.NewRequestWithContext(ctx2, http.MethodPost, ts.URL+"/batch",
		strings.NewReader(batchBody([][2]int32{{0, 5}})))
	if err != nil {
		t.Fatal(err)
	}
	req2.Header.Set("Content-Type", "application/json")
	if resp, err := http.DefaultClient.Do(req2); err == nil {
		resp.Body.Close()
	}
	waitFor(t, "batch cancel accounting", func() bool { return b.cancels.Value() >= 2 })
	if gw.HealthyBackends() != 1 || b.failures.Value() != 0 {
		t.Fatal("batch client cancellation counted against the backend")
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("empty backend list accepted")
	}
	if _, err := New(Config{Backends: []string{"not-a-url"}}); err == nil {
		t.Fatal("relative backend URL accepted")
	}
	if _, err := New(Config{Backends: []string{"http://h:1", "http://h:1"}}); err == nil {
		t.Fatal("duplicate backend accepted")
	}
	gw, err := New(Config{Backends: []string{fmt.Sprintf("http://127.0.0.1:%d/", 59999)}})
	if err != nil {
		t.Fatalf("trailing slash rejected: %v", err)
	}
	gw.Close()
	if got := gw.backends[0].base; strings.HasSuffix(got, "/") {
		t.Fatalf("base URL not normalized: %q", got)
	}
}
