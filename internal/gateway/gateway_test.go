package gateway

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
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
	"repro/internal/telemetry"
)

func buildModel(t testing.TB) (*graph.Graph, *core.Model) {
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

func newGateway(t testing.TB, cfg Config) *Gateway {
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

// Rendezvous routing gives every source one owner, splits the sources
// evenly, and moves only an excluded backend's sources — to the
// next-ranked replica, never to the excluded one.
func TestRouteStableBalancedAndMinimallyDisruptive(t *testing.T) {
	const n = 8098 // bj-mini's vertex count
	for _, ids := range [][]string{
		{"10.0.0.1:8080", "10.0.0.2:8080"},
		{"replica-a:8080", "replica-b:8080"},
		{"127.0.0.1:18372", "127.0.0.1:18373"},
		{"a:1", "b:1", "c:1"},
	} {
		urls := make([]string, len(ids))
		for i, id := range ids {
			urls[i] = "http://" + id
		}
		gw := newGateway(t, Config{Backends: urls, HealthInterval: time.Hour})
		owners := make([]*backend, n)
		counts := make(map[*backend]int)
		for v := int32(0); v < n; v++ {
			owners[v] = gw.route(v, nil)
			if owners[v] == nil || owners[v] != gw.route(v, nil) {
				t.Fatalf("%v: routing not deterministic at source %d", ids, v)
			}
			counts[owners[v]]++
		}
		even := float64(n) / float64(len(ids))
		for _, b := range gw.backends {
			if c := float64(counts[b]); c < 0.9*even || c > 1.1*even {
				t.Fatalf("%v: %s owns %d of %d sources, want %.0f ± 10%%", ids, b.id, counts[b], n, even)
			}
		}
		for _, gone := range gw.backends {
			exclude := map[*backend]bool{gone: true}
			for v := int32(0); v < n; v++ {
				moved := gw.route(v, exclude)
				if moved == nil || moved == gone {
					t.Fatalf("%v: source %d routed to %v with %s excluded", ids, v, moved, gone.id)
				}
				if owners[v] != gone && moved != owners[v] {
					t.Fatalf("%v: source %d moved from %s to %s though its owner stayed",
						ids, v, owners[v].id, moved.id)
				}
			}
		}
	}
}

// routeFleets builds the two fleet shapes routing is measured on: one
// region of two full-model replicas, and two regions of one shard
// replica each (the shape of the benchmark's matrix workload). Regions
// are assigned as a probe would, without any replica running.
func routeFleets(tb testing.TB) (map[string]*Gateway, int32) {
	tb.Helper()
	_, m, sp := cutTestModel(tb)
	urls := []string{"http://10.0.0.1:8080", "http://10.0.0.2:8080"}
	full := newGateway(tb, Config{Backends: urls, HealthInterval: time.Hour})
	sharded := newGateway(tb, Config{Backends: urls, ShardMap: sp.Map, HealthInterval: time.Hour})
	for k, b := range sharded.backends {
		b.shardID.Store(int32(k))
	}
	return map[string]*Gateway{"one-region-2-replicas": full, "2-regions-1-replica": sharded},
		int32(m.NumVertices())
}

// Routing runs once per proxied request and once per /batch pair, so it
// must not allocate.
func TestRouteAllocs(t *testing.T) {
	fleets, n := routeFleets(t)
	for name, gw := range fleets {
		exclude := map[*backend]bool{gw.backends[0]: true}
		v := int32(0)
		allocs := testing.AllocsPerRun(1000, func() {
			gw.route(v, nil)
			gw.route(v, exclude)
			v = (v + 1) % n
		})
		if allocs != 0 {
			t.Fatalf("%s: route allocates %.1f times per call pair", name, allocs)
		}
	}
}

var routeSink *backend

func BenchmarkRoute(b *testing.B) {
	fleets, n := routeFleets(b)
	for _, name := range []string{"one-region-2-replicas", "2-regions-1-replica"} {
		gw := fleets[name]
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				routeSink = gw.route(int32(i)%n, nil)
			}
		})
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
	// The single-source routes name the fleet's one region and say when
	// to come back.
	dresp, err := http.Get(ts.URL + "/distance?s=0&t=5")
	if err != nil {
		t.Fatal(err)
	}
	var derr map[string]string
	json.NewDecoder(dresp.Body).Decode(&derr)
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusServiceUnavailable || dresp.Header.Get("Retry-After") == "" ||
		!strings.Contains(derr["error"], "shard 0 degraded") {
		t.Fatalf("distance with empty fleet = %d %v (Retry-After %q), want 503 naming shard 0",
			dresp.StatusCode, derr, dresp.Header.Get("Retry-After"))
	}
	code, ready := getBody(t, ts.URL+"/readyz")
	if code != http.StatusServiceUnavailable || ready["status"] != "unavailable" ||
		ready["shards"] != 1.0 || ready["covered"] != 0.0 || fmt.Sprint(ready["shards_down"]) != "[0]" {
		t.Fatalf("readyz with empty fleet = %d %v, want 503 with shard 0 down", code, ready)
	}
	if b := ready["backends"].([]any)[0].(map[string]any); b["shard"] != 0.0 {
		t.Fatalf("readyz backend entry %v lacks shard 0", b)
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

// A source the replica would reject is rejected at the gateway, with
// the same 400, before any backend call is spent on it.
func TestMalformedSourceRejectedWithoutBackendCall(t *testing.T) {
	_, m := buildModel(t)
	replica := newBackend(t, m, nil, "v1")
	gw := newGateway(t, Config{Backends: []string{replica.URL}, HealthInterval: time.Hour})
	ts := httptest.NewServer(gw.Handler())
	defer ts.Close()

	b := gw.backends[0]
	for _, route := range []string{"/distance?t=1&s=", "/knn?k=3&s=", "/range?tau=5&s="} {
		for _, s := range []string{"", "12abc", "0x10", "1_000", "1e3", "3.0", "%205", "-1", "2147483648"} {
			before := b.requests.Value()
			resp, err := http.Get(ts.URL + route + s)
			if err != nil {
				t.Fatal(err)
			}
			var out map[string]string
			json.NewDecoder(resp.Body).Decode(&out)
			resp.Body.Close()
			if resp.StatusCode != http.StatusBadRequest || out["error"] == "" {
				t.Fatalf("%s%s answered %d %v, want 400 with an error", route, s, resp.StatusCode, out)
			}
			if after := b.requests.Value(); after != before {
				t.Fatalf("%s%s cost %d backend requests", route, s, after-before)
			}
		}
	}
}

func TestGatewayMetricsSurface(t *testing.T) {
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
	samples, err := telemetry.ParseExposition(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	host := strings.TrimPrefix(b1.URL, "http://")
	for key, want := range map[string]float64{
		`rne_gateway_backend_healthy{backend="` + host + `"}`:        1,
		`rne_gateway_backend_requests_total{backend="` + host + `"}`: 1,
		`rne_http_requests_total{class="2xx"}`:                       1,
		`rne_http_route_duration_seconds_count{route="/batch"}`:      1,
	} {
		if samples[key] != want {
			t.Fatalf("%s = %v, want %v", key, samples[key], want)
		}
	}
	if samples["rne_uptime_seconds"] <= 0 {
		t.Fatalf("rne_uptime_seconds = %v", samples["rne_uptime_seconds"])
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

// cannedFleet is a RoundTripper standing in for a fleet of replicas:
// it answers /readyz with 200 and each /batch leg with a canned guarded
// answer of the leg's length, so a benchmark through it times the
// gateway alone.
type cannedFleet struct {
	mu      sync.Mutex
	replies map[int][]byte // by pair count
}

func (f *cannedFleet) RoundTrip(r *http.Request) (*http.Response, error) {
	var body []byte
	if r.Body != nil {
		req, err := io.ReadAll(r.Body)
		r.Body.Close()
		if err != nil {
			return nil, err
		}
		n := bytes.Count(req, []byte("[")) - 1 // {"pairs":[[s,t],...]}
		f.mu.Lock()
		if body = f.replies[n]; body == nil {
			ans := batchwire.Answer{Guarded: true, Distances: make([]float64, n), Lo: make([]float64, n), Hi: make([]float64, n)}
			for i := range ans.Distances {
				ans.Distances[i] = 1234.5678 + float64(i)/7
				ans.Lo[i], ans.Hi[i] = ans.Distances[i]*0.9, ans.Distances[i]*1.1
			}
			body, _ = new(batchwire.Buffers).AppendAnswer(nil, &ans)
			f.replies[n] = body
		}
		f.mu.Unlock()
	}
	return &http.Response{
		StatusCode:    http.StatusOK,
		Header:        http.Header{"Content-Type": {"application/json"}},
		ContentLength: int64(len(body)),
		Body:          io.NopCloser(bytes.NewReader(body)),
		Request:       r,
	}, nil
}

// BenchmarkGatewayBatch is one 1,024-pair POST /batch through
// Gateway.Handler() over two replicas of a one-region fleet, answered
// in process with canned guarded bytes: the split, the attempt loop,
// the reply scan and the merge, without the network.
func BenchmarkGatewayBatch(b *testing.B) {
	gw := newGateway(b, Config{
		Backends:       []string{"http://replica-a", "http://replica-b"},
		HealthInterval: time.Hour,
		Transport:      &cannedFleet{replies: map[int][]byte{}},
	})
	pairs := make([][2]int32, 1024)
	for i := range pairs {
		pairs[i] = [2]int32{int32(i*37) % 8192, int32(i*61+11) % 8192}
	}
	body := []byte(batchBody(pairs))
	h := gw.Handler()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/batch", bytes.NewReader(body)))
		if rec.Code != http.StatusOK {
			b.Fatalf("status %d: %s", rec.Code, rec.Body)
		}
	}
}
