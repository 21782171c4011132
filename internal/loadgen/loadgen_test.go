package loadgen

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/resilience"
	"repro/internal/telemetry"
)

// fakeTarget is a minimal serving surface: /healthz with model
// metadata, the three query routes, and a real telemetry registry on
// /metrics (runtime block included) so the joiner exercises the same
// scrape path it uses against rneserver.
type fakeTarget struct {
	*httptest.Server
	requests atomic.Int64
	batch5xx atomic.Bool
	reg      *telemetry.Registry
}

func newFakeTarget(t *testing.T, delay time.Duration) *fakeTarget {
	t.Helper()
	ft := &fakeTarget{reg: telemetry.NewRegistry()}
	telemetry.RegisterRuntimeMetrics(ft.reg)
	served := ft.reg.Counter("rne_fake_requests_total", "Requests served by the fake.")
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		json.NewEncoder(w).Encode(map[string]any{"status": "ok", "vertices": 64})
	})
	serve := func(w http.ResponseWriter, r *http.Request) {
		ft.requests.Add(1)
		served.Inc()
		if delay > 0 {
			time.Sleep(delay)
		}
		json.NewEncoder(w).Encode(map[string]any{"distance": 1.0})
	}
	mux.HandleFunc("/distance", serve)
	mux.HandleFunc("/knn", serve)
	mux.HandleFunc("/batch", func(w http.ResponseWriter, r *http.Request) {
		if ft.batch5xx.Load() {
			ft.requests.Add(1)
			served.Inc()
			http.Error(w, "overloaded", http.StatusServiceUnavailable)
			return
		}
		serve(w, r)
	})
	mux.Handle("/metrics", ft.reg.Handler())
	ft.Server = httptest.NewServer(mux)
	t.Cleanup(ft.Close)
	return ft
}

// Closed loop end to end: vertex discovery from /healthz, per-route
// per-class stats over the measured window only, and a non-empty
// scrape join carrying the counters the fake target moved.
func TestClosedLoopRunWithJoin(t *testing.T) {
	ft := newFakeTarget(t, 0)
	ft.batch5xx.Store(true)

	r, err := New(context.Background(), Config{
		Target:         ft.URL,
		Mix:            Mix{Distance: 3, Batch: 1},
		BatchSize:      4,
		Seed:           7,
		ScrapeInterval: 100 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if r.Vertices() != 64 {
		t.Fatalf("discovered %d vertices, want 64 from /healthz", r.Vertices())
	}

	res, err := r.RunStep(context.Background(), Step{
		Clients:  2,
		Duration: 600 * time.Millisecond,
		Warmup:   150 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Mode != "closed" {
		t.Errorf("mode %q, want closed", res.Mode)
	}
	if res.Sent <= 0 || res.Measured <= 0 || res.Measured > res.Sent {
		t.Fatalf("sent %d measured %d: want 0 < measured <= sent (warmup excluded)", res.Sent, res.Measured)
	}
	if res.AchievedQPS <= 0 {
		t.Errorf("achieved qps %v, want > 0", res.AchievedQPS)
	}
	var sawDistance2xx, sawBatch5xx bool
	var routeCount int64
	for _, rs := range res.Routes {
		routeCount += rs.Count
		if rs.Count > 0 && (rs.P50MS <= 0 || rs.P99MS < rs.P50MS || rs.MaxMS < rs.P99MS/2) {
			t.Errorf("route %s/%s has implausible quantiles: %+v", rs.Route, rs.Class, rs)
		}
		switch {
		case rs.Route == "distance" && rs.Class == "2xx":
			sawDistance2xx = true
		case rs.Route == "batch" && rs.Class == "5xx":
			sawBatch5xx = true
		}
	}
	if !sawDistance2xx || !sawBatch5xx {
		t.Errorf("route/class series missing (distance2xx=%v batch5xx=%v): %+v",
			sawDistance2xx, sawBatch5xx, res.Routes)
	}
	if routeCount != res.Measured {
		t.Errorf("route counts sum to %d, measured %d", routeCount, res.Measured)
	}
	if res.SendLag != nil {
		t.Error("closed loop reported send lag; lag is an open-loop concept")
	}

	if len(res.Servers) != 1 {
		t.Fatalf("got %d server joins, want 1 (default: the target)", len(res.Servers))
	}
	join := res.Servers[0]
	if join.ScrapeError != "" {
		t.Fatalf("scrape error: %s", join.ScrapeError)
	}
	if d := join.CountersDelta["rne_fake_requests_total"]; d <= 0 {
		t.Errorf("join counters delta missing the fake's request counter: %v", join.CountersDelta)
	}
	if g := join.Gauges[telemetry.MetricGoroutines]; g < 1 {
		t.Errorf("joined goroutine gauge %v, want >= 1", g)
	}
	if len(join.Timeline) < 2 {
		t.Errorf("timeline has %d samples, want >= 2 (ticks plus closing scrape)", len(join.Timeline))
	}
	for _, ts := range join.Timeline {
		if ts.Goroutines < 1 || ts.HeapBytes <= 0 {
			t.Errorf("timeline sample missing runtime gauges: %+v", ts)
		}
	}
}

// A shed request is counted once: against the serving pass's own
// in-flight cap, the closing timeline row's sheds equal the 429s the
// clients saw.
func TestTimelineShedsMatchClient429s(t *testing.T) {
	st := resilience.NewStats()
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		json.NewEncoder(w).Encode(map[string]any{"status": "ok", "vertices": 64})
	})
	mux.Handle("/metrics", st.Registry().Handler())
	mux.HandleFunc("/distance", func(w http.ResponseWriter, r *http.Request) {
		time.Sleep(2 * time.Millisecond)
		json.NewEncoder(w).Encode(map[string]any{"distance": 1.0})
	})
	ts := httptest.NewServer(resilience.Wrap(mux, resilience.Options{MaxInFlight: 1, Stats: st}))
	defer ts.Close()

	r, err := New(context.Background(), Config{
		Target:         ts.URL,
		Mix:            Mix{Distance: 1},
		Seed:           7,
		ScrapeInterval: 50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := r.RunStep(context.Background(), Step{Clients: 3, Duration: 200 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	var shed4xx int64
	for _, rs := range res.Routes {
		if rs.Class == "4xx" {
			shed4xx += rs.Count
		}
	}
	if len(res.Servers) != 1 || len(res.Servers[0].Timeline) == 0 {
		t.Fatalf("no timeline joined: %+v", res.Servers)
	}
	tl := res.Servers[0].Timeline
	if last := tl[len(tl)-1]; shed4xx < 1 || last.Sheds != float64(shed4xx) {
		t.Fatalf("closing timeline row counts %v sheds, clients saw %d 4xx answers: want equal and at least 1", last.Sheds, shed4xx)
	}
}

func TestRunnerRejectsGatewayWithoutVertices(t *testing.T) {
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		json.NewEncoder(w).Encode(map[string]any{"status": "ok"}) // no vertex count
	})
	ts := httptest.NewServer(mux)
	defer ts.Close()
	if _, err := New(context.Background(), Config{Target: ts.URL}); err == nil {
		t.Fatal("runner accepted a target without a vertex count and no explicit -vertices")
	}
	if _, err := New(context.Background(), Config{Target: ts.URL, Vertices: 100}); err != nil {
		t.Fatalf("explicit vertex count rejected: %v", err)
	}
}

func TestParseMix(t *testing.T) {
	m, err := ParseMix("distance=8,batch=1,knn=1")
	if err != nil {
		t.Fatal(err)
	}
	if m != (Mix{Distance: 8, Batch: 1, KNN: 1}) {
		t.Fatalf("mix = %+v", m)
	}
	for _, bad := range []string{"", "distance", "walk=1", "distance=-1", "distance=0"} {
		if _, err := ParseMix(bad); err == nil {
			t.Errorf("ParseMix(%q) accepted", bad)
		}
	}
}

func TestParseSteps(t *testing.T) {
	steps, err := ParseSteps("c=4,qps=0,d=2s,w=500ms; c=8,qps=200,d=1s", 250*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if len(steps) != 2 {
		t.Fatalf("got %d steps", len(steps))
	}
	if steps[0].Clients != 4 || steps[0].QPS != 0 || steps[0].Warmup != 500*time.Millisecond {
		t.Errorf("step 0 = %+v", steps[0])
	}
	if steps[1].Warmup != 250*time.Millisecond {
		t.Errorf("step 1 did not inherit the default warmup: %+v", steps[1])
	}
	if steps[0].Label() != "c4-closed" || steps[1].Label() != "c8-q200" {
		t.Errorf("labels %q %q", steps[0].Label(), steps[1].Label())
	}
	for _, bad := range []string{"", "c=0,d=1s", "c=1,d=0s", "c=1,d=1s,w=2s", "c=1,d=1s,qps=-5", "x=1,d=1s"} {
		if _, err := ParseSteps(bad, 0); err == nil {
			t.Errorf("ParseSteps(%q) accepted", bad)
		}
	}
}

// Report append round trip: two runs land in one file, reload keeps
// them, and a foreign experiment file is refused.
func TestReportAppendRoundTrip(t *testing.T) {
	path := t.TempDir() + "/BENCH_load.json"
	rep, err := LoadReport(path)
	if err != nil {
		t.Fatal(err)
	}
	rep.AppendRun(Run{Name: "replica", Target: "http://a"})
	if err := rep.Write(path); err != nil {
		t.Fatal(err)
	}
	rep2, err := LoadReport(path)
	if err != nil {
		t.Fatal(err)
	}
	rep2.AppendRun(Run{Name: "gateway", Target: "http://b"})
	if err := rep2.Write(path); err != nil {
		t.Fatal(err)
	}
	final, err := LoadReport(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(final.Runs) != 2 || final.Runs[0].Name != "replica" || final.Runs[1].Name != "gateway" {
		t.Fatalf("runs = %+v", final.Runs)
	}
	if final.Runs[0].StartUnix == 0 {
		t.Error("AppendRun did not stamp the run start")
	}

	foreign := t.TempDir() + "/BENCH_other.json"
	if err := (&Report{Experiment: "overload", Schema: 1}).Write(foreign); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadReport(foreign); err == nil {
		t.Error("foreign experiment report accepted for appending")
	}
}
