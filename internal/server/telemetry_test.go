package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strings"
	"testing"

	"repro/internal/telemetry"
)

// End-to-end /metrics: after live guarded traffic the endpoint serves
// well-formed Prometheus text including the per-route latency
// histograms, guard clamp counters and per-distance-band drift
// histograms.
func TestMetricsEndpointExposition(t *testing.T) {
	ts, m, _ := newGuardedServer(t)
	rng := rand.New(rand.NewSource(11))
	n := m.NumVertices()
	for i := 0; i < 120; i++ {
		resp, err := http.Get(fmt.Sprintf("%s/distance?s=%d&t=%d", ts.URL, rng.Intn(n), rng.Intn(n)))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	pairs := [][2]int32{{0, 5}, {3, 9}}
	body, _ := json.Marshal(map[string]any{"pairs": pairs})
	resp, err := http.Post(ts.URL+"/batch", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()

	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics status %d", resp.StatusCode)
	}
	if got := resp.Header.Get("Content-Type"); got != telemetry.ExpositionContentType {
		t.Fatalf("Content-Type = %q", got)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	out := string(raw)
	if err := telemetry.CheckExposition(strings.NewReader(out)); err != nil {
		t.Fatalf("/metrics is not valid exposition: %v\n%s", err, out)
	}
	for _, want := range []string{
		"# TYPE rne_http_requests_total counter",
		`rne_http_requests_total{class="2xx"}`,
		"# TYPE rne_http_request_duration_seconds histogram",
		`rne_http_route_duration_seconds_bucket{route="/distance",le="+Inf"}`,
		`rne_http_route_duration_seconds_count{route="/batch"}`,
		"rne_guard_checked_total",
		"rne_guard_clamped_low_total",
		"rne_guard_clamped_high_total",
		"rne_drift_observations_total",
		"rne_drift_score",
		`rne_drift_band_error_bucket{band="00",`,
		"rne_uptime_seconds",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("/metrics missing %q:\n%s", want, out)
		}
	}
	// The drift monitor saw the guarded traffic (identical pairs are
	// skipped, so at least the distinct-pair queries must be counted).
	if !strings.Contains(out, "rne_drift_observations_total") {
		t.Fatal("drift counter absent")
	}
}

// Route histograms track only registered routes; anything else lands
// in route="other" so metric cardinality stays bounded.
func TestMetricsRouteCardinalityBounded(t *testing.T) {
	ts, _ := newTestServer(t, false)
	for _, path := range []string{"/healthz", "/no/such/route", "/another?x=1"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	out := string(raw)
	if strings.Contains(out, `route="/no/such/route"`) || strings.Contains(out, `route="/healthz"`) {
		t.Fatalf("unregistered routes created series:\n%s", out)
	}
	if !strings.Contains(out, `rne_http_route_duration_seconds_count{route="other"}`) {
		t.Fatalf("no route=\"other\" fallback series:\n%s", out)
	}
}

// Every response carries an X-Request-Id, and a well-formed client ID
// is propagated through.
func TestServerAssignsRequestIDs(t *testing.T) {
	ts, _ := newTestServer(t, false)
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.Header.Get(telemetry.RequestIDHeader) == "" {
		t.Fatal("response has no X-Request-Id")
	}

	req, _ := http.NewRequest("GET", ts.URL+"/healthz", nil)
	req.Header.Set(telemetry.RequestIDHeader, "trace-me-7")
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if got := resp.Header.Get(telemetry.RequestIDHeader); got != "trace-me-7" {
		t.Fatalf("client request ID not echoed: %q", got)
	}
}
