package server

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/alt"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/hybrid"
)

// buildOn trains a quick model over g with the given seed.
func buildOn(t *testing.T, g *graph.Graph, seed int64) *core.Model {
	t.Helper()
	opt := core.DefaultOptions(seed)
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
	return m
}

func swapGraph(t *testing.T) *graph.Graph {
	t.Helper()
	g, err := gen.Grid(8, 8, gen.DefaultConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func metricValue(t *testing.T, ts *httptest.Server, line string) float64 {
	t.Helper()
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	for _, l := range strings.Split(string(body), "\n") {
		if strings.HasPrefix(l, line+" ") {
			var v float64
			fmt.Sscanf(strings.TrimPrefix(l, line+" "), "%g", &v)
			return v
		}
	}
	t.Fatalf("metric %q not found in:\n%s", line, body)
	return 0
}

func TestSwapFlipsVersionAndEstimates(t *testing.T) {
	g := swapGraph(t)
	m1, m2 := buildOn(t, g, 1), buildOn(t, g, 2)
	srv, err := NewFromSet(ModelSet{Model: m1, Version: "v1"}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	if v := srv.ActiveVersion(); v != "v1" {
		t.Fatalf("boot version %s", v)
	}
	out := getJSON(t, ts.URL+"/distance?s=0&t=50", http.StatusOK)
	if out["distance"].(float64) != m1.Estimate(0, 50) {
		t.Fatal("serving wrong model before swap")
	}
	if v := metricValue(t, ts, `rne_model_version{version="v1"}`); v != 1 {
		t.Fatalf("version gauge v1 = %v, want 1", v)
	}

	if err := srv.Swap(ModelSet{Model: m2, Version: "v2"}); err != nil {
		t.Fatal(err)
	}
	if v := srv.ActiveVersion(); v != "v2" {
		t.Fatalf("post-swap version %s", v)
	}
	out = getJSON(t, ts.URL+"/distance?s=0&t=50", http.StatusOK)
	if out["distance"].(float64) != m2.Estimate(0, 50) {
		t.Fatal("swap did not change serving model")
	}
	health := getJSON(t, ts.URL+"/healthz", http.StatusOK)
	if health["version"] != "v2" {
		t.Fatalf("healthz version = %v, want v2", health["version"])
	}
	if v := metricValue(t, ts, "rne_model_swaps_total"); v != 1 {
		t.Fatalf("swaps_total = %v, want 1", v)
	}
	if v := metricValue(t, ts, `rne_model_version{version="v2"}`); v != 1 {
		t.Fatalf("version gauge v2 = %v, want 1", v)
	}
	if v := metricValue(t, ts, `rne_model_version{version="v1"}`); v != 0 {
		t.Fatalf("version gauge v1 after swap = %v, want 0", v)
	}
}

func TestSwapValidationRollsBack(t *testing.T) {
	g := swapGraph(t)
	m1 := buildOn(t, g, 1)
	srv, err := NewFromSet(ModelSet{Model: m1, Version: "v1"}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// A NaN-poisoned candidate must fail the sample-query smoke.
	bad := buildOn(t, g, 3)
	bad.Matrix().Row(0)[0] = math.NaN()
	if err := srv.Swap(ModelSet{Model: bad, Version: "v2"}); err == nil {
		t.Fatal("swap accepted a NaN-poisoned model")
	}
	// A guard covering a different graph must fail vertex validation.
	small, err := gen.Grid(5, 5, gen.DefaultConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	sm := buildOn(t, small, 1)
	lt, err := alt.Build(small, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	guard, err := hybrid.New(sm, lt)
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Swap(ModelSet{Model: m1, Guard: guard, Version: "v3"}); err == nil {
		t.Fatal("swap accepted a guard from a different graph")
	}

	// Every failure rolled back: v1 still serves, failures counted,
	// swaps_total untouched.
	if v := srv.ActiveVersion(); v != "v1" {
		t.Fatalf("active after failed swaps = %s, want v1", v)
	}
	out := getJSON(t, ts.URL+"/distance?s=0&t=50", http.StatusOK)
	if out["distance"].(float64) != m1.Estimate(0, 50) {
		t.Fatal("rollback did not preserve the serving model")
	}
	if v := metricValue(t, ts, "rne_model_swap_failures_total"); v != 2 {
		t.Fatalf("swap_failures_total = %v, want 2", v)
	}
	if v := metricValue(t, ts, "rne_model_swaps_total"); v != 0 {
		t.Fatalf("swaps_total = %v, want 0", v)
	}
}

func TestAdminReloadEndpoint(t *testing.T) {
	g := swapGraph(t)
	m1, m2 := buildOn(t, g, 1), buildOn(t, g, 2)
	var fail atomic.Bool
	srv, err := NewFromSet(ModelSet{Model: m1, Version: "v1"}, Config{
		Reloader: func() (ModelSet, error) {
			if fail.Load() {
				return ModelSet{}, fmt.Errorf("registry unreachable")
			}
			return ModelSet{Model: m2, Version: "v2"}, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp, err := http.Post(ts.URL+"/admin/reload", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	var out map[string]any
	json.NewDecoder(resp.Body).Decode(&out)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || out["swapped"] != true || out["version"] != "v2" {
		t.Fatalf("reload response %d %v", resp.StatusCode, out)
	}
	if srv.ActiveVersion() != "v2" {
		t.Fatal("reload did not swap")
	}

	fail.Store(true)
	resp, err = http.Post(ts.URL+"/admin/reload", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	out = map[string]any{}
	json.NewDecoder(resp.Body).Decode(&out)
	resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError || out["swapped"] != false {
		t.Fatalf("failed reload response %d %v", resp.StatusCode, out)
	}
	if out["active_version"] != "v2" {
		t.Fatalf("failed reload did not report the still-active version: %v", out)
	}
	if srv.ActiveVersion() != "v2" {
		t.Fatal("failed reload changed the active set")
	}
}

func TestAdminReloadWithoutReloader(t *testing.T) {
	g := swapGraph(t)
	srv, err := NewFromSet(ModelSet{Model: buildOn(t, g, 1)}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	resp, err := http.Post(ts.URL+"/admin/reload", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotImplemented {
		t.Fatalf("reload without reloader = %d, want 501", resp.StatusCode)
	}
}

func TestSwapRebuildsDriftMonitorFromNewScale(t *testing.T) {
	g := swapGraph(t)
	m1, m2 := buildOn(t, g, 1), buildOn(t, g, 2)
	lt, err := alt.Build(g, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	g1, err := hybrid.New(m1, lt)
	if err != nil {
		t.Fatal(err)
	}
	g2, err := hybrid.New(m2, lt)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewFromSet(ModelSet{Model: m1, Guard: g1, Version: "v1"}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if d := srv.active.Load().drift; d == nil || d.MaxDist() != m1.Scale() {
		t.Fatalf("boot drift monitor scale wrong: %+v", d)
	}
	if err := srv.Swap(ModelSet{Model: m2, Guard: g2, Version: "v2"}); err != nil {
		t.Fatal(err)
	}
	// The regression this guards: reusing the boot-time monitor would
	// band drift against m1's scale forever.
	if d := srv.active.Load().drift; d == nil || d.MaxDist() != m2.Scale() {
		t.Fatalf("post-swap drift monitor not rebuilt from the new scale (have %v, want %v)",
			srv.active.Load().drift.MaxDist(), m2.Scale())
	}
}

// TestSwapUnderLoad is the zero-downtime contract, run under -race in
// CI: /distance and /batch hammered concurrently with repeated swaps
// between two versions must produce zero non-2xx responses, and every
// response must be internally consistent with exactly one model — a
// batch half-served by v1 and half by v2 would be a torn read.
func TestSwapUnderLoad(t *testing.T) {
	g := swapGraph(t)
	m1, m2 := buildOn(t, g, 1), buildOn(t, g, 2)
	srv, err := NewFromSet(ModelSet{Model: m1, Version: "v1"}, Config{MaxInFlight: -1})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	pairs := [][2]int32{{0, 50}, {3, 33}, {7, 60}, {12, 21}}
	e1 := make([]float64, len(pairs))
	e2 := make([]float64, len(pairs))
	for i, p := range pairs {
		e1[i] = m1.Estimate(p[0], p[1])
		e2[i] = m2.Estimate(p[0], p[1])
		if e1[i] == e2[i] {
			t.Fatalf("models agree on pair %v; torn reads would be invisible", p)
		}
	}
	body := `{"pairs":[[0,50],[3,33],[7,60],[12,21]]}`

	const workers = 8
	stop := make(chan struct{})
	errs := make(chan error, workers*4)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if w%2 == 0 {
					resp, err := http.Get(ts.URL + "/distance?s=0&t=50")
					if err != nil {
						errs <- err
						return
					}
					var out map[string]any
					err = json.NewDecoder(resp.Body).Decode(&out)
					resp.Body.Close()
					if err != nil {
						errs <- err
						return
					}
					if resp.StatusCode != http.StatusOK {
						errs <- fmt.Errorf("/distance status %d", resp.StatusCode)
						return
					}
					if d := out["distance"].(float64); d != e1[0] && d != e2[0] {
						errs <- fmt.Errorf("torn /distance read: %v is neither %v nor %v", d, e1[0], e2[0])
						return
					}
				} else {
					resp, err := http.Post(ts.URL+"/batch", "application/json", strings.NewReader(body))
					if err != nil {
						errs <- err
						return
					}
					var out struct {
						Distances []float64 `json:"distances"`
					}
					err = json.NewDecoder(resp.Body).Decode(&out)
					resp.Body.Close()
					if err != nil {
						errs <- err
						return
					}
					if resp.StatusCode != http.StatusOK {
						errs <- fmt.Errorf("/batch status %d", resp.StatusCode)
						return
					}
					if len(out.Distances) != len(pairs) {
						errs <- fmt.Errorf("batch returned %d distances", len(out.Distances))
						return
					}
					// All-v1 or all-v2, never a mix.
					wantV1 := out.Distances[0] == e1[0]
					for i, d := range out.Distances {
						want := e2[i]
						if wantV1 {
							want = e1[i]
						}
						if d != want {
							errs <- fmt.Errorf("torn /batch read at %d: %v (batch started as v1=%v)", i, d, wantV1)
							return
						}
					}
				}
			}
		}(w)
	}

	const swaps = 40
	sets := []ModelSet{{Model: m1, Version: "v1"}, {Model: m2, Version: "v2"}}
	for i := 0; i < swaps; i++ {
		if err := srv.Swap(sets[(i+1)%2]); err != nil {
			t.Fatalf("swap %d: %v", i, err)
		}
	}
	close(stop)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if v := metricValue(t, ts, "rne_model_swaps_total"); v != swaps {
		t.Fatalf("swaps_total = %v, want %d (monotonic, one per successful swap)", v, swaps)
	}
}
