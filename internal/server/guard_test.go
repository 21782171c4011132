package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/alt"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/hybrid"
)

// newGuardedServer builds a model and an ALT index over the same graph
// and serves with guard mode on.
func newGuardedServer(t *testing.T) (*httptest.Server, *core.Model, *alt.Index) {
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
	lt, err := alt.Build(g, 8, 2)
	if err != nil {
		t.Fatal(err)
	}
	est, err := hybrid.New(m, lt)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewWithConfig(m, nil, Config{Guard: est})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return ts, m, lt
}

// The guard property: no /distance response ever falls outside the
// certified ALT interval, verified against independently recomputed
// bounds over random pairs.
func TestGuardDistanceNeverOutsideBounds(t *testing.T) {
	ts, m, lt := newGuardedServer(t)
	rng := rand.New(rand.NewSource(9))
	n := m.NumVertices()
	sawClamp := false
	for trial := 0; trial < 300; trial++ {
		s := rng.Intn(n)
		u := rng.Intn(n)
		out := getJSON(t, fmt.Sprintf("%s/distance?s=%d&t=%d", ts.URL, s, u), http.StatusOK)
		d := out["distance"].(float64)
		wantLo, wantHi := lt.Bounds(int32(s), int32(u))
		if s == u { // the guard answers identical pairs with exact zero
			wantLo, wantHi = 0, 0
		}
		if d < wantLo || d > wantHi {
			t.Fatalf("(%d,%d): distance %v outside certified [%v,%v]", s, u, d, wantLo, wantHi)
		}
		if out["lo"].(float64) != wantLo || out["hi"].(float64) != wantHi {
			t.Fatalf("(%d,%d): reported bounds [%v,%v] != recomputed [%v,%v]",
				s, u, out["lo"], out["hi"], wantLo, wantHi)
		}
		if out["clamped"].(bool) {
			sawClamp = true
			if d != wantLo && d != wantHi {
				t.Fatalf("(%d,%d): clamped response %v not on an interval endpoint", s, u, d)
			}
		}
	}
	_ = sawClamp // clamping frequency is model-dependent; the property above is what matters
}

// The same property over /batch, plus per-response clamp accounting and
// the guard counters on /metrics.
func TestGuardBatchBoundsAndCounters(t *testing.T) {
	ts, m, lt := newGuardedServer(t)
	rng := rand.New(rand.NewSource(10))
	n := int32(m.NumVertices())
	pairs := make([][2]int32, 200)
	for i := range pairs {
		pairs[i] = [2]int32{rng.Int31n(n), rng.Int31n(n)}
	}
	body, _ := json.Marshal(map[string]any{"pairs": pairs})
	resp, err := http.Post(ts.URL+"/batch", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch status %d", resp.StatusCode)
	}
	var out struct {
		Distances    []float64 `json:"distances"`
		Lo           []float64 `json:"lo"`
		Hi           []float64 `json:"hi"`
		ClampedCount int       `json:"clamped_count"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if len(out.Distances) != len(pairs) || len(out.Lo) != len(pairs) || len(out.Hi) != len(pairs) {
		t.Fatalf("response arrays sized %d/%d/%d, want %d",
			len(out.Distances), len(out.Lo), len(out.Hi), len(pairs))
	}
	for i, p := range pairs {
		wantLo, wantHi := lt.Bounds(p[0], p[1])
		if p[0] == p[1] {
			wantLo, wantHi = 0, 0
		}
		if d := out.Distances[i]; d < wantLo || d > wantHi {
			t.Fatalf("pair %d (%d,%d): distance %v outside certified [%v,%v]", i, p[0], p[1], d, wantLo, wantHi)
		}
		if out.Lo[i] != wantLo || out.Hi[i] != wantHi {
			t.Fatalf("pair %d: reported bounds [%v,%v] != recomputed [%v,%v]",
				i, out.Lo[i], out.Hi[i], wantLo, wantHi)
		}
	}
	if out.ClampedCount < 0 || out.ClampedCount > len(pairs) {
		t.Fatalf("clamped_count %d out of range", out.ClampedCount)
	}

	metrics := scrapeMetrics(t, ts.URL)
	if got := int(metrics["rne_guard_checked_total"]); got != len(pairs) {
		t.Fatalf("rne_guard_checked_total = %d, want %d", got, len(pairs))
	}
	clamps := int(metrics["rne_guard_clamped_low_total"]) + int(metrics["rne_guard_clamped_high_total"])
	if clamps != out.ClampedCount {
		t.Fatalf("counter clamps %d != response clamped_count %d", clamps, out.ClampedCount)
	}
}

// Guard mode is visible on /healthz, and absent by default.
func TestGuardHealthzFlag(t *testing.T) {
	ts, _, _ := newGuardedServer(t)
	out := getJSON(t, ts.URL+"/healthz", http.StatusOK)
	if out["guard"] != true {
		t.Fatalf("guarded /healthz reports guard=%v", out["guard"])
	}
	plain, _ := newTestServer(t, false)
	out = getJSON(t, plain.URL+"/healthz", http.StatusOK)
	if out["guard"] != false {
		t.Fatalf("unguarded /healthz reports guard=%v", out["guard"])
	}
}

// A guard built over a different graph than the model is rejected at
// construction, not discovered as silent nonsense at query time.
func TestGuardVertexCountMismatchRejected(t *testing.T) {
	big, err := gen.Grid(10, 10, gen.DefaultConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	small, err := gen.Grid(5, 5, gen.DefaultConfig(1))
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
	m, _, err := core.Build(big, opt)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := altOverGraph(small, m); err == nil {
		t.Fatal("hybrid.New accepted a landmark index from a different graph")
	}
}

func altOverGraph(g *graph.Graph, m *core.Model) (*hybrid.Estimator, error) {
	lt, err := alt.Build(g, 4, 2)
	if err != nil {
		return nil, err
	}
	return hybrid.New(m, lt)
}
